"""Closed-form expansions of the log-determinant and counting statistics.

The weight vector gamma enters through the jump exponents b_k (telescoping
logs of 1 - gamma). On top of these sit the large-t expansion of
ln det(I - K_sigma) (linear, logarithmic, and constant terms, the constant
built from Barnes G values) and the closed-form mean/variance/covariance
asymptotics of the counting function, returned in the record
``stats.CountingStatistics`` that also carries their numeric values.

For weights below 1 and an imaginary beta = i s, every b_k = -i nu_k is
purely imaginary. The module computes nu_k (``_jump_nus``) in real
arithmetic, and its expansions are written in nu_k and s, so they are real
by construction: each pair of Barnes G values at conjugate arguments is one
evaluation, log G(1+z) + log G(1+conj z) = 2 Re log G(1+z), and each pair
of their derivatives is one digamma and one trigamma value at 1+z. The tests
check them against the complex exponents and expansions as published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .kernel import Configuration, KernelParams
from .specialfn import _LN_2PI, digamma, log_barnes_g, trigamma
from .specialfn import log_gamma  # noqa: F401  (perfbench/tracing.py wraps asymptotics.log_gamma by name)
from .stats import CountingStatistics, _radii

__all__ = [
    "AsymptoticReport",
    "large_gap_lnF",
    "moment_asymptotics",
]

_MIN_GAP_WARN = 0.05
# (ln G)''(1) = -1 - gamma_E, the curvature of ln G(1+z) at z = 0
_LOG_BARNES_G_D2_AT_ONE = -1.0 - 0.57721566490153286


def _gamma_extended(config: Configuration) -> tuple:
    """Weights with the sentinel values gamma_{-1} = gamma_n = 0, so that
    index k+1 holds gamma_k; rejects any weight at 1."""
    if any(g >= 1.0 for g in config.gamma):
        raise DomainError(
            "weights must lie strictly below 1; the gamma_k = 1 family has different asymptotics"
        )
    return (0.0,) + config.gamma + (0.0,)


def _jump_nus(config: Configuration) -> list:
    """nu_k = ln((1-gamma_{k-1})/(1-gamma_k)) / (2 pi) for k = 0..n, so that
    b_k = -i nu_k."""
    ge = _gamma_extended(config)
    return [
        math.log((1.0 - ge[k]) / (1.0 - ge[k + 1])) / (2.0 * math.pi)
        for k in range(len(config.r))
    ]


@dataclass(frozen=True)
class AsymptoticReport:
    """Large-t expansion of ln F split into t-linear, ln t, and constant
    parts.

    ``breakdown`` is a tuple of (name, value) pairs covering every summand;
    names ending in ``_log`` collect the ln t pieces and sum to ``log_term``,
    the ``linear`` entry equals ``linear_term``, and the remaining entries
    sum to ``constant_term`` (exactly, under correctly rounded summation).
    """

    linear_term: float
    log_term: float
    constant_term: float
    breakdown: tuple
    warnings: tuple = field(default=())

    @property
    def total(self) -> float:
        return self.linear_term + self.log_term + self.constant_term


def large_gap_lnF(params: KernelParams, config: Configuration) -> AsymptoticReport:
    """Leading large-t expansion of ln det(I - K_sigma), exact up to O(1/t).

    The breakdown entries follow the expansion's own grouping, written in
    nu_k (b_k = -i nu_k) and s = beta_im: the t-linear sum 2 nu_k r_k t,
    per-interval (2 s nu_k + 2 nu_k^2) ln|2 r_k t| split into ln t and
    constant parts, pairwise 2 nu_j nu_k ln|2 r_j r_k t / (r_k - r_j)| split
    the same way, the -(alpha/2) ln[(1-gamma_{m-1}) (1-gamma_m)] weight
    factor, and two Barnes G blocks: 2 Re ln G(1+alpha+i(s-nu_m))
    - 2 Re ln G(1+alpha+is) at the origin and 2 Re ln G(1-i nu_k) per jump.
    """
    nus = _jump_nus(config)
    if not config.t > 0.0:
        raise DomainError("large_gap_lnF: requires t > 0")
    a, s = params.alpha, params.beta_im
    t = config.t
    r = config.r
    m = config.m
    ge = _gamma_extended(config)
    active = config.active_indices

    log_t = math.log(t)
    linear = sum(2.0 * nus[k] * r[k] * t for k in active)
    interval = [(2.0 * s * nus[k] + 2.0 * nus[k] * nus[k], k) for k in active]
    pairs = [(2.0 * nus[j] * nus[k], j, k) for j in active for k in active if j < k]
    interval_const = sum(c * math.log(abs(2.0 * r[k])) for c, k in interval)
    pair_const = sum(
        c * math.log(abs(2.0 * r[j] * r[k] / (r[k] - r[j]))) for c, j, k in pairs
    )

    weight_factor = -0.5 * a * math.log((1.0 - ge[m]) * (1.0 - ge[m + 1]))
    barnes_center = 2.0 * (
        log_barnes_g(complex(a, s - nus[m])).real - log_barnes_g(complex(a, s)).real
    )
    barnes_jumps = sum(2.0 * log_barnes_g(complex(0.0, -nus[k])).real for k in active)

    breakdown = (
        ("linear", linear),
        ("interval_log", sum(c for c, _ in interval) * log_t),
        ("pair_log", sum(c for c, _, _ in pairs) * log_t),
        ("interval_const", interval_const),
        ("pair_const", pair_const),
        ("weight_factor", weight_factor),
        ("barnes_center", barnes_center),
        ("barnes_jumps", barnes_jumps),
    )
    log_term = math.fsum(v for name, v in breakdown if name.endswith("_log"))
    constant_term = math.fsum(
        v for name, v in breakdown if name != "linear" and not name.endswith("_log")
    )
    warnings = ()
    min_gap = min(r[k + 1] - r[k] for k in range(len(r) - 1))
    if min_gap < _MIN_GAP_WARN:
        warnings = (
            f"minimum endpoint gap {min_gap:.3g} is below {_MIN_GAP_WARN}; "
            "the expansion degrades as endpoints merge",
        )
    return AsymptoticReport(
        linear_term=linear,
        log_term=log_term,
        constant_term=constant_term,
        breakdown=breakdown,
        warnings=warnings,
    )


def _theta_pair(params: KernelParams):
    """The Barnes G derivative offsets theta1 = -Im (ln G)'(1+z) / pi and
    theta2 = -Re (ln G)''(1+z) / (2 pi^2) at z = alpha + is, from
    (ln G)'(1+z) = ln(2 pi)/2 - 1/2 - z + z psi(1+z) and
    (ln G)''(1+z) = -1 + psi(1+z) + z psi'(1+z)."""
    z = complex(params.alpha, params.beta_im)
    psi = digamma(1.0 + z)
    tri = trigamma(1.0 + z)
    theta1 = -(0.5 * _LN_2PI - 0.5 - z + z * psi).imag / math.pi
    theta2 = -(-1.0 + psi + z * tri).real / (2.0 * math.pi**2)
    return theta1, theta2


def moment_asymptotics(
    params: KernelParams, t: float, r1: float, r2: float | None = None
) -> CountingStatistics:
    """Closed-form large-t mean/variance/covariance of the counting function
    at radii 0 < r1 < r2, or of the means and the variance alone without
    r2."""
    t, r1, r2 = _radii(t, r1, r2, "moment_asymptotics")
    a = params.alpha
    theta1, theta2 = _theta_pair(params)
    mu = t * r1 / math.pi - 0.5 * a
    delta = math.log(2.0 * t * r1)
    beta_drift = params.beta_im / math.pi * delta
    # the variance constant carries half the unit-argument curvature: the two
    # unit-shift Barnes factors differentiate to 2 (ln G)''(1) and pick up the
    # 1/(4 pi^2) prefactor of the second exponent derivative
    var = (delta - 0.5 * _LOG_BARNES_G_D2_AT_ONE) / math.pi**2 + theta2
    cov_same = cov_opposite = None
    if r2 is not None:
        x, y = t * r1, t * r2
        sigma_same = math.log(2.0 * x * y / (y - x)) / (2.0 * math.pi**2)
        # intervals on opposite sides of the origin are separated by the SUM
        # of the radii, so the pair distance in the logarithm is x + y
        sigma_opposite = math.log(2.0 * x * y / (x + y)) / (2.0 * math.pi**2)
        cov_same, cov_opposite = sigma_same + theta2, -sigma_opposite - theta2
    return CountingStatistics(
        mean_right=mu + beta_drift + theta1,
        mean_left=mu - beta_drift - theta1,
        var=var,
        cov_same=cov_same,
        cov_opposite=cov_opposite,
    )
