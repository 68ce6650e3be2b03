"""Closed-form expansions of the log-determinant and counting statistics.

The weight vector gamma enters through the jump exponents b_k (telescoping
logs of 1 - gamma). On top of these sit the large-t expansion of
ln det(I - K_sigma) (linear, logarithmic, and constant terms, the constant
built from Barnes G values) and the closed-form mean/variance/covariance
asymptotics of the counting function.

For weights below 1 and an imaginary beta = i s, every b_k = -i nu_k is
purely imaginary. The module computes nu_k (``_jump_nus``) in real
arithmetic, and its expansions are written in nu_k and s, so they are real
by construction: each pair of Barnes G values (and of their derivatives) at
conjugate arguments is one evaluation,
log G(1+z) + log G(1+conj z) = 2 Re log G(1+z). The tests check them
against the complex exponents and expansions as published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .kernel import Configuration, KernelParams
from .specialfn import log_barnes_g, log_barnes_g_d1, log_barnes_g_d2
from .specialfn import log_gamma  # noqa: F401  (perfbench/tracing.py wraps asymptotics.log_gamma by name)

__all__ = [
    "AsymptoticReport",
    "MomentAsymptotics",
    "large_gap_lnF",
    "moment_asymptotics",
]

_MIN_GAP_WARN = 0.05


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


@dataclass(frozen=True)
class MomentAsymptotics:
    """Large-t counting-statistics asymptotics at scaled positions r1 < r2:
    means of N(+-t r1), the common variance, and the covariances of N(t r1)
    with N(t r2) (same side) and with N(-t r2) (opposite sides). The
    covariances are None when no r2 was given."""

    mean_right: float
    mean_left: float
    var: float
    cov_same: float | None
    cov_opposite: float | None


def _theta_pair(params: KernelParams):
    """The Barnes G derivative offsets theta1 = -Im (ln G)'(1+alpha+is) / pi
    and theta2 = -Re (ln G)''(1+alpha+is) / (2 pi^2)."""
    z = complex(params.alpha, params.beta_im)
    theta1 = -log_barnes_g_d1(z).imag / math.pi
    theta2 = -log_barnes_g_d2(z).real / (2.0 * math.pi**2)
    return theta1, theta2


def moment_asymptotics(
    params: KernelParams, t: float, r1: float, r2: float | None = None
) -> MomentAsymptotics:
    """Closed-form large-t mean/variance/covariance of the counting function
    at radii 0 < r1 < r2, or of the means and the variance alone without
    r2."""
    t = float(t)
    r1 = float(r1)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError("moment_asymptotics: requires finite t > 0")
    if not (math.isfinite(r1) and r1 > 0.0):
        raise DomainError("moment_asymptotics: requires finite r1 > 0")
    if r2 is not None:
        r2 = float(r2)
        if not (math.isfinite(r2) and r2 > r1):
            raise DomainError("moment_asymptotics: requires finite r2 > r1")
    a = params.alpha
    theta1, theta2 = _theta_pair(params)
    mu = t * r1 / math.pi - 0.5 * a
    delta = math.log(2.0 * t * r1)
    beta_drift = params.beta_im / math.pi * delta
    d2_at_one = log_barnes_g_d2(0.0).real
    # the variance constant carries half the unit-argument curvature: the two
    # unit-shift Barnes factors differentiate to 2 (ln G)''(1) and pick up the
    # 1/(4 pi^2) prefactor of the second exponent derivative
    var = (delta - 0.5 * d2_at_one) / math.pi**2 + theta2
    cov_same = cov_opposite = None
    if r2 is not None:
        x, y = t * r1, t * r2
        sigma_same = math.log(2.0 * x * y / (y - x)) / (2.0 * math.pi**2)
        # intervals on opposite sides of the origin are separated by the SUM
        # of the radii, so the pair distance in the logarithm is x + y
        sigma_opposite = math.log(2.0 * x * y / (x + y)) / (2.0 * math.pi**2)
        cov_same, cov_opposite = sigma_same + theta2, -sigma_opposite - theta2
    return MomentAsymptotics(
        mean_right=mu + beta_drift + theta1,
        mean_left=mu - beta_drift - theta1,
        var=var,
        cov_same=cov_same,
        cov_opposite=cov_opposite,
    )
