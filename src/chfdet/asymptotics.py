"""Closed-form expansions of the log-determinant and counting statistics.

The weight vector gamma enters through two exponent families: the jump
exponents b_k (telescoping logs of 1 - gamma) and the connection
coefficients c_k driving the small-t behavior. On top of these sit the
large-t expansion of ln det(I - K_sigma) (linear, logarithmic, and constant
terms, the constant built from Barnes G values), its small-t counterpart,
and the closed-form mean/variance/covariance asymptotics of the counting
function.

For weights below 1 and an imaginary beta = i s, every b_k = -i nu_k is
purely imaginary, and every c_k off the origin is -i w_k with w_k real.
The expansions are written in nu_k, w_k and s, so they are real by
construction: each pair of Barnes G values (and of their derivatives) at
conjugate arguments is one evaluation, log G(1+z) + log G(1+conj z) =
2 Re log G(1+z). ``b_from_gamma`` and ``c_from_gamma`` keep the complex
values of the expansion as published.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DomainError
from .kernel import Configuration, KernelParams, _gamma_prefactor
from .specialfn import log_barnes_g, log_barnes_g_d1, log_barnes_g_d2
from .specialfn import log_gamma  # noqa: F401  (perfbench/tracing.py wraps asymptotics.log_gamma by name)

__all__ = [
    "AsymptoticReport",
    "MomentAsymptotics",
    "b_from_gamma",
    "c_from_gamma",
    "large_gap_lnF",
    "small_t_lnF",
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


def _side_weights(config: Configuration, beta_im: float) -> dict:
    """w_k = i c_k for every k != m, real: (gamma_{k-1} - gamma_k) / (2 pi)
    e^{-pi s} left of the origin and (gamma_k - gamma_{k-1}) / (2 pi) e^{pi s}
    right of it, with s = beta_im."""
    ge = _gamma_extended(config)
    m = config.m
    left, right = math.exp(-math.pi * beta_im), math.exp(math.pi * beta_im)
    return {
        k: (ge[k] - ge[k + 1]) / (2.0 * math.pi) * left
        if k < m
        else (ge[k + 1] - ge[k]) / (2.0 * math.pi) * right
        for k in config.active_indices
    }


def b_from_gamma(config: Configuration) -> list:
    """Jump exponents b_k = ln((1-gamma_{k-1})/(1-gamma_k)) / (2 pi i) for
    k = 0..n, purely imaginary for real weights below 1; they telescope to
    sum exactly zero."""
    return [-1j * nu for nu in _jump_nus(config)]


def c_from_gamma(config: Configuration, params: KernelParams) -> list:
    """Connection coefficients c_k for k = 0..n.

    For k on either side of m these are scaled weight differences with a
    phase e^{+-beta pi i}; the k = m entry couples the two weights adjacent
    to the origin with the combined phase e^{+-(alpha+beta) pi i}.
    """
    ws = _side_weights(config, params.beta_im)
    ge = _gamma_extended(config)
    m = config.m
    ab = params.alpha + params.beta
    c_m = (1.0 - ge[m]) * cmath.exp(ab * math.pi * 1j) - (1.0 - ge[m + 1]) * cmath.exp(
        -ab * math.pi * 1j
    )
    return [-1j * ws[k] if k != m else c_m for k in range(len(config.r))]


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


def small_t_lnF(params: KernelParams, config: Configuration, t: float) -> float:
    """Leading small-t value of ln F, of order t^{2 alpha + 1}:
    G sum_k w_k (2 |r_k| t)^{2 alpha + 1} / (2 alpha + 1)^2 with the kernel's
    gamma prefactor G and the real weights w_k = i c_k.

    The k = m term carries |r_m| = 0 and vanishes identically, so the sum
    runs over the active indices only.
    """
    ws = _side_weights(config, params.beta_im)
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise DomainError("small_t_lnF: requires t >= 0")
    if t == 0.0:
        return 0.0
    g = _gamma_prefactor(params)
    twoa1 = 2.0 * params.alpha + 1.0
    total = 0.0
    for k, w in ws.items():
        total += w * g * (2.0 * abs(config.r[k])) ** twoa1 * t**twoa1 / (twoa1 * twoa1)
    return total


@dataclass(frozen=True)
class MomentAsymptotics:
    """Large-t counting-statistics asymptotics at scaled positions r1 < r2:
    means of N(+-t r1), the common variance, and the covariances of N(t r1)
    with N(t r2) (same side) and with N(-t r2) (opposite sides)."""

    mean_right: float
    mean_left: float
    var: float
    cov_same: float
    cov_opposite: float


def _theta_pair(params: KernelParams):
    """The Barnes G derivative offsets theta1 = -Im (ln G)'(1+alpha+is) / pi
    and theta2 = -Re (ln G)''(1+alpha+is) / (2 pi^2)."""
    z = complex(params.alpha, params.beta_im)
    theta1 = -log_barnes_g_d1(z).imag / math.pi
    theta2 = -log_barnes_g_d2(z).real / (2.0 * math.pi**2)
    return theta1, theta2


def moment_asymptotics(
    params: KernelParams, t: float, r1: float, r2: float
) -> MomentAsymptotics:
    """Closed-form large-t mean/variance/covariance of the counting function."""
    t = float(t)
    r1 = float(r1)
    r2 = float(r2)
    if not t > 0.0:
        raise DomainError("moment_asymptotics: requires t > 0")
    if not (r1 > 0.0 and r2 > r1):
        raise DomainError("moment_asymptotics: requires r2 > r1 > 0")
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
    x, y = t * r1, t * r2
    sigma_same = math.log(2.0 * x * y / (y - x)) / (2.0 * math.pi**2)
    # intervals on opposite sides of the origin are separated by the SUM of
    # the radii, so the pair distance in the logarithm is x + y
    sigma_opposite = math.log(2.0 * x * y / (x + y)) / (2.0 * math.pi**2)
    return MomentAsymptotics(
        mean_right=mu + beta_drift + theta1,
        mean_left=mu - beta_drift - theta1,
        var=var,
        cov_same=sigma_same + theta2,
        cov_opposite=-sigma_opposite - theta2,
    )
