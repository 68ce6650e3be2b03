"""Closed-form expansions of the log-determinant and counting statistics.

The weight vector gamma enters through two exponent families: the jump
exponents b_k (telescoping logs of 1 - gamma) and the connection
coefficients c_k driving the small-t behavior. On top of these sit the
large-t expansion of ln det(I - K_sigma) (linear, logarithmic, and constant
terms, the constant built from Barnes G values), its small-t counterpart,
and the closed-form mean/variance/covariance asymptotics of the counting
function.

All algebra is done in complex arithmetic and collapsed to real numbers at
the report boundary with an asserted imaginary residue; sign rules are never
hand-simplified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DomainError
from .kernel import Configuration, KernelParams
from .specialfn import (
    log_barnes_g,
    log_barnes_g_d1,
    log_barnes_g_d2,
    log_gamma,
)

__all__ = [
    "AsymptoticReport",
    "MomentAsymptotics",
    "b_from_gamma",
    "c_from_gamma",
    "large_gap_lnF",
    "small_t_lnF",
    "moment_asymptotics",
]

_TWO_PI_I = 2.0j * math.pi
_MIN_GAP_WARN = 0.05


def _gamma_extended(config: Configuration) -> tuple:
    """Weights with the sentinel values gamma_{-1} = gamma_n = 0, so that
    index k+1 holds gamma_k."""
    return (0.0,) + config.gamma + (0.0,)


def _require_thinned(config: Configuration) -> None:
    if any(g >= 1.0 for g in config.gamma):
        raise DomainError(
            "weights must lie strictly below 1; the gamma_k = 1 family has different asymptotics"
        )


def _collapse(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-12:
        raise AssertionError(f"{what}: imaginary residue {abs(z.imag):.3e} exceeds 1e-12")
    return float(z.real)


def b_from_gamma(config: Configuration) -> list:
    """Jump exponents b_k = ln((1-gamma_{k-1})/(1-gamma_k)) / (2 pi i) for
    k = 0..n, purely imaginary for real weights below 1; they telescope to
    sum exactly zero."""
    _require_thinned(config)
    ge = _gamma_extended(config)
    return [
        cmath.log((1.0 - ge[k]) / (1.0 - ge[k + 1])) / _TWO_PI_I
        for k in range(len(config.r))
    ]


def c_from_gamma(config: Configuration, params: KernelParams) -> list:
    """Connection coefficients c_k for k = 0..n.

    For k on either side of m these are scaled weight differences with a
    phase e^{+-beta pi i}; the k = m entry couples the two weights adjacent
    to the origin with the combined phase e^{+-(alpha+beta) pi i}.
    """
    _require_thinned(config)
    a, b = params.alpha, params.beta
    ge = _gamma_extended(config)
    m = config.m
    out = []
    for k in range(len(config.r)):
        if k < m:
            out.append((ge[k] - ge[k + 1]) / _TWO_PI_I * cmath.exp(b * math.pi * 1j))
        elif k > m:
            out.append((ge[k + 1] - ge[k]) / _TWO_PI_I * cmath.exp(-b * math.pi * 1j))
        else:
            out.append(
                (1.0 - ge[m]) * cmath.exp((a + b) * math.pi * 1j)
                - (1.0 - ge[m + 1]) * cmath.exp(-(a + b) * math.pi * 1j)
            )
    return out


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

    The breakdown entries follow the expansion's own grouping: the t-linear
    sum 2i b_k r_k t, per-interval (2 beta b_k - 2 b_k^2) ln|2 r_k t| split
    into ln t and constant parts, pairwise -2 b_j b_k ln|2 r_j r_k t /
    (r_k - r_j)| split the same way, the -(alpha/2) ln[(1-gamma_{m-1})
    (1-gamma_m)] weight factor, and two Barnes G blocks.
    """
    _require_thinned(config)
    if not config.t > 0.0:
        raise DomainError("large_gap_lnF: requires t > 0")
    a, beta = params.alpha, params.beta
    t = config.t
    r = config.r
    m = config.m
    bs = b_from_gamma(config)
    ge = _gamma_extended(config)
    active = config.active_indices

    log_t = math.log(t)
    linear = _collapse(sum(2j * bs[k] * r[k] * t for k in active), "linear term")

    interval_coef = sum(2.0 * beta * bs[k] - 2.0 * bs[k] * bs[k] for k in active)
    interval_const = sum(
        (2.0 * beta * bs[k] - 2.0 * bs[k] * bs[k]) * math.log(abs(2.0 * r[k]))
        for k in active
    )

    pair_coef = 0.0 + 0.0j
    pair_const = 0.0 + 0.0j
    for j in active:
        for k in active:
            if j >= k:
                continue
            pair_coef += -2.0 * bs[j] * bs[k]
            pair_const += -2.0 * bs[j] * bs[k] * math.log(
                abs(2.0 * r[j] * r[k] / (r[k] - r[j]))
            )

    weight_factor = -0.5 * a * math.log((1.0 - ge[m]) * (1.0 - ge[m + 1]))
    barnes_center = (
        log_barnes_g(a + beta + bs[m])
        + log_barnes_g(a - beta - bs[m])
        - log_barnes_g(a + beta)
        - log_barnes_g(a - beta)
    )
    barnes_jumps = sum(log_barnes_g(bs[k]) + log_barnes_g(-bs[k]) for k in active)

    breakdown = (
        ("linear", linear),
        ("interval_log", _collapse(interval_coef, "interval log coefficient") * log_t),
        ("pair_log", _collapse(pair_coef, "pair log coefficient") * log_t),
        ("interval_const", _collapse(interval_const, "interval constants")),
        ("pair_const", _collapse(pair_const, "pair constants")),
        ("weight_factor", weight_factor),
        ("barnes_center", _collapse(barnes_center, "Barnes center block")),
        ("barnes_jumps", _collapse(barnes_jumps, "Barnes jump block")),
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
    """Leading small-t value of ln F, of order t^{2 alpha + 1}.

    The k = m term carries |r_m| = 0 and vanishes identically, so the sum
    runs over the active indices only.
    """
    _require_thinned(config)
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise DomainError("small_t_lnF: requires t >= 0")
    if t == 0.0:
        return 0.0
    a, beta = params.alpha, params.beta
    cs = c_from_gamma(config, params)
    lg_minus, lg_plus, lg_2a = log_gamma([1.0 + a - beta, 1.0 + a + beta, 1.0 + 2.0 * a]).tolist()
    gamma_block = cmath.exp(lg_minus + lg_plus - 2.0 * lg_2a)
    twoa1 = 2.0 * a + 1.0
    total = 0.0 + 0.0j
    for k in config.active_indices:
        total += (
            1j
            * cs[k]
            * gamma_block
            * (2.0 * abs(config.r[k])) ** twoa1
            * t**twoa1
            / (twoa1 * twoa1)
        )
    return _collapse(total, "small-t expansion")


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
    a, beta = params.alpha, params.beta
    theta1 = _collapse(
        (log_barnes_g_d1(a - beta) - log_barnes_g_d1(a + beta)) / _TWO_PI_I,
        "first G-derivative offset",
    )
    theta2 = _collapse(
        -(log_barnes_g_d2(a + beta) + log_barnes_g_d2(a - beta)) / (4.0 * math.pi**2),
        "second G-derivative offset",
    )
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
    a, beta = params.alpha, params.beta
    theta1, theta2 = _theta_pair(params)
    mu = t * r1 / math.pi - 0.5 * a
    delta = math.log(2.0 * t * r1)
    beta_drift = _collapse(beta / (1j * math.pi), "jump drift coefficient") * delta
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
