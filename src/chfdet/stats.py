"""Counting statistics from trace identities of the Nystrom operator.

For a determinantal process with a real symmetric kernel K, the particle
counts N_A and N_B on two sets have (Soshnikov, Russian Math. Surveys 55,
2000)

    E N_A = int_A K(x, x) dx,
    Cov(N_A, N_B) = int_{A cap B} K(x, x) dx - int_A int_B K(x, y)^2 dx dy.

On the Nystrom grid of ``log_det`` both integrals are sums over the one
symmetric matrix B = sqrt(w) K sqrt(w) built with weight 1 on every interval:
the mean is the sum of B_ii over the nodes in A, and the covariance is
sum_{i in A cap B} B_ii - sum_{i in A, j in B} B_ij^2. The variance is the
covariance with A = B. The grid integrates analytic functions, so the sums
are accurate to rounding level (Bornemann, Math. Comp. 79, 2010).

Grid panels depend only on their own interval, so one operator on the
endpoints (-r2, -r1, 0, r1, r2) holds every entry that the two means, the
variance and the two covariances read; ``counting_statistics`` builds that
one operator and reads all five from node masks, which is what a ``chfdet
moments`` run evaluates. Its values equal the single-statistic functions to
rounding: bitwise where the two grids share their panels, and for the
opposite-side covariance, whose left interval the shared grid splits at
-r1, within 2.2e-16 absolute (1.1e-15 relative) over alpha in {-0.45, 0,
0.25, 1.5}, |beta_im| <= 0.7, t in [0.5, 100] and (r1, r2) in {(1, 2),
(0.7, 2.9), (0.3, 1.1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from . import fredholm
from .fredholm import log_det  # noqa: F401  (perfbench/tracing.py wraps stats.log_det by name)
from .kernel import Configuration, KernelParams

__all__ = [
    "CountingStatistics",
    "counting_statistics",
    "numeric_mean",
    "numeric_variance",
    "numeric_covariance",
]


def _validate_t(t: float, what: str) -> None:
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"{what}: requires finite t > 0")


def _radii(t: float, r1: float, r2: float | None, what: str) -> tuple:
    """t, r1 and r2 as floats for a statistic at radii 0 < r1 < r2 (r2 may
    be None); DomainError naming ``what`` unless t and r1 are finite and
    positive and r2, if given, is finite and above r1."""
    t, r1 = float(t), float(r1)
    _validate_t(t, what)
    if not (math.isfinite(r1) and r1 > 0.0):
        raise DomainError(f"{what}: requires finite r1 > 0")
    if r2 is not None:
        r2 = float(r2)
        if not (math.isfinite(r2) and r2 > r1):
            raise DomainError(f"{what}: requires finite r2 > r1")
    return t, r1, r2


def _operator(params: KernelParams, t: float, r: tuple):
    """Grid nodes and B = sqrt(w) K sqrt(w) on the intervals between the
    endpoints t*r, each with weight 1, at ``build_grid``'s orders."""
    config = Configuration(t=t, r=r, gamma=(1.0,) * (len(r) - 1))
    return fredholm._operator(params, config)


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonConvergenceError(f"{what}: value is not finite")
    return value


def _mean(b, in_a) -> float:
    """sum_{i in A} B_ii for a boolean node mask of A."""
    return np.sum(np.diag(b)[in_a])


def _covariance(b, in_a, in_b) -> float:
    """sum_{i in A cap B} B_ii - sum_{i in A, j in B} B_ij^2 for boolean
    node masks of A and B."""
    return _mean(b, in_a & in_b) - np.sum(b[np.ix_(in_a, in_b)] ** 2)


def _one_sided(t: float, r1: float, what: str) -> tuple:
    t, r1 = float(t), float(r1)
    _validate_t(t, what)
    if not (math.isfinite(r1) and r1 != 0.0):
        raise DomainError(f"{what}: requires nonzero finite r1")
    return t, ((0.0, r1) if r1 > 0.0 else (r1, 0.0))


def numeric_mean(params: KernelParams, t: float, r1: float) -> float:
    """Expected particle count on the interval between 0 and t*r1: the trace
    of B on that interval."""
    t, r = _one_sided(t, r1, "numeric_mean")
    _, b = _operator(params, t, r)
    return _finite(np.trace(b), "numeric_mean")


def numeric_variance(params: KernelParams, t: float, r1: float) -> float:
    """Variance of the particle count on the interval between 0 and t*r1:
    tr B - tr B^2 on that interval."""
    t, r = _one_sided(t, r1, "numeric_variance")
    _, b = _operator(params, t, r)
    everywhere = np.ones(b.shape[0], dtype=bool)
    return _finite(_covariance(b, everywhere, everywhere), "numeric_variance")


def numeric_covariance(
    params: KernelParams, t: float, r1: float, r2: float, sign: str = "+"
) -> float:
    """Covariance of two particle counts at radii r1 and r2.

    sign "+" correlates the counts on (0, t*r_lo) and (0, t*r_hi), on the
    same side of the origin; sign "-" correlates the counts on (0, t*r_lo)
    and (-t*r_hi, 0). The arguments are sorted first, so swapping r1 and r2
    reproduces the result bit for bit."""
    t = float(t)
    _validate_t(t, "numeric_covariance")
    lo, hi = sorted((float(r1), float(r2)))
    if not (math.isfinite(lo) and 0.0 < lo < hi):
        raise DomainError("numeric_covariance: requires two distinct positive radii")
    if sign == "+":
        nodes, b = _operator(params, t, (0.0, lo, hi))
        in_a, in_b = nodes < lo * t, np.ones(nodes.shape, dtype=bool)
    elif sign == "-":
        nodes, b = _operator(params, t, (-hi, 0.0, lo))
        in_a, in_b = nodes > 0.0, nodes < 0.0
    else:
        raise DomainError('numeric_covariance: sign must be "+" or "-"')
    return _finite(_covariance(b, in_a, in_b), "numeric_covariance")


@dataclass(frozen=True)
class CountingStatistics:
    """Counting statistics at scaled positions r1 < r2: means of the counts
    on (0, t r1) and (-t r1, 0), the variance of the first, and its
    covariances with the counts on (0, t r2) and (-t r2, 0). The covariances
    are None when no r2 was given. One record for both routes:
    ``counting_statistics`` fills it with the numeric values and
    ``asymptotics.moment_asymptotics`` with their large-t predictions."""

    mean_right: float
    mean_left: float
    var: float
    cov_same: float | None = None
    cov_opposite: float | None = None


def counting_statistics(
    params: KernelParams, t: float, r1: float, r2: float | None = None
) -> CountingStatistics:
    """All counting statistics at radii 0 < r1 < r2 from one operator on the
    endpoints (-r2, -r1, 0, r1, r2), or (-r1, 0, r1) without r2, each panel
    at the ellipse rule's order.

    Each statistic is the trace sum of its single-statistic function, read
    from node masks of the shared operator: numeric_mean(t, r1),
    numeric_mean(t, -r1), numeric_variance(t, r1) and
    numeric_covariance(t, r1, r2, "+" and "-")."""
    t, r1, r2 = _radii(t, r1, r2, "counting_statistics")
    r = (-r1, 0.0, r1) if r2 is None else (-r2, -r1, 0.0, r1, r2)
    nodes, b = _operator(params, t, r)
    right, left = nodes > 0.0, nodes < 0.0
    inner = t * r1
    near_right, near_left = right & (nodes < inner), left & (nodes > -inner)
    values = {
        "mean_right": _mean(b, near_right),
        "mean_left": _mean(b, near_left),
        "var": _covariance(b, near_right, near_right),
    }
    if r2 is not None:
        values["cov_same"] = _covariance(b, near_right, right)
        values["cov_opposite"] = _covariance(b, near_right, left)
    return CountingStatistics(
        **{name: _finite(value, f"counting_statistics: {name}") for name, value in values.items()}
    )
