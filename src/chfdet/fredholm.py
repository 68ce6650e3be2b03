"""Fredholm determinant of the weighted kernel by Nystrom discretization.

The operator acts on the union of intervals (r_k t, r_{k+1} t) with the step
weight sigma, which lies in [0, 1]. Discretizing with Gauss panels turns
det(I - K_sigma) into a dense matrix determinant; with D = diag(sqrt(w_j
sigma(x_j))) the matrix is the real symmetric B = D K D, whose entries stay
O(1) even where the kernel diverges at the origin. The kernel factors as
|x|^alpha |y|^alpha times a function analytic on each side of the origin, so
the two panels touching the origin use the Gauss-Jacobi rule for the weight
|x|^{2 alpha}; every panel then integrates an analytic function and the
determinant converges exponentially in the panel order (Bornemann, Math.
Comp. 79, 2010).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError, RegimeError
from .kernel import Configuration, KernelParams, chf_kernel_matrix, sigma_step
from .quadrules import _MAX_ORDER, gauss_jacobi

__all__ = [
    "build_grid",
    "log_det",
]

# ln(64/15) + ln(2^53): the bound's constant over the unit roundoff
_LN_BOUND = math.log(64.0 / 15.0) + 53.0 * math.log(2.0)
# the largest s = ln(rho) the rule tries; sinh(700) is still finite
_S_CAP = 700.0
# the most nodes build_grid lays: one N x N matrix of doubles is then
# 128 MiB, against 235 nodes at t = 100 on three intervals at alpha -0.45
_MAX_NODES = 4096


def _too_many_nodes(count: int) -> RegimeError:
    return RegimeError(
        f"build_grid: the grid needs at least {count} nodes, more than the {_MAX_NODES} "
        "one dense determinant allows"
    )


def _ellipse_order(half_width: float, s_max: float, ln_weight: float) -> int:
    """The fewest Gauss nodes q, within [4, _MAX_ORDER], at which
    min over 0 < s <= s_max of
    (64/15) e^{ln_weight + 2 w sinh s} e^{-2 q s} / (e^{2s} - 1)
    falls to 2^-53, with w the half-width and s = ln(rho).

    That q is the ceiling of min_s F(s), F = N / (2 s) with
    N(s) = _LN_BOUND + ln_weight + 2 w sinh s - s - ln(2 sinh s). F falls
    while s N' < N and rises after; s N' - N increases in s, so its one root
    is found by Newton's method, bracketed, from the right of it. With no
    room for an ellipse (s_max 0: a panel so near the origin that its
    cap rounds onto the panel) it gives _MAX_ORDER."""
    ln_bound = _LN_BOUND + ln_weight
    lo, hi = 0.0, min(s_max, _S_CAP)
    if hi == 0.0:
        return _MAX_ORDER
    s = min(hi, max(math.log(ln_bound / half_width), 0.0) + 1.0)
    for _ in range(100):
        sh, ch = math.sinh(s), math.cosh(s)
        numer = ln_bound + 2.0 * half_width * sh - s - math.log(2.0 * sh)
        slope = s * (2.0 * half_width * ch - 1.0 - ch / sh) - numer
        if slope > 0.0:
            hi = s
        elif s == hi:
            break  # F still falls at the cap
        else:
            lo = s
        step = s - slope / (s * (2.0 * half_width * sh + 1.0 / (sh * sh)))
        nxt = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(nxt - s) <= 1e-9 * s:
            break
        s = nxt
    return min(_MAX_ORDER, max(4, math.ceil(numer / (2.0 * s))))


def _panel_order(lo: float, hi: float, alpha: float) -> int:
    """The ellipse rule's order for the panel (lo, hi): the fewest Gauss
    nodes q at which the Bernstein-ellipse bound of Gauss quadrature,
    minimised over 1 < rho < rho_max, falls to 2^-53 (Trefethen,
    Approximation Theory and Approximation Practice, Thm 19.3).

    For an integrand analytic and bounded by M inside the ellipse E_rho of
    the panel, q nodes err by at most (64/15) M rho^{-2q} / (rho^2 - 1). The
    Nystrom error follows the quadrature error of its integrands (Bornemann,
    Math. Comp. 79, 2010), and these are entire of exponential type 2
    (K(x, y) has type 1 in each variable, since A(x) ~ e^{-+ix}), so on a
    panel of half-width w the ellipse bounds M by e^{w (rho - 1/rho)}. A
    panel away from the origin caps rho_max at the ellipse through x = 0,
    where |x|^{2 alpha} branches and sigma jumps; the two Gauss-Jacobi
    panels at the origin carry that singularity in their weight, so their
    rho is not capped, and the bound scales by the weight's integral over
    Legendre's, 1/(2 alpha + 1). Orders run from 7 on an origin panel of
    width 1 and 13-14 at t = 5 to 26 at width 20 and 77 at width 100."""
    half = 0.5 * (hi - lo)
    if lo == 0.0 or hi == 0.0:
        return _ellipse_order(half, math.inf, -math.log1p(2.0 * alpha))
    return _ellipse_order(half, math.acosh(abs(lo + half) / half), 0.0)


def _panels(a: float, b: float, alpha: float) -> list:
    """(lo, hi, order) for the fewest equal panels of the interval (a, b)
    at which every panel's ellipse rule, without its cap at the ellipse
    through x = 0, stays below _MAX_ORDER; none when (a, b) is too short to
    hold a point strictly inside (t near 5e-324).

    The uncapped order depends on the panel width alone (and on alpha at
    the origin), so the count grows with the interval's length only: one
    panel up to a length of about 905. A panel at least its own width from
    the origin sees the ellipse through x = 0 only beyond rho = 3 + sqrt 8,
    which at these widths does not bind, so it too stays below _MAX_ORDER.
    Only the panel nearest the origin on an interval that does not touch
    it can need more, and it takes its capped order, up to _MAX_ORDER.
    Every panel takes at least 4 nodes, so the count stops with
    RegimeError once its panels alone must exceed _MAX_NODES."""
    if not a < a + 0.5 * (b - a) < b:
        return []
    # a capped order bounds the uncapped one, so one panel below the
    # largest order needs no search
    if (order := _panel_order(a, b, alpha)) < _MAX_ORDER:
        return [(a, b, order)]
    # past one panel the origin panel's weight counts where it raises the bound
    ln_weight = max(0.0, -math.log1p(2.0 * alpha)) if a == 0.0 or b == 0.0 else 0.0
    count = 1
    while _ellipse_order(0.5 * (b - a) / count, math.inf, ln_weight) >= _MAX_ORDER:
        count += 1
        if 4 * count > _MAX_NODES:
            raise _too_many_nodes(4 * count)
    breaks = [a + (b - a) * i / count for i in range(count)] + [b]
    return [(lo, hi, _panel_order(lo, hi, alpha)) for lo, hi in zip(breaks, breaks[1:])]


def build_grid(config: Configuration, alpha: float):
    """Nystrom nodes and weights over the scaled intervals of a configuration.

    Each interval is cut into the fewest equal panels at which the ellipse
    rule (see _panel_order), without its cap at the origin, stays below
    quadrules' largest order, so the rule sets the panel count as well as
    each panel's order (see _panels). Each panel takes the nodes the rule
    gives it, which depend only on the panel's own interval and alpha.
    Returns ``(nodes, weights)``, two lists of 1-d arrays, one pair per
    panel: the panels in increasing order, each panel's nodes strictly
    inside it; a panel too short for its nodes to fall strictly inside it
    gets none.
    Panels never straddle an interval endpoint or the origin. The two
    panels touching the origin carry the kernel's |x|^{2 alpha} density
    singularity in the weight: their nodes are the Gauss-Jacobi rule for
    |x|^{2 alpha}, and their Nystrom weights are that rule's weights times
    |x|^{-2 alpha}, so the quadrature acts on an analytic integrand. Every
    other panel is Gauss-Legendre, the same rule at exponent 0; at
    alpha = 0 the two rules coincide.
    A grid of more than _MAX_NODES nodes raises RegimeError before any
    node is laid.
    """
    if config.t == 0.0:
        raise DomainError("build_grid: domain is empty at t = 0")
    edges = config.scaled_endpoints()
    panels = [panel for k in range(config.n) for panel in _panels(edges[k], edges[k + 1], alpha)]
    if (count := sum(q for _, _, q in panels)) > _MAX_NODES:
        raise _too_many_nodes(count)
    nodes, weights = [], []
    for lo, hi, q in panels:
        h = hi - lo
        if lo == 0.0 or hi == 0.0:
            xj, wj = gauss_jacobi(q, 2.0 * alpha)
            wj = wj * xj ** (-2.0 * alpha)
            xs, ws = (h * xj, h * wj) if lo == 0.0 else (-h * xj[::-1], h * wj[::-1])
        else:
            xg, wg = gauss_jacobi(q, 0.0)
            xs, ws = lo + h * xg, h * wg
        if lo < xs[0] and xs[-1] < hi:
            nodes.append(xs)
            weights.append(ws)
    return nodes, weights


def _operator(params: KernelParams, config: Configuration):
    """The nodes of ``build_grid(config, params.alpha)``, flattened,
    and the symmetric Nystrom matrix B = D K D on them, D = diag(sqrt(w
    sigma)).

    B has the same determinant of I - (.) and the same traces as the
    column-scaled matrix w_j sigma(x_j) K(x_i, x_j), and sigma = 0 zeroes a
    row and column of both."""
    # the leading empty array serves a grid without panels: an interval
    # too short for its nodes to fall strictly inside it (t near 5e-324)
    # gets none
    nodes, weights = (np.concatenate((np.empty(0), *part))
                      for part in build_grid(config, params.alpha))
    b = chf_kernel_matrix(params, nodes)
    d = np.sqrt(weights * sigma_step(config, nodes))
    b *= d[:, None]
    b *= d[None, :]
    return nodes, b


def log_det(params: KernelParams, config: Configuration) -> float:
    """ln det(I - K_sigma) by dense real LU of the symmetric Nystrom matrix
    on ``build_grid(config, params.alpha)``: each panel at the order of the
    ellipse rule.

    Over 400 seeded random points (alpha in [-0.45, 1.5], |beta_im| <= 0.7,
    1-3 intervals, t in [0.5, 100], weights below 1; tests/test_fredholm.py)
    the value at the rule's orders stays within 1.7e-15 of 40 nodes per
    panel on equal panels at most 12 wide, relative to max(1, |value|). At
    a hard gap (weight 1) rounding in I - B is amplified by its inverse: on
    the sine gap the value is off from Dyson's expansion by 1.7e-3 at
    t = 16 and by about 0.1 at t = 18 (it moves with rounding), and raises
    at t = 20 (sign -1); nothing gates this yet (ROADMAP.md, item 1). With
    weights in [0, 1] the determinant is a gap probability of a thinned
    process and so positive; a determinant that is not positive and finite
    raises NonConvergenceError.
    """
    if config.t == 0.0 or all(g == 0.0 for g in config.gamma):
        return 0.0
    _, b = _operator(params, config)
    # I - B in place: -b, then 1 added on the diagonal
    np.negative(b, out=b)
    b.flat[:: b.shape[0] + 1] += 1.0
    sign, logabs = np.linalg.slogdet(b)
    if sign <= 0.0 or not np.isfinite(logabs):
        raise NonConvergenceError(
            f"log_det: det(I - B) is not positive and finite (sign {sign}, log {logabs})"
        )
    return float(logabs)
