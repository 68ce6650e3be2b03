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

from .errors import DomainError, NonConvergenceError
from .kernel import Configuration, KernelParams, chf_kernel_matrix, sigma_step
from .quadrules import gauss_jacobi

__all__ = [
    "build_grid",
    "log_det",
]

# Nodes per panel, and the widest panel in scaled units. On each panel the
# integrand is entire of exponential type (e^{+-ix} times Kummer functions),
# so the error drops to rounding level once the panel is narrow enough for
# the rule: at 24 nodes, log_det stays at rounding level up to width 24 and
# is off by 2e-8 at width 32; PANEL_WIDTH keeps a factor 2 from that edge.
# With these, log_det agrees with 40 nodes per panel to 2e-12 or better
# (1e-14 relative) for alpha in [-0.45, 1.5], |beta_im| up to 0.7, 1-3
# intervals and t up to 100, all with weights below 1. At a hard gap
# (weight 1) rounding in I - B is amplified by its inverse: on the sine gap
# log_det is off from Dyson's expansion by 1.7e-3 at t = 16 and raises at
# t = 20 (sign -1), and nothing gates this yet (ROADMAP.md, item 1).
PANEL_ORDER = 24
PANEL_WIDTH = 12.0


def build_grid(config: Configuration, alpha: float, order_per_panel: int = PANEL_ORDER):
    """Nystrom nodes and weights over the scaled intervals of a configuration.

    Each interval is cut into ceil(length / PANEL_WIDTH) equal panels of
    ``order_per_panel`` nodes. Returns ``(nodes, weights)``, two arrays of
    shape (panels, order_per_panel): one row per panel, the panels in
    increasing order, each row's nodes strictly inside its panel. Panels
    never straddle an interval endpoint or the origin. The two panels
    touching the origin carry the kernel's |x|^{2 alpha} density singularity
    in the weight: their nodes are the Gauss-Jacobi rule for |x|^{2 alpha},
    and their Nystrom weights are that rule's weights times |x|^{-2 alpha},
    so the quadrature acts on an analytic integrand. Every other panel is
    Gauss-Legendre, the same rule at exponent 0; at alpha = 0 the two rules
    coincide.
    """
    order_per_panel = int(order_per_panel)
    if order_per_panel < 4:
        raise DomainError("build_grid: order_per_panel must be >= 4")
    if config.t == 0.0:
        raise DomainError("build_grid: domain is empty at t = 0")
    edges = config.scaled_endpoints()
    xg, wg = gauss_jacobi(order_per_panel, 0.0)
    xj, wj = gauss_jacobi(order_per_panel, 2.0 * alpha)
    wj = wj * xj ** (-2.0 * alpha)
    nodes, weights = [], []
    for k in range(config.n):
        a, b = edges[k], edges[k + 1]
        count = math.ceil((b - a) / PANEL_WIDTH)
        breaks = [a + (b - a) * i / count for i in range(count)] + [b]
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            h = hi - lo
            if lo == 0.0:
                xs, ws = h * xj, h * wj
            elif hi == 0.0:
                xs, ws = -h * xj[::-1], h * wj[::-1]
            else:
                xs, ws = lo + h * xg, h * wg
            nodes.append(xs)
            weights.append(ws)
    return np.array(nodes), np.array(weights)


def _operator(params: KernelParams, config: Configuration, order: int):
    """The nodes of ``build_grid(config, params.alpha, order)``, flattened,
    and the symmetric Nystrom matrix B = D K D on them, D = diag(sqrt(w
    sigma)).

    B has the same determinant of I - (.) and the same traces as the
    column-scaled matrix w_j sigma(x_j) K(x_i, x_j), and sigma = 0 zeroes a
    row and column of both."""
    nodes, weights = build_grid(config, params.alpha, order)
    nodes, weights = nodes.ravel(), weights.ravel()
    kmat = chf_kernel_matrix(params, nodes)
    d = np.sqrt(weights * sigma_step(config, nodes))
    return nodes, (d[:, None] * kmat) * d[None, :]


def log_det(params: KernelParams, config: Configuration, order: int = PANEL_ORDER) -> float:
    """ln det(I - K_sigma) by dense real LU of the symmetric Nystrom matrix
    on ``build_grid(config, params.alpha, order)``, ``order`` nodes per
    panel.

    At the default order the value agrees with a finer order on the same
    panels to about 1e-12 for weights below 1, alpha in [-0.45, 1.5] and t
    up to 100 (near a hard gap it can be far off; see PANEL_WIDTH). With
    weights in [0, 1] the determinant is a gap probability of a thinned
    process and so positive; a determinant that is not positive and finite
    raises NonConvergenceError.
    """
    if config.t == 0.0 or all(g == 0.0 for g in config.gamma):
        return 0.0
    _, b = _operator(params, config, order)
    sign, logabs = np.linalg.slogdet(np.eye(b.shape[0]) - b)
    if sign <= 0.0 or not np.isfinite(logabs):
        raise NonConvergenceError(
            f"log_det: det(I - B) is not positive and finite (sign {sign}, log {logabs})"
        )
    return float(logabs)
