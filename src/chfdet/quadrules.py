"""Gauss-Jacobi quadrature rules on [0, 1], computed from scratch and cached.

Rules for the weight x^c on [0, 1] start from the Golub-Welsch
eigenvalues of the Jacobi matrix of that weight (Golub and Welsch, Math.
Comp. 23, 1969). Two Newton steps on the orthonormal three-term recurrence
polish the nodes to rounding level, and the weights are the Christoffel
numbers 1 / sum_k p_k(x_i)^2 of the same recurrence.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = ["gauss_jacobi"]

_MAX_ORDER = 512


def _jacobi_matrix(n, c):
    """Diagonal and off-diagonal of the Jacobi matrix of the weight x^c on
    [0, 1]: the Jacobi(0, c) recurrence on [-1, 1], mapped by x = (1 + u)/2.
    The off-diagonal has n entries, one more than the matrix needs, so the
    recurrence can reach degree n."""
    k = np.arange(1, n + 1, dtype=float)
    s = 2.0 * k + c
    diag = np.concatenate(([c / (c + 2.0)], c * c / (s[:-1] * (s[:-1] + 2.0))))
    off = 2.0 * k * (k + c) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    return 0.5 * (1.0 + diag), 0.5 * off


def _orthonormal_sweep(x, diag, off, c):
    """p_n(x) and p_n'(x) of the orthonormal polynomials of the weight x^c on
    [0, 1], and sum_{k<n} p_k(x)^2, by the three-term recurrence."""
    p_prev, p = np.zeros_like(x), np.full_like(x, math.sqrt(c + 1.0))
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    total = p * p
    for k in range(len(diag)):
        back = off[k - 1] if k else 0.0
        p_next = ((x - diag[k]) * p - back * p_prev) / off[k]
        dp_next = (p + (x - diag[k]) * dp - back * dp_prev) / off[k]
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        if k + 1 < len(diag):
            total += p * p
    return p, dp, total


@lru_cache(maxsize=64)
def _gauss_jacobi_cached(order, exponent):
    diag, off = _jacobi_matrix(order, exponent)
    jacobi = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
    x = np.linalg.eigvalsh(jacobi)
    for _ in range(2):
        p, dp, _ = _orthonormal_sweep(x, diag, off, exponent)
        x = x - p / dp
    _, _, total = _orthonormal_sweep(x, diag, off, exponent)
    w = 1.0 / total
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_jacobi(order, exponent):
    """Nodes and weights of the ``order``-point Gauss rule on [0, 1] for the
    weight x^exponent: sum_i w_i f(x_i) = int_0^1 f(x) x^exponent dx for
    every polynomial f of degree below 2 * order.

    ``exponent`` must exceed -1; exponent 0 gives the Gauss-Legendre rule.
    Returns read-only arrays (cached per order and exponent); callers must
    copy before mutating. Orders from 1 through 512 are supported; any other
    order, or an exponent outside the domain, raises DomainError.
    """
    if not 1 <= int(order) <= _MAX_ORDER or int(order) != order:
        raise DomainError(f"gauss_jacobi: order must be an integer in [1, {_MAX_ORDER}]")
    exponent = float(exponent)
    if not (exponent > -1.0 and math.isfinite(exponent)):
        raise DomainError(f"gauss_jacobi: exponent must be a finite number > -1, got {exponent}")
    return _gauss_jacobi_cached(int(order), exponent)
