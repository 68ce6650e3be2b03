"""Gauss-Jacobi quadrature rules on [0, 1], computed from scratch and cached.

Rules for the weight x^c on [0, 1] start from the Golub-Welsch
eigenvalues of the Jacobi matrix of that weight (Golub and Welsch, Math.
Comp. 23, 1969). Two Newton steps on the orthonormal three-term recurrence
polish the nodes, and the weights are the Christoffel numbers
1 / sum_k p_k(x_i)^2 of the same recurrence. The recurrence is centred at
x = 1/2, so in double precision x - a_k drops the low bits of the nodes
near 0 (at exponent -0.9, order 60, nodes erred by 2.8e-12 relative); the
Newton steps and the sums therefore run in np.longdouble, with the
recurrence formed at a long-double exponent. With the 80-bit x87 long
double of x86-64 Linux every node and weight is then within 7.0e-16
relative of 50-digit mpmath at orders 17-120 and exponents -0.9, 0 and 3,
and at order 512 within 2.9e-14 (nodes) and 5.9e-15 (weights); the
eigenvalues stay in double, since they only start Newton. aarch64 Linux
has a wider long double still (software binary128, whose cost is not
measured). Where long double is plain binary64 (macOS on Apple silicon,
Windows) the rules keep the double recurrence's error near 0, up to
9.8e-11 relative at exponent -0.9 and order 512, and the tests whose
bounds need more fail naming the cause (tests/conftest.py).
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
    k = np.arange(1, n + 1, dtype=np.result_type(c, float))
    s = 2.0 * k + c
    diag = np.concatenate(([c / (c + 2.0)], c * c / (s[:-1] * (s[:-1] + 2.0))))
    off = 2.0 * k * (k + c) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    return 0.5 * (1.0 + diag), 0.5 * off


def _orthonormal_sweep(x, diag, off, c):
    """p_n(x) and p_n'(x) of the orthonormal polynomials of the weight x^c on
    [0, 1], and sum_{k<n} p_k(x)^2, by the three-term recurrence."""
    p_prev, p = np.zeros_like(x), np.full_like(x, np.sqrt(c + 1.0))
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
    c = np.longdouble(exponent)
    diag, off = _jacobi_matrix(order, c)
    a, b = diag.astype(float), off[:-1].astype(float)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1)).astype(np.longdouble)
    for _ in range(2):
        p, dp, _ = _orthonormal_sweep(x, diag, off, c)
        x = x - p / dp
    _, _, total = _orthonormal_sweep(x, diag, off, c)
    x, w = x.astype(float), (1.0 / total).astype(float)
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
