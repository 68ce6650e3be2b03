"""Reference values computed without the package's code.

Nothing here imports ``chfdet``: the kernel, its special functions, the
quadrature rules and the step weights are evaluated on a path of their own,
so a change to the package's Kummer, log-gamma, kernel or quadrature
arithmetic cannot move a reference along with the output it checks.

The kernel is assembled from its definition,

    A(x) = chi^{1/2}(x) |2x|^alpha e^{-ix} phi(1 + alpha + beta, 1 + 2 alpha, 2ix),
    K(x, y) = G / (2 pi i) (A(x) conj A(y) - A(y) conj A(x)) / (x - y),
    G = Gamma(1 + alpha + beta) Gamma(1 + alpha - beta) / Gamma(1 + 2 alpha)^2,

with phi, phi' and the gamma functions from mpmath at DPS decimal digits.
On the diagonal the divided difference becomes G / (2 pi i) (A' conj A -
A conj A').

The determinant discretizes the operator on a hand-built grid. On each
interval that touches the origin, the unit piece next to 0 is mapped by
x = e s^q with q chosen so that q (2 alpha + 1) is an integer. After the
diagonal similarity that moves |x|^alpha from the kernel into the weights,
the integrand in s is then a polynomial times an entire function, so
Gauss-Legendre (numpy's ``leggauss``) converges geometrically in s.
Everything else is covered by short Gauss-Legendre panels. The matrix is
factored in its balanced, symmetric real form sqrt(w sigma) K sqrt(w sigma).

Counting moments come from the determinantal trace identities on the same
kind of grid (mean = tr B, variance = tr B - tr B^2, covariance of disjoint
sets = -tr(B_1 B_2)), not from finite differences of the determinant.

Every value is computed at two refinements, which must agree to
``SELF_CONVERGENCE``; the finer one is the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

SELF_CONVERGENCE = 1e-10
# (Gauss-Legendre order, largest panel width) of the two refinements
REFINEMENTS = ((20, 5.0), (28, 4.0))
DPS = 20
# the ``moments`` command's radii: statistics on (0, t r1), (-t r1, 0), (0, t r2)
MOMENTS_R = (1.0, 2.0)
MOMENT_NAMES = ("mean_right", "mean_left", "variance", "cov_same_side", "cov_opposite_side")


class ReferenceError(RuntimeError):
    """The two refinements of a reference disagree beyond SELF_CONVERGENCE."""


def power_map_exponent(alpha: float) -> int:
    """Smallest q >= 1 with q (2 alpha + 1) an integer (alpha must be rational
    with a small denominator)."""
    frac = Fraction(2.0 * alpha + 1.0).limit_denominator(64)
    if abs(float(frac) - (2.0 * alpha + 1.0)) > 1e-12:
        raise ValueError(f"no small power-map exponent for alpha={alpha}")
    return frac.denominator


def _gauss(order: int, lo: float, hi: float):
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def reference_nodes(edges, weights, alpha: float, order: int, width: float):
    """Nodes, quadrature weights and step weights over the intervals between
    ``edges`` (scaled endpoints, one of them 0), the k-th interval carrying
    ``weights[k]``."""
    s, ws = _gauss(order, 0.0, 1.0)
    q = power_map_exponent(alpha)
    xs, ws_all, sigmas = [], [], []
    for a, b, g in zip(edges[:-1], edges[1:], weights):
        pieces = []
        if a == 0.0 or b == 0.0:
            far = b if a == 0.0 else a
            sign = math.copysign(1.0, far)
            inner = min(1.0, abs(far))
            pieces.append((sign * inner * s**q, ws * inner * q * s ** (q - 1)))
            lo, hi = (inner, abs(far))
        else:
            sign, lo, hi = 1.0, a, b
        if hi > lo:
            count = max(1, math.ceil((hi - lo) / width))
            breaks = np.linspace(lo, hi, count + 1)
            for lo_p, hi_p in zip(breaks[:-1], breaks[1:]):
                x, w = _gauss(order, lo_p, hi_p)
                pieces.append((sign * x, w))
        for x, w in pieces:
            xs.append(x)
            ws_all.append(w)
            sigmas.append(np.full(len(x), float(g)))
    return np.concatenate(xs), np.concatenate(ws_all), np.concatenate(sigmas)


def kernel_matrix(alpha: float, beta_im: float, x) -> np.ndarray:
    """K(x_i, x_j) over distinct nonzero nodes, from mpmath's phi and gamma."""
    with mpmath.workdps(DPS):
        beta = mpmath.mpc(0.0, beta_im)
        a = 1 + alpha + beta
        b = mpmath.mpf(1 + 2 * alpha)
        gamma_factor = (
            mpmath.gamma(a) * mpmath.gamma(1 + alpha - beta) / mpmath.gamma(b) ** 2
        )
        phi = np.empty(len(x), dtype=complex)
        dphi = np.empty(len(x), dtype=complex)
        for i, xi in enumerate(x):
            z = mpmath.mpc(0.0, 2.0 * float(xi))
            phi[i] = complex(mpmath.hyp1f1(a, b, z))
            dphi[i] = complex(a / b * mpmath.hyp1f1(a + 1, b + 1, z))
        pref = complex(gamma_factor) / (2j * math.pi)
    chi_half = np.exp(np.where(x < 0.0, -1.0, 1.0) * beta_im * math.pi / 2.0)
    base = chi_half * np.abs(2.0 * x) ** alpha * np.exp(-1j * x)
    val = base * phi
    der = val * (alpha / x - 1j) + base * 2j * dphi
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    outer = val[:, None] * np.conj(val)[None, :]
    mat = pref * (outer - np.conj(outer)) / dx
    np.fill_diagonal(mat, pref * (der * np.conj(val) - val * np.conj(der)))
    return mat.real


def _self_converged(values: list, what: str):
    diff = max(abs(a - b) for a, b in zip(values[0], values[1]))
    if not diff <= SELF_CONVERGENCE:
        raise ReferenceError(f"{what}: refinements differ by {diff:.3e}")
    return values[1], diff


def _lnf_once(case, t: float, order: int, width: float) -> float:
    edges = [r * t for r in case["r"]]
    x, w, sigma = reference_nodes(edges, case["gamma"], case["alpha"], order, width)
    d = np.sqrt(w * sigma)
    b = d[:, None] * kernel_matrix(case["alpha"], case["beta_im"], x) * d[None, :]
    sign, logabs = np.linalg.slogdet(np.eye(len(x)) - b)
    if not sign > 0.0:
        raise ReferenceError("reference determinant is not positive")
    return float(logabs)


def reference_lnf(case, t: float):
    """ln det(I - K_sigma) of a case's kernel and intervals at ``t``, and the
    difference between the two refinements."""
    values = [[_lnf_once(case, t, order, width)] for order, width in REFINEMENTS]
    (value,), diff = _self_converged(values, f"lnF of {case['id']} at t={t}")
    return value, diff


def _moments_once(case, order: int, width: float):
    t = case["t"]
    r1, r2 = MOMENTS_R
    edges = (-r2 * t, -r1 * t, 0.0, r1 * t, r2 * t)
    x, w, _ = reference_nodes(edges, (1.0,) * 4, case["alpha"], order, width)
    sw = np.sqrt(w)
    b = sw[:, None] * kernel_matrix(case["alpha"], case["beta_im"], x) * sw[None, :]
    b2 = b * b
    diag = np.diag(b)
    right = ((x > 0.0) & (x < r1 * t)).astype(float)  # (0, t r1)
    left = ((x < 0.0) & (x > -r1 * t)).astype(float)  # (-t r1, 0)
    right_wide = (x > 0.0).astype(float)  # (0, t r2)
    left_wide = (x < 0.0).astype(float)  # (-t r2, 0)
    return (
        float(right @ diag),
        float(left @ diag),
        float(right @ diag - right @ b2 @ right),
        float(right @ diag - right @ b2 @ right_wide),
        float(-(left_wide @ b2 @ right)),
    )


def reference_moments(case):
    """The five statistics of the ``moments`` command, keyed by row name, and
    the largest difference between the two refinements."""
    values = [_moments_once(case, order, width) for order, width in REFINEMENTS]
    finest, diff = _self_converged(values, f"moments of {case['id']}")
    return dict(zip(MOMENT_NAMES, finest)), diff


def case_reference(case) -> dict:
    """Reference value of every output of a case (see cases.outputs_of), and
    the largest difference between refinements as ``self_convergence``."""
    if case["route"] == "moments":
        stats, diff = reference_moments(case)
        values = dict(stats)
        values.update({name + ".asymptotic": v for name, v in stats.items()})
        return {"values": values, "self_convergence": diff}
    lnf, diff = reference_lnf(case, case["t"])
    if case["route"] == "det":
        return {"values": {"lnF": lnf}, "self_convergence": diff}
    large, diff_large = reference_lnf(case, case["t_large"])
    return {
        "values": {"flow_lnF": lnf, "expansion_lnF": large},
        "self_convergence": max(diff, diff_large),
    }
