"""Confluent hypergeometric kernel, its diagonal, and reference kernels.

The kernel drives a determinantal point process on the real line with a
root-type singularity |2x|^{2 alpha} and a jump singularity at the origin
parametrized by a purely imaginary beta. It is assembled from the building
block

    A(x) = chi^{1/2}(x) |2x|^alpha e^{-ix} phi(1+alpha+beta, 1+2 alpha, 2ix),

its complex conjugate B, and a gamma-function prefactor. For alpha = beta = 0
it degenerates to the sine kernel and for beta = 0 to a Bessel-type kernel;
both reductions are implemented here independently (own series, no shared
code path) so they can serve as cross-checking oracles.

With beta imaginary, B is the conjugate of A, so the numerator
A(x) B(y) - A(y) B(x) is 2i Im(A(x) conj A(y)) and the kernel is real by
construction apart from one scalar: the gamma-function prefactor, which is
real only because log_gamma respects complex conjugation. Its realness is
asserted there, once, and the kernel is then assembled in real arithmetic.
The Bessel reduction continues its powers into the complex plane and
asserts the realness of every value instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .specialfn import _kummer_pair, bessel_j, kummer_phi, log_gamma
from .specialfn import kummer_phi_prime  # noqa: F401  (perfbench/tracing.py wraps kernel.kummer_phi_prime by name)

__all__ = [
    "KernelParams",
    "Configuration",
    "cap_A",
    "cap_B",
    "chf_kernel",
    "chf_kernel_diagonal",
    "sigma_step",
    "sine_kernel",
    "bessel_kernel",
]

# below this separation the diagonal/midpoint form replaces the divided
# difference, which loses about |x-y|^{-1} in relative accuracy
_DIAG_THRESHOLD = 1e-6


@dataclass(frozen=True)
class KernelParams:
    """Kernel parameters: real singularity exponent and imaginary jump exponent.

    ``alpha`` must exceed -1/2; ``beta_im`` is the imaginary part of the jump
    exponent (the exponent itself, ``beta``, is i*beta_im, so beta is always
    purely imaginary and the kernel is real-valued).
    """

    alpha: float
    beta_im: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta_im", float(self.beta_im))
        if not self.alpha > -0.5:
            raise DomainError(f"KernelParams: alpha must be > -1/2, got {self.alpha}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta_im)):
            raise DomainError("KernelParams: parameters must be finite")

    @property
    def beta(self) -> complex:
        return 1j * self.beta_im


@dataclass(frozen=True)
class Configuration:
    """Multi-interval domain description: scaled endpoints and weights.

    ``r`` is the strictly increasing tuple of n+1 interval endpoints, exactly
    one of which is 0 (its index is ``m``); the operator acts on the union of
    (r_k t, r_{k+1} t) with weight ``gamma[k]`` on the k-th interval. t = 0
    is accepted as the degenerate empty domain (the determinant is then 1);
    operations that need a genuine domain reject it themselves.

    Weights must lie in [0, 1]: values below 1 describe the thinned process
    and 1 a hard gap. Consumers that need weights strictly below 1 (the
    parameter maps, the flow initialization) enforce it themselves.
    """

    r: tuple
    gamma: tuple
    t: float
    m: int = None

    def __post_init__(self):
        r = tuple(float(v) for v in self.r)
        gamma = tuple(float(v) for v in self.gamma)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "t", float(self.t))
        if len(r) < 2:
            raise DomainError("Configuration: need at least two endpoints")
        if len(gamma) != len(r) - 1:
            raise DomainError(
                f"Configuration: got {len(gamma)} weights for {len(r) - 1} intervals"
            )
        if any(b <= a for a, b in zip(r[:-1], r[1:])):
            raise DomainError(f"Configuration: endpoints must be strictly increasing, got {r}")
        zeros = [k for k, v in enumerate(r) if v == 0.0]
        if len(zeros) != 1:
            raise DomainError("Configuration: exactly one endpoint must be 0")
        if self.m is None:
            object.__setattr__(self, "m", zeros[0])
        elif self.m != zeros[0]:
            raise DomainError(f"Configuration: m={self.m} but the zero endpoint is at {zeros[0]}")
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise DomainError(f"Configuration: t must be nonnegative and finite, got {self.t}")
        if not all(0.0 <= g <= 1.0 for g in gamma):
            raise DomainError(f"Configuration: weights must lie in [0, 1], got {gamma}")

    @property
    def n(self) -> int:
        return len(self.gamma)

    @cached_property
    def active_indices(self) -> tuple:
        """Endpoint indices k != m (the indices carrying flow variables);
        computed once, since the flow's vector field reads it on every call."""
        return tuple(k for k in range(len(self.r)) if k != self.m)

    def scaled_endpoints(self) -> tuple:
        return tuple(v * self.t for v in self.r)

    def replace_t(self, t: float) -> "Configuration":
        return Configuration(r=self.r, gamma=self.gamma, t=t)


def _chi_half(params: KernelParams, x):
    """The square root of the jump factor: e^{+beta pi i/2} left of 0,
    e^{-beta pi i/2} right of 0 (real-valued since beta is imaginary)."""
    sign = np.where(np.asarray(x, dtype=float) < 0.0, 1.0, -1.0)
    return np.exp(sign * params.beta * (1j * math.pi / 2.0))


def cap_A(params: KernelParams, x):
    """Kernel building block A(x); scalar or elementwise over arrays.

    A(0) is 0 for alpha > 0 and finite for alpha = 0 (right-limit
    convention for the jump factor); for alpha < 0 the origin diverges and
    raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.ravel(arr)
    if params.alpha < 0.0 and np.any(flat == 0.0):
        raise DomainError("cap_A: x = 0 diverges for alpha < 0")
    a = 1.0 + params.alpha + params.beta
    b = 1.0 + 2.0 * params.alpha
    phi = kummer_phi(a, b, 2j * flat)
    pref = _chi_half(params, flat) * np.abs(2.0 * flat) ** params.alpha * np.exp(-1j * flat)
    out = (pref * phi).reshape(arr.shape)
    if scalar:
        return complex(out[()])
    return out


def cap_B(params: KernelParams, x):
    """Companion block B(x), the complex conjugate of A(x)."""
    return np.conj(cap_A(params, x))


def _cap_A_and_derivative(params: KernelParams, x):
    """A(x) and dA/dx together for x != 0, from one evaluation of phi and phi'."""
    arr = np.asarray(x, dtype=float)
    flat = np.ravel(arr)
    if np.any(flat == 0.0):
        raise DomainError("cap_A derivative: requires x != 0")
    a = 1.0 + params.alpha + params.beta
    b = 1.0 + 2.0 * params.alpha
    base = _chi_half(params, flat) * np.abs(2.0 * flat) ** params.alpha * np.exp(-1j * flat)
    phi, dphi = _kummer_pair(a, b, 2j * flat)
    val = base * phi
    der = val * (params.alpha / flat - 1j) + base * 2j * dphi
    return val.reshape(arr.shape), der.reshape(arr.shape)


def _gamma_prefactor(params: KernelParams) -> float:
    """G = Gamma(1+a+b) Gamma(1+a-b) / Gamma(1+2a)^2, real for imaginary b
    (the two gammas are conjugate); the one place kernel realness is checked."""
    a, bim = params.alpha, params.beta
    value = np.exp(
        log_gamma(1.0 + a + bim) + log_gamma(1.0 + a - bim) - 2.0 * log_gamma(1.0 + 2.0 * a)
    )
    return float(_assert_real(value, "kernel gamma prefactor"))


def _assert_real(value, what: str):
    value = np.asarray(value)
    bad = np.abs(value.imag) > 1e-10 * (1.0 + np.abs(value.real))
    if np.any(bad):
        worst = float(np.max(np.abs(value.imag)))
        raise AssertionError(f"{what}: imaginary residue {worst:.3e} exceeds tolerance")
    return value.real


def _im_cross(u, v):
    """Im(u conj(v)) in real arithmetic, elementwise over broadcast arrays;
    swapping u and v negates the result exactly."""
    return u.imag * v.real - u.real * v.imag


def chf_kernel(params: KernelParams, x, y):
    """Kernel K(x, y); scalar or elementwise over broadcast arrays.

    Evaluated as G/pi Im(A(x) conj A(y)) / (x - y) with the real gamma
    prefactor G. Arguments are sorted elementwise first, so K(x, y) and
    K(y, x) take the identical arithmetic path. Pairs closer than the
    near-diagonal threshold are evaluated by the analytic diagonal form at
    the midpoint (the divided difference would lose one digit per digit of
    separation).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xb, yb = np.broadcast_arrays(xa, ya)
    lo = np.minimum(xb, yb).ravel()
    hi = np.maximum(xb, yb).ravel()
    if params.alpha < 0.0 and (np.any(lo == 0.0) or np.any(hi == 0.0)):
        raise DomainError("chf_kernel: x = 0 diverges for alpha < 0")
    out = np.empty(lo.shape, dtype=float)
    near = np.abs(hi - lo) < _DIAG_THRESHOLD * (1.0 + np.abs(lo))
    if near.any():
        out[near] = chf_kernel_diagonal(params, 0.5 * (lo[near] + hi[near]))
    far = ~near
    if far.any():
        scale = _gamma_prefactor(params) / math.pi
        num = _im_cross(cap_A(params, lo[far]), cap_A(params, hi[far]))
        out[far] = scale * num / (lo[far] - hi[far])
    out = out.reshape(xb.shape)
    if scalar:
        return float(out[()])
    return out


def chf_kernel_diagonal(params: KernelParams, x):
    """Diagonal value K(x, x) = lim_{y -> x} K(x, y), via the derivative form.

    The divided difference degenerates to G/pi Im(A'(x) conj A(x)).
    Positive for x != 0 (it is the one-point density of the process). At
    x = 0 it vanishes like |2x|^{2 alpha} for alpha > 0 and diverges for
    alpha < 0; alpha <= 0 raises DomainError at x = 0.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.ravel(arr)
    out = np.empty(flat.shape, dtype=float)
    zero = flat == 0.0
    if zero.any():
        if params.alpha <= 0.0:
            raise DomainError("chf_kernel_diagonal: x = 0 requires alpha > 0")
        out[zero] = 0.0
    nz = ~zero
    if nz.any():
        val, der = _cap_A_and_derivative(params, flat[nz])
        out[nz] = _gamma_prefactor(params) / math.pi * _im_cross(der, val)
    out = out.reshape(arr.shape)
    if scalar:
        return float(out[()])
    return out


def chf_kernel_matrix(params: KernelParams, x):
    """Dense kernel matrix K(x_i, x_j) over a 1-d node array.

    Identical arithmetic to chf_kernel, but organized around the rank-2
    structure of the numerator: A is evaluated once per node and the matrix
    is assembled from real outer products, so the special-function cost is
    O(N) instead of O(N^2). The diagonal uses the analytic derivative form.
    Numerator and denominator are both antisymmetric to the last bit, so
    the result is exactly symmetric.
    """
    nodes = np.asarray(x, dtype=float)
    if nodes.ndim != 1:
        raise ValueError("chf_kernel_matrix: nodes must be a 1-d array")
    if params.alpha < 0.0 and np.any(nodes == 0.0):
        raise DomainError("chf_kernel_matrix: x = 0 diverges for alpha < 0")
    val, der = _cap_A_and_derivative(params, nodes)
    scale = _gamma_prefactor(params) / math.pi
    dx = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dx, 1.0)
    mat = scale * _im_cross(val[:, None], val[None, :]) / dx
    np.fill_diagonal(mat, scale * _im_cross(der, val))
    return mat


def sigma_step(config: Configuration, x):
    """Step weight function: gamma[k] on [r_k t, r_{k+1} t), 0 outside.

    Half-open interval convention; quadrature nodes never coincide with
    endpoints, so the convention never influences a determinant.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    edges = np.asarray(config.scaled_endpoints())
    idx = np.searchsorted(edges, flat, side="right") - 1
    vals = np.zeros(flat.shape, dtype=float)
    inside = (idx >= 0) & (idx < len(config.gamma))
    vals[inside] = np.asarray(config.gamma)[idx[inside]]
    if scalar:
        return float(vals[0])
    return vals.reshape(arr.shape)


def sine_kernel(x, y):
    """Reference sine kernel sin(x-y)/(pi (x-y)), elementwise, 1/pi on the
    diagonal by continuity."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.sinc((x - y) / math.pi) / math.pi
    if out.ndim == 0:
        return float(out[()])
    return out


def _bessel_j_signed(nu: float, x):
    """J_nu continued to negative arguments from the upper half-plane:
    J_nu(-|x|) = e^{i nu pi} J_nu(|x|). Returns a complex array."""
    x = np.asarray(x, dtype=float)
    mag = bessel_j(nu, np.abs(x))
    phase = np.where(x < 0.0, np.exp(1j * math.pi * nu), 1.0 + 0j)
    return phase * mag


def _sqrt_upper(x):
    """x^{1/2} continued from the upper half-plane: i*sqrt(|x|) for x < 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.0, 1j * np.sqrt(np.abs(x)), np.sqrt(np.maximum(x, 0.0)) + 0j)


def bessel_kernel(alpha: float, x, y):
    """Reference Bessel-type kernel (the beta = 0 reduction), evaluated
    independently of the confluent hypergeometric path.

        |x|^a |y|^a / (x^a y^a) * sqrt(xy)/2
            * [J_{a+1/2}(x) J_{a-1/2}(y) - J_{a-1/2}(x) J_{a+1/2}(y)] / (x - y)

    Power functions of negative arguments are continued from the upper
    half-plane consistently in every factor, which keeps the value real for
    real x, y of either sign. Requires x, y != 0 and x != y.
    """
    alpha = float(alpha)
    if not alpha > -0.5:
        raise DomainError("bessel_kernel: requires alpha > -1/2")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xb, yb = np.broadcast_arrays(xa, ya)
    if np.any(xb == 0.0) or np.any(yb == 0.0):
        raise DomainError("bessel_kernel: requires x, y != 0")
    if np.any(xb == yb):
        raise DomainError("bessel_kernel: requires x != y")
    # |x|^a/x^a = e^{-i a pi} for x < 0 (upper half-plane continuation)
    sign_phase = np.exp(
        -1j * math.pi * alpha * ((xb < 0.0).astype(float) + (yb < 0.0).astype(float))
    )
    jp_x = _bessel_j_signed(alpha + 0.5, xb)
    jm_x = _bessel_j_signed(alpha - 0.5, xb)
    jp_y = _bessel_j_signed(alpha + 0.5, yb)
    jm_y = _bessel_j_signed(alpha - 0.5, yb)
    num = jp_x * jm_y - jm_x * jp_y
    vals = sign_phase * _sqrt_upper(xb) * _sqrt_upper(yb) / 2.0 * num / (xb - yb)
    out = _assert_real(vals, "bessel_kernel")
    if scalar:
        return float(out[()])
    return out
