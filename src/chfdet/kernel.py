"""Confluent hypergeometric kernel, its diagonal, and its dense matrix.

The kernel drives a determinantal point process on the real line with a
root-type singularity |2x|^{2 alpha} and a jump singularity at the origin
parametrized by a purely imaginary beta. It is assembled from the building
block

    A(x) = chi^{1/2}(x) |2x|^alpha e^{-ix} phi(1+alpha+beta, 1+2 alpha, 2ix),

its complex conjugate B, and a gamma-function prefactor. For alpha = beta = 0
it degenerates to the sine kernel and for beta = 0 to a Bessel-type kernel;
the tests check both reductions against numpy's sinc and scipy's Bessel J.

With beta imaginary, B is the conjugate of A, so the numerator
A(x) B(y) - A(y) B(x) is 2i Im(A(x) conj A(y)), the two gammas of the
prefactor's numerator are conjugate as well, and the kernel is real by
construction: it is assembled in real arithmetic throughout.

The diagonal K(x, x) = G/pi Im(A'(x) conj A(x)) is the one-point density of
the process. With A = c e^{-ix} phi(2ix) and c = chi^{1/2}(x) |2x|^alpha
real, it is taken in closed form from phi and phi',

    K(x, x) = G/pi c^2 (2 Re(phi' conj phi) - |phi|^2),

since the c' term of A' is a real multiple of A and drops out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .specialfn import _kummer_pair, log_gamma
from .specialfn import kummer_phi, kummer_phi_prime  # noqa: F401  (perfbench/tracing.py wraps both in kernel by name)

__all__ = [
    "KernelParams",
    "Configuration",
    "cap_A",
    "chf_kernel",
    "chf_kernel_diagonal",
    "chf_kernel_matrix",
    "sigma_step",
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
    (r_k t, r_{k+1} t) with weight ``gamma[k]`` on the k-th interval. Every
    r_k and every scaled endpoint r_k t must be finite. t = 0 is accepted as
    the degenerate empty domain (the determinant is then 1); operations that
    need a genuine domain reject it themselves.

    Weights must lie in [0, 1]: values below 1 describe the thinned process
    and 1 a hard gap. Consumers that need weights strictly below 1 (the
    parameter maps, the flow initialization) enforce it themselves.
    """

    r: tuple
    gamma: tuple
    t: float

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
        if r.count(0.0) != 1:
            raise DomainError("Configuration: exactly one endpoint must be 0")
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise DomainError(f"Configuration: t must be nonnegative and finite, got {self.t}")
        if not all(math.isfinite(v) and math.isfinite(v * self.t) for v in r):
            raise DomainError(f"Configuration: r_k and r_k t must be finite, got r = {r} at t = {self.t}")
        if not all(0.0 <= g <= 1.0 for g in gamma):
            raise DomainError(f"Configuration: weights must lie in [0, 1], got {gamma}")

    @property
    def n(self) -> int:
        return len(self.gamma)

    @cached_property
    def m(self) -> int:
        """Index of the zero endpoint."""
        return self.r.index(0.0)

    @cached_property
    def active_indices(self) -> tuple:
        """Endpoint indices k != m (the indices carrying flow variables), in
        increasing order."""
        return tuple(k for k in range(len(self.r)) if k != self.m)

    def scaled_endpoints(self) -> tuple:
        return tuple(v * self.t for v in self.r)

    def replace_t(self, t: float) -> "Configuration":
        return Configuration(r=self.r, gamma=self.gamma, t=t)


def cap_A(params: KernelParams, x):
    """Kernel building block A(x); scalar or elementwise over arrays.

    A(0) is 0 for alpha > 0 and finite for alpha = 0 (right-limit
    convention for the jump factor); for alpha < 0 the origin diverges and
    raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    val = _cap_A_and_density(params, np.ravel(arr))[0].reshape(arr.shape)
    if arr.ndim == 0:
        return complex(val[()])
    return val


def _cap_A_and_density(params: KernelParams, x):
    """A(x) and Im(A'(x) conj A(x)) over a 1-d array, from one evaluation of
    phi and phi'.

    With A = c e^{-ix} phi(2ix) and c = chi^{1/2} |2x|^alpha real, the c'
    term of A' is a real multiple of A and the -i term gives -c^2 |phi|^2,
    so Im(A' conj A) = c^2 (2 Re(phi' conj phi) - |phi|^2). It is 0 at
    x = 0 for alpha > 0. For alpha < 0, x = 0 raises DomainError.
    """
    if params.alpha < 0.0 and np.any(x == 0.0):
        raise DomainError("cap_A: x = 0 diverges for alpha < 0")
    # chi^{1/2} = e^{-+ beta_im pi/2} left/right of 0, real since beta is imaginary
    c = np.exp(np.where(x < 0.0, -0.5, 0.5) * (math.pi * params.beta_im)) * np.abs(2.0 * x) ** params.alpha
    phi, dphi = _kummer_pair(1.0 + params.alpha + params.beta, 1.0 + 2.0 * params.alpha, 2j * x)
    val = c * np.exp(-1j * x) * phi
    cross = dphi.real * phi.real + dphi.imag * phi.imag
    return val, c * c * (2.0 * cross - (phi.real * phi.real + phi.imag * phi.imag))


def _gamma_prefactor(params: KernelParams) -> float:
    """G = Gamma(1+a+b) Gamma(1+a-b) / Gamma(1+2a)^2 for imaginary b. The two
    numerator gammas are conjugate, so ln G = 2 Re log_gamma(1+a+b)
    - 2 Re log_gamma(1+2a), real by construction."""
    a = params.alpha
    lg_ab, lg_2a = log_gamma([1.0 + a + params.beta, 1.0 + 2.0 * a]).tolist()
    return math.exp(2.0 * (lg_ab.real - lg_2a.real))


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
    separation). One evaluation of phi and phi' covers both ends of every
    far pair and the midpoint of every near pair.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xb, yb = np.broadcast_arrays(xa, ya)
    lo = np.minimum(xb, yb).ravel()
    hi = np.maximum(xb, yb).ravel()
    if params.alpha < 0.0 and (np.any(lo == 0.0) or np.any(hi == 0.0)):
        raise DomainError("chf_kernel: x = 0 diverges for alpha < 0")
    near = np.abs(hi - lo) < _DIAG_THRESHOLD * (1.0 + np.abs(lo))
    far = ~near
    mid = 0.5 * (lo[near] + hi[near])
    if params.alpha <= 0.0 and np.any(mid == 0.0):
        raise DomainError("chf_kernel_diagonal: x = 0 requires alpha > 0")
    lo_far, hi_far = lo[far], hi[far]
    nfar = lo_far.size
    val, density = _cap_A_and_density(params, np.concatenate([lo_far, hi_far, mid]))
    scale = _gamma_prefactor(params) / math.pi
    out = np.empty(lo.shape, dtype=float)
    out[near] = scale * density[2 * nfar :]
    out[far] = scale * _im_cross(val[:nfar], val[nfar : 2 * nfar]) / (lo_far - hi_far)
    out = out.reshape(xb.shape)
    if scalar:
        return float(out[()])
    return out


def chf_kernel_diagonal(params: KernelParams, x):
    """Diagonal value K(x, x), the one-point density of the process:
    chf_kernel(x, x), in the closed form G/pi c^2 (2 Re(phi' conj phi) -
    |phi|^2) with c = chi^{1/2} |2x|^alpha and phi, phi' at 2ix. At x = 0 it
    vanishes like |2x|^{2 alpha} for alpha > 0; alpha <= 0 raises DomainError.
    """
    return chf_kernel(params, x, x)


def chf_kernel_matrix(params: KernelParams, x):
    """Dense kernel matrix K(x_i, x_j) over a 1-d node array.

    Identical arithmetic to chf_kernel, but organized around the rank-2
    structure of the numerator: A is evaluated once per node and the matrix
    is assembled from real outer products, so the special-function cost is
    O(N) instead of O(N^2). The diagonal is the closed form of
    chf_kernel_diagonal, G/pi c^2 (2 Re(phi' conj phi) - |phi|^2), from the
    same phi and phi' as A. Numerator and denominator are both antisymmetric
    to the last bit, so the result is exactly symmetric.
    """
    nodes = np.asarray(x, dtype=float)
    if nodes.ndim != 1:
        raise ValueError("chf_kernel_matrix: nodes must be a 1-d array")
    val, density = _cap_A_and_density(params, nodes)
    scale = _gamma_prefactor(params) / math.pi
    # _im_cross(val[:, None], val[None, :]) times scale over x_i - x_j, in
    # one buffer and one scratch array
    mat = np.multiply.outer(val.imag, val.real)
    scratch = np.multiply.outer(val.real, val.imag)
    mat -= scratch
    mat *= scale
    dx = np.subtract.outer(nodes, nodes, out=scratch)
    np.fill_diagonal(dx, 1.0)
    mat /= dx
    np.fill_diagonal(mat, scale * density)
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
