"""Coupled Painleve V system driving the log-determinant.

The state couples one (u_k, v_k) pair per interval endpoint away from the
origin with two auxiliary logarithms and the running integral of the
Hamiltonian, which equals ln det(I - K_sigma) at the current time; all of
it is one packed complex vector, which the integrator steps directly. The
flow runs in s = ln t on U_k = u_k t^{-2 alpha} and V_k = (v_k - 1)/t,
which tend to constants as t -> 0 for every alpha, so every flow starts at
t = e^S0 (seeding error O(t^{1 + 2 alpha}), 4e-18 at alpha = -0.45). At
tol 1e-9 it then meets ``log_det`` to 2.2e-9 at t = 5 and 5e-8 at t = 60
for alpha in [-0.45, 1.5] over 1-3 intervals. The module provides the
vector field, the Hamiltonian, small-t initialization, an adaptive embedded
Runge-Kutta integrator with step-size control, identity monitors based on
numerical differentiation of the trajectory at t >= 0.1/max|r_k|, and the
closed-form large-t predictions used for envelope comparisons.

``log_d`` stores the alpha-regularized logarithm ln(d / (2 alpha)): the
scalar d carries an overall factor 2 alpha and vanishes identically at
alpha = 0, while ln(d / (2 alpha)) obeys the same differential equation
(the offset is a t-independent constant) and stays finite for every
admissible alpha.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import b_from_gamma, c_from_gamma, small_t_lnF
from .errors import DomainError, NonConvergenceError
from .kernel import Configuration, KernelParams
from .specialfn import log_gamma

__all__ = [
    "CPVState",
    "IdentityReport",
    "LargeTPrediction",
    "cpv_rhs",
    "hamiltonian",
    "pv5_weighted_hamiltonian",
    "cpv_init",
    "cpv_integrate",
    "verify_identities",
    "cpv_large_t_prediction",
]

S0 = -400.0  # seed time ln t of every flow
_DEFAULT_T_MATCH = 15.0


@dataclass(frozen=True, eq=False)
class CPVState:
    """Flow state at time t of a flow seeded for the exponent ``alpha``,
    packed as y = (U_1..U_n, V_1..V_n, log y, log d, ln F) with
    U_i = u_i t^{-2 alpha} and V_i = (v_i - 1)/t for the endpoint
    ``indices[i]`` (the configuration's ``active_indices``). ``y`` is kept as
    a read-only complex copy; ``u`` and ``v`` return the physical values, and
    ``log_y``, ``log_d`` and ``lnF`` are views of it."""

    t: float
    indices: tuple
    y: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise DomainError("CPVState: requires finite t > 0")
        y = np.array(self.y, dtype=complex)
        if y.shape != (2 * len(self.indices) + 3,):
            raise DomainError("CPVState: y must hold 2 * len(indices) + 3 entries")
        y.flags.writeable = False
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "y", y)

    @property
    def u(self) -> np.ndarray:
        return self.y[: len(self.indices)] * self.t ** (2.0 * self.alpha)

    @property
    def v(self) -> np.ndarray:
        return 1.0 + self.t * self.y[len(self.indices) : -3]

    @property
    def log_y(self) -> complex:
        return complex(self.y[-3])

    @property
    def log_d(self) -> complex:
        return complex(self.y[-2])

    @property
    def lnF(self) -> complex:
        return complex(self.y[-1])

    def d_scalars(self, params: KernelParams) -> tuple:
        """The pair (d1, d2) = (alpha + beta - S2, alpha - beta - S3)."""
        n = len(self.indices)
        e = self.t ** (1.0 + 2.0 * self.alpha)
        _, s2, s3 = _moment_sums(self.y[:n].tolist(), self.y[n : 2 * n].tolist(), self.t, e)
        a, b = params.alpha, params.beta
        return (a + b - s2, a - b - s3)


def _moment_sums(uu: list, vv: list, t: float, e: float) -> tuple:
    """(S1, S2, S3) = sum_k u_k (v_k - 1) * ((v_k - 1), 1, v_k) from the
    rescaled U, V at time t with e = t^(1 + 2 alpha): S2 = e sum U V,
    S1 = e t sum U V^2 and S3 = S1 + S2."""
    p = q = 0j
    for u_k, v_k in zip(uu, vv):
        w = u_k * v_k
        p += w
        q += w * v_k
    s1, s2 = e * t * q, e * p
    return s1, s2, s1 + s2


def pv5_weighted_hamiltonian(u: complex, v: complex, s: complex, alpha: float, beta: complex) -> complex:
    """The product s * H_V(u, v, s; alpha, beta) of the single Painleve V
    Hamiltonian: -s u v - alpha u (v^2 - 1) - beta u (v - 1)^2 + u^2 v (v - 1)^2."""
    return (
        -s * u * v
        - alpha * u * (v * v - 1.0)
        - beta * u * (v - 1.0) ** 2
        + u * u * v * (v - 1.0) ** 2
    )


def cpv_rhs(s: float, y: np.ndarray, params: KernelParams, config: Configuration) -> np.ndarray:
    """dy/ds at s = ln t for the packed state y (layout of ``CPVState.y``):
    the coupled Painleve V field, the auxiliary logarithms, and
    d(lnF)/ds = t H.

    t H is the sum of the ``pv5_weighted_hamiltonian`` terms at
    s_k = -2 i t r_k plus the pair coupling
    (1/2) sum_{j != k} u_j u_k (v_j + v_k)(v_j - 1)(v_k - 1)
    = S2 S3 - sum_k u_k^2 v_k (v_k - 1)^2, whose diagonal sum cancels the
    u^2 v (v - 1)^2 terms, so t H = 2 i t sum_k r_k u_k v_k
    - alpha (S2 + S3) - beta S1 + S2 S3. In U = u t^{-2 alpha} and
    V = (v - 1)/t, with E = t^(1 + 2 alpha) and d1 = alpha + beta - S2:
    dU/ds = U (2 v d1 - 2 i t r - S1 - 2 beta - 2 alpha) and
    dV/ds = 2 i r + V (2 i t r + S1 + 2 S2 - 2 alpha - 1)
    + t V^2 (S2 - alpha - beta), where the O(1) part of t dv/dt cancels
    algebraically."""
    a, b = params.alpha, params.beta
    t = math.exp(s)
    e = t ** (1.0 + 2.0 * a)
    r = [config.r[k] for k in config.active_indices]
    n = len(r)
    vals = y.tolist()
    uu, vv = vals[:n], vals[n : 2 * n]
    s1, s2, s3 = _moment_sums(uu, vv, t, e)
    c_u = 2.0 * (a + b - s2)
    c_v = s1 + 2.0 * s2 - 2.0 * a - 1.0
    c_vv = t * (s2 - a - b)
    du = []
    dv = []
    ruv = 0j
    for r_k, u_k, v_k in zip(r, uu, vv):
        phase = 2.0j * t * r_k
        v_phys = 1.0 + t * v_k
        du.append(u_k * (v_phys * c_u - phase - s1 - 2.0 * b - 2.0 * a))
        dv.append(2.0j * r_k + v_k * (phase + c_v + v_k * c_vv))
        ruv += r_k * u_k * v_phys
    th = 2.0j * e * ruv + s2 * s3 - a * (s2 + s3) - b * s1
    return np.array(du + dv + [2.0 * b + s1, 2.0 * a - s2 - s3, th])


def _rates(state: CPVState, params: KernelParams, config: Configuration, caller: str) -> np.ndarray:
    """``cpv_rhs`` at the state, once the state is known to belong to params
    and config."""
    if state.indices != config.active_indices or state.alpha != params.alpha:
        raise DomainError(f"{caller}: state index set or alpha does not match the flow")
    return cpv_rhs(math.log(state.t), state.y, params, config)


def hamiltonian(state: CPVState, params: KernelParams, config: Configuration) -> complex:
    """H(t) = d(lnF)/dt at the state (the last entry of ``cpv_rhs`` over t)."""
    return complex(_rates(state, params, config, "hamiltonian")[-1]) / state.t


def cpv_init(params: KernelParams, config: Configuration) -> CPVState:
    """Small-t state at t = e^S0, for every alpha: U_k from the connection
    coefficients, V_k = 2 i r_k / (1 + 2 alpha) (the fixed point of the
    leading V equation), log y and log d from their small-t closed forms, and
    lnF seeded with the integrated leading Hamiltonian term."""
    a, b = params.alpha, params.beta
    cs = c_from_gamma(config, params)  # raises for any weight at 1
    gamma_ratio = cmath.exp(
        log_gamma(1.0 + a - b) + log_gamma(1.0 + a + b) - 2.0 * log_gamma(1.0 + 2.0 * a)
    )
    indices = config.active_indices
    u = []
    v = []
    for k in indices:
        r_k = config.r[k]
        u.append(math.copysign(1.0, r_k) * cs[k] * gamma_ratio * (2.0 * abs(r_k)) ** (2.0 * a))
        v.append(2.0j * r_k / (1.0 + 2.0 * a))
    log_2t0 = math.log(2.0) + S0
    log_y = (
        log_gamma(1.0 + a - b)
        - log_gamma(1.0 + a + b)
        - b * math.pi * 1j
        + 2.0 * b * log_2t0
    )
    log_d = (
        log_gamma(1.0 + a - b)
        + log_gamma(1.0 + a + b)
        - 2.0 * log_gamma(1.0 + 2.0 * a)
        - a * math.pi * 1j
        + 2.0 * a * log_2t0
    )
    t0 = math.exp(S0)
    lnf = complex(small_t_lnF(params, config, t0))
    return CPVState(t=t0, indices=indices, y=u + v + [log_y, log_d, lnf], alpha=a)


# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next step's first).
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


def _max_step(config: Configuration, tol: float) -> float:
    """Step cap in t, 0.1/max|r_k| tightened by tol^(1/6) so that the order-6
    differentiation error of the identity monitors stays proportional to the
    integration tolerance."""
    r_max = max(abs(v) for v in config.r)
    return min(0.1, 0.5 * tol ** (1.0 / 6.0)) / r_max


@np.errstate(invalid="ignore", over="ignore")
def cpv_integrate(
    state0: CPVState,
    params: KernelParams,
    config: Configuration,
    t1: float,
    tol: float = 1e-9,
) -> list:
    """Integrate the augmented system in s = ln t from state0.t to t1 with an
    embedded 5(4) Runge-Kutta pair under PI step control, each step at most
    ``_max_step`` long in t; returns the accepted states (state0 first, a
    state exactly at t1 last). A stage with a non-finite entry fails the
    error test, so its step is rejected and retried at a fifth of the size."""
    t1 = float(t1)
    tol = float(tol)
    if not (1e-12 <= tol <= 1e-4):
        raise DomainError("cpv_integrate: tol must lie in [1e-12, 1e-4]")
    if not t1 > state0.t:
        raise DomainError("cpv_integrate: requires t1 > state0.t")
    k1 = _rates(state0, params, config, "cpv_integrate")
    s, s1, y = math.log(state0.t), math.log(t1), state0.y
    h_max = _max_step(config, tol)
    h = min(0.05, h_max / state0.t, 0.5 * (s1 - s))
    trajectory = [state0]
    err_prev = 1.0
    stages = [None] * 7
    for _ in range(200_000):
        if s >= s1:
            return trajectory
        if h < 1e-13:
            raise NonConvergenceError(
                "cpv_integrate: step size underflow (movable singularity or tolerance too tight)"
            )
        last = s1 - s <= h
        h_step = s1 - s if last else h
        stages[0] = k1
        for i in range(1, 7):
            yi = y + h_step * sum(a_ij * stages[j] for j, a_ij in enumerate(_DP_A[i]))
            stages[i] = cpv_rhs(s + _DP_C[i] * h_step, yi, params, config)
        # the 7th stage argument already equals the 5th-order result
        err_vec = h_step * sum(e_j * stages[j] for j, e_j in enumerate(_DP_E) if e_j != 0.0)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(yi))
        err = math.sqrt(float(np.mean(np.abs(err_vec / scale) ** 2)))
        if err <= 1.0:
            s = s1 if last else s + h_step
            state = CPVState(
                t=t1 if last else math.exp(s), indices=state0.indices, y=yi, alpha=params.alpha
            )
            y = state.y
            k1 = stages[6]
            if abs(state.lnF.imag) > 1e-6 * (1.0 + abs(state.lnF.real)):
                raise AssertionError(
                    "cpv_integrate: ln F developed an imaginary part beyond the realness budget"
                )
            trajectory.append(state)
            fac = 0.9 * (err + 1e-300) ** -0.14 * (err_prev + 1e-300) ** 0.08
            err_prev = max(err, 1e-4)
            h = min(h_step * min(6.0, max(0.2, fac)), h_max / state.t)
        else:
            # a non-finite err (NaN) also lands here: max() keeps the 0.2 floor
            fac = 0.9 * err**-0.14 * (err_prev + 1e-300) ** 0.08
            h = h_step * min(1.0, max(0.2, fac))
    raise NonConvergenceError("cpv_integrate: step budget exhausted")


def _fd_weights_first_derivative(x: np.ndarray, x0: float) -> np.ndarray:
    """Weights w with sum w_i f(x_i) ~ f'(x0) on the arbitrary nodes x
    (Fornberg's recursion, truncated at the first derivative)."""
    n = len(x)
    w = np.zeros((n, 2))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                w[i, 1] = c1 * (w[i - 1, 0] - c5 * w[i - 1, 1]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            w[j, 1] = (c4 * w[j, 1] - w[j, 0]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, 1]


@dataclass(frozen=True)
class IdentityReport:
    """Max-norm residuals of the two differential identities monitored along
    a trajectory: (a) the time derivative of t H against 2i sum r_k u_k v_k,
    and (b) the Hamiltonian relation whose auxiliary-logarithm derivatives
    are expanded through their own differential equations. Only points at
    t >= 0.1/max|r_k| take part (``points_used`` counts the stencil centres);
    below that every flow quantity still follows the seed's power law."""

    residual_a: float
    residual_b: float
    points_used: int


def verify_identities(
    trajectory: list, params: KernelParams, config: Configuration
) -> IdentityReport:
    """Differentiate trajectory data numerically in t (7-point stencils on
    the accepted steps lying wholly at t >= 0.1/max|r_k|, the scale of the
    step cap) and report identity residuals in max-norm. Physical rates come
    from ``cpv_rhs`` by the chain rule: dv/dt = dV/ds + V and H = (t H)/t."""
    r_max = max(abs(v) for v in config.r)
    ts = np.array([s.t for s in trajectory])
    first = int(np.searchsorted(ts, 0.1 / r_max))
    window, ts = trajectory[first:], ts[first:]
    if len(window) < 9:
        raise DomainError("verify_identities: needs 9 trajectory points at t >= 0.1/max|r_k|")
    a, b = params.alpha, params.beta
    n = len(config.active_indices)
    r = np.array([config.r[k] for k in config.active_indices])
    rates = [_rates(s, params, config, "verify_identities") for s in window]
    th = np.array([dy[-1] for dy in rates])

    res_a = 0.0
    res_b = 0.0
    count = 0
    two_ab = 2.0 * (a * a - b * b)
    for i in range(3, len(window) - 3):
        idx = slice(i - 3, i + 4)
        w = _fd_weights_first_derivative(ts[idx], ts[i])
        dth = complex(np.dot(w, th[idx]))
        state, dy = window[i], rates[i]
        u = state.u
        res_a = max(res_a, abs(dth - 2.0j * complex(np.sum(r * u * state.v))))
        t = state.t
        u_dv = complex(np.dot(u, dy[n : 2 * n] + state.y[n : 2 * n]))
        # d1 + d2 and d1 - d2 are t d(log d)/dt and t d(log y)/dt
        total = u_dv - 2.0 * th[i] / t + dth + (a * dy[-2] - b * dy[-3] - two_ab) / t
        res_b = max(res_b, abs(total))
        count += 1
    return IdentityReport(residual_a=res_a, residual_b=res_b, points_used=count)


@dataclass(frozen=True)
class LargeTPrediction:
    """Closed-form leading large-t values: u, v arrays in the order of
    ``config.active_indices`` (v is NaN where the matching connection
    coefficient vanishes), H, y, and d."""

    u: np.ndarray
    v: np.ndarray
    H: complex
    y: complex
    d: complex


def _principal_power(x: float, p: complex) -> complex:
    """x^p for real nonzero x with the branch taken as the limit from the
    upper half-plane: exp(p (ln|x| + i pi [x < 0]))."""
    if x == 0.0:
        raise DomainError("principal power: requires x != 0")
    log_x = math.log(abs(x)) + (1j * math.pi if x < 0.0 else 0.0)
    return cmath.exp(p * log_x)


def cpv_large_t_prediction(
    params: KernelParams,
    config: Configuration,
    t: float,
    t_match: float = _DEFAULT_T_MATCH,
) -> LargeTPrediction:
    """Leading large-t asymptotics of u_k, v_k, H, y, d for the solution
    family fixed by the small-t data."""
    t = float(t)
    if t < t_match:
        raise DomainError(f"cpv_large_t_prediction: requires t >= {t_match}")
    a, b = params.alpha, params.beta
    r = config.r
    m = config.m
    bs = b_from_gamma(config)
    cs = c_from_gamma(config, params)
    ge = (0.0,) + config.gamma + (0.0,)
    g_m_pair = (1.0 - ge[m]) * (1.0 - ge[m + 1])

    u = []
    v = []
    for k in config.active_indices:
        sgn = math.copysign(1.0, r[k])
        prod_u = 1.0 + 0.0j
        prod_v = 1.0 + 0.0j
        for j in config.active_indices:
            if j == k:
                continue
            ratio = (r[k] - r[j]) / (r[m] - r[j])
            prod_u *= _principal_power(ratio, -2.0 * bs[j])
            prod_v *= _principal_power(ratio, 2.0 * bs[j])
        phase = cmath.exp(sgn * math.pi * 1j * (bs[k] + bs[m] + a + b))
        power_u = 2.0 * (bs[k] - bs[m] - b)
        u_k = (
            sgn
            * cs[k]
            * cmath.exp(
                2.0 * log_gamma(1.0 - bs[k])
                + log_gamma(1.0 + a + b + bs[m])
                - log_gamma(1.0 + a - b - bs[m])
            )
            * prod_u
            * _principal_power(abs(r[k]), power_u)
            * g_m_pair**-0.5
            * phase
            * _principal_power(2.0 * t, power_u)
            * cmath.exp(-2.0j * t * r[k])
        )
        if cs[k] == 0.0:
            u.append(0.0 + 0.0j)
            v.append(complex(math.nan, math.nan))
            continue
        g_k_pair = (1.0 - ge[k]) * (1.0 - ge[k + 1])
        u.append(u_k)
        v.append(
            sgn
            * (ge[k + 1] - ge[k])
            / (2.0j * math.pi * cs[k])
            * cmath.exp(
                log_gamma(1.0 + a - b - bs[m])
                + log_gamma(1.0 + bs[k])
                - log_gamma(1.0 + a + b + bs[m])
                - log_gamma(1.0 - bs[k])
            )
            * prod_v
            * _principal_power(abs(r[k]), -power_u)
            * (g_m_pair / g_k_pair) ** 0.5
            / phase
            * _principal_power(2.0 * t, -power_u)
            * cmath.exp(2.0j * t * r[k])
        )

    h_pred = sum(2.0j * bs[k] * r[k] for k in range(len(r))) - (
        sum(b_k * b_k for b_k in bs) + 2.0 * b * bs[m]
    ) / t

    prod_y = 1.0 + 0.0j
    for j in config.active_indices:
        prod_y *= _principal_power(-r[j], -2.0 * bs[j])
    y_pred = (
        cmath.exp(log_gamma(1.0 + a - b - bs[m]) - log_gamma(1.0 + a + b + bs[m]))
        * prod_y
        * cmath.exp(-(b + bs[m]) * math.pi * 1j)
        * _principal_power(2.0 * t, 2.0 * (b + bs[m]))
        * g_m_pair**0.5
    )
    d_pred = (
        2.0
        * a
        * cmath.exp(
            log_gamma(1.0 + a - b - bs[m])
            + log_gamma(1.0 + a + b + bs[m])
            - 2.0 * log_gamma(1.0 + 2.0 * a)
        )
        * cmath.exp(-a * math.pi * 1j)
        * _principal_power(2.0 * t, 2.0 * a)
        * g_m_pair**-0.5
    )
    return LargeTPrediction(u=np.array(u), v=np.array(v), H=h_pred, y=y_pred, d=d_pred)
