"""Coupled Painleve V system driving the log-determinant.

The state couples one (u_k, v_k) pair per interval endpoint away from the
origin with two auxiliary logarithms and the running integral of the
Hamiltonian, which equals ln det(I - K_sigma) at the current time; all of
it is one packed complex vector, which the integrator steps directly. The
module provides the vector field, the Hamiltonian, small-t initialization,
an adaptive embedded Runge-Kutta integrator with step-size control, identity
monitors based on numerical differentiation of the trajectory, and the
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
    "default_t0",
    "cpv_integrate",
    "verify_identities",
    "cpv_large_t_prediction",
]

_T0_CAP = 1e-3
_OVERFLOW_GUARD = 1e12
_DEFAULT_T_MATCH = 15.0


@dataclass(frozen=True, eq=False)
class CPVState:
    """Flow state at time t, packed as y = (u_1..u_n, v_1..v_n, log y, log d,
    ln F) where u_i, v_i belong to the endpoint ``indices[i]`` (the
    configuration's ``active_indices``). ``y`` is kept as a read-only complex
    copy; ``u``, ``v``, ``log_y``, ``log_d`` and ``lnF`` are views of it."""

    t: float
    indices: tuple
    y: np.ndarray

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
        return self.y[: len(self.indices)]

    @property
    def v(self) -> np.ndarray:
        return self.y[len(self.indices) : -3]

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
        _, s2, s3 = _moment_sums(self.u.tolist(), self.v.tolist())
        a, b = params.alpha, params.beta
        return (a + b - s2, a - b - s3)


def _moment_sums(u: list, v: list) -> tuple:
    """(S1, S2, S3) = sum_k u_k (v_k - 1) * ((v_k - 1), 1, v_k)."""
    s1 = s2 = s3 = 0j
    for u_k, v_k in zip(u, v):
        w = u_k * (v_k - 1.0)
        s1 += w * (v_k - 1.0)
        s2 += w
        s3 += w * v_k
    return s1, s2, s3


def pv5_weighted_hamiltonian(u: complex, v: complex, s: complex, alpha: float, beta: complex) -> complex:
    """The product s * H_V(u, v, s; alpha, beta) of the single Painleve V
    Hamiltonian: -s u v - alpha u (v^2 - 1) - beta u (v - 1)^2 + u^2 v (v - 1)^2."""
    return (
        -s * u * v
        - alpha * u * (v * v - 1.0)
        - beta * u * (v - 1.0) ** 2
        + u * u * v * (v - 1.0) ** 2
    )


def cpv_rhs(t: float, y: np.ndarray, params: KernelParams, config: Configuration) -> np.ndarray:
    """dy/dt for the packed state y (layout of ``CPVState.y``): the coupled
    Painleve V field, the auxiliary logarithms, and d(lnF)/dt = H.

    t H is the sum of the ``pv5_weighted_hamiltonian`` terms at
    s_k = -2 i t r_k plus the pair coupling
    (1/2) sum_{j != k} u_j u_k (v_j + v_k)(v_j - 1)(v_k - 1)
    = S2 S3 - sum_k u_k^2 v_k (v_k - 1)^2, whose diagonal sum cancels the
    u^2 v (v - 1)^2 terms, so t H = 2 i t sum_k r_k u_k v_k
    - alpha (S2 + S3) - beta S1 + S2 S3."""
    a, b = params.alpha, params.beta
    r = [config.r[k] for k in config.active_indices]
    n = len(r)
    vals = y.tolist()
    u, v = vals[:n], vals[n : 2 * n]
    s1, s2, s3 = _moment_sums(u, v)
    d1 = a + b - s2
    d2 = a - b - s3
    du = []
    dv = []
    ruv = 0j
    for r_k, u_k, v_k in zip(r, u, v):
        phase = 2.0j * t * r_k
        du.append(u_k * (2.0 * v_k * d1 - phase - s1 - 2.0 * b) / t)
        dv.append((v_k * (phase + s1 + v_k * (s2 - a)) - s3 + a - b * (v_k - 1.0) ** 2) / t)
        ruv += r_k * u_k * v_k
    h = 2.0j * ruv + (s2 * s3 - a * (s2 + s3) - b * s1) / t
    return np.array(du + dv + [(d1 - d2) / t, (d1 + d2) / t, h])


def _rates(state: CPVState, params: KernelParams, config: Configuration, caller: str) -> np.ndarray:
    """``cpv_rhs`` at the state, once the state is known to belong to config."""
    if state.indices != config.active_indices:
        raise DomainError(f"{caller}: state index set does not match the configuration")
    return cpv_rhs(state.t, state.y, params, config)


def hamiltonian(state: CPVState, params: KernelParams, config: Configuration) -> complex:
    """H(t) = d(lnF)/dt at the state (the last entry of ``cpv_rhs``)."""
    return complex(_rates(state, params, config, "hamiltonian")[-1])


def default_t0(params: KernelParams) -> float:
    """Initialization time of the flow.

    The ln F error induced by truncating the small-t data scales like
    C * t0^p with p = min(1, 2 alpha + 1) and C up to ~50, so t0 solves
    (2e-10)^(1/p), which keeps the seeding error near 1e-8. For alpha < 0 a
    floor keeps the initial |u_k| ~ t0^(2 alpha) below the integrator's
    overflow guard. The floor binds below alpha = -0.243, and there the
    seeding error grows like t0^(2 alpha + 1): flow against ``log_det`` at
    t = 5, tol 1e-9, 1-3 intervals, measured 3e-8 to 2e-7 at alpha = -0.25,
    1e-3 to 7e-3 at -0.35 and 0.3 to 1.3 at -0.45."""
    p = min(1.0, 2.0 * params.alpha + 1.0)
    t0 = 2e-10 ** (1.0 / p)
    if params.alpha < 0.0:
        t0 = max(t0, 0.5 * 10.0 ** (9.0 / (2.0 * params.alpha)))
    return min(_T0_CAP, t0)


def cpv_init(params: KernelParams, config: Configuration, t0: float = None) -> CPVState:
    """Small-t state: u_k from the connection coefficients, v_k = 1 exactly,
    log y and log d from their small-t closed forms, and lnF seeded with the
    integrated leading Hamiltonian term."""
    if t0 is None:
        t0 = default_t0(params)
    t0 = float(t0)
    if not (0.0 < t0 <= _T0_CAP):
        raise DomainError(f"cpv_init: requires 0 < t0 <= {_T0_CAP}")
    a, b = params.alpha, params.beta
    cs = c_from_gamma(config, params)  # raises for any weight at 1
    gamma_ratio = cmath.exp(
        log_gamma(1.0 + a - b) + log_gamma(1.0 + a + b) - 2.0 * log_gamma(1.0 + 2.0 * a)
    )
    indices = config.active_indices
    u = []
    for k in indices:
        r_k = config.r[k]
        u.append(math.copysign(1.0, r_k) * cs[k] * gamma_ratio * (2.0 * abs(r_k) * t0) ** (2.0 * a))
    log_y = (
        log_gamma(1.0 + a - b)
        - log_gamma(1.0 + a + b)
        - b * math.pi * 1j
        + 2.0 * b * math.log(2.0 * t0)
    )
    log_d = (
        log_gamma(1.0 + a - b)
        + log_gamma(1.0 + a + b)
        - 2.0 * log_gamma(1.0 + 2.0 * a)
        - a * math.pi * 1j
        + 2.0 * a * math.log(2.0 * t0)
    )
    lnf = complex(small_t_lnF(params, config, t0))
    return CPVState(t=t0, indices=indices, y=u + [1.0 + 0.0j] * len(indices) + [log_y, log_d, lnf])


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
    """Step cap 0.1/max|r_k| tightened by tol^(1/6) so that the order-6
    differentiation error of the identity monitors stays proportional to the
    integration tolerance."""
    r_max = max(abs(v) for v in config.r)
    return min(0.1, 0.5 * tol ** (1.0 / 6.0)) / r_max


def cpv_integrate(
    state0: CPVState,
    params: KernelParams,
    config: Configuration,
    t1: float,
    tol: float = 1e-9,
) -> list:
    """Integrate the augmented system from state0.t to t1 with an embedded
    5(4) Runge-Kutta pair under PI step control; returns the accepted states
    (state0 first, a state exactly at t1 last)."""
    t1 = float(t1)
    tol = float(tol)
    if not (1e-12 <= tol <= 1e-4):
        raise DomainError("cpv_integrate: tol must lie in [1e-12, 1e-4]")
    if not t1 > state0.t:
        raise DomainError("cpv_integrate: requires t1 > state0.t")
    k1 = _rates(state0, params, config, "cpv_integrate")
    t, y = state0.t, state0.y
    h_max = _max_step(config, tol)
    h = min(0.05 * t, h_max, 0.5 * (t1 - t))
    trajectory = [state0]
    err_prev = 1.0
    stages = [None] * 7
    max_steps = 200_000
    for _ in range(max_steps):
        if t >= t1:
            return trajectory
        if h < 1e-13 * t:
            raise NonConvergenceError(
                "cpv_integrate: step size underflow (movable singularity or tolerance too tight)"
            )
        last = t1 - t <= h
        h_step = t1 - t if last else h
        stages[0] = k1
        failed = False
        for i in range(1, 7):
            yi = y + h_step * sum(a_ij * stages[j] for j, a_ij in enumerate(_DP_A[i]))
            ti = t + _DP_C[i] * h_step
            if not np.all(np.isfinite(yi)) or np.max(np.abs(yi)) > _OVERFLOW_GUARD:
                failed = True
                break
            stages[i] = cpv_rhs(ti, yi, params, config)
        if failed:
            h = 0.2 * h_step
            continue
        y5 = yi  # the 7th stage argument already equals the 5th-order result
        err_vec = h_step * sum(e_j * stages[j] for j, e_j in enumerate(_DP_E) if e_j != 0.0)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(np.abs(err_vec / scale) ** 2)))
        if err <= 1.0:
            t = t1 if last else t + h_step
            state = CPVState(t=t, indices=state0.indices, y=y5)
            y = state.y
            k1 = stages[6]
            if abs(state.lnF.imag) > 1e-6 * (1.0 + abs(state.lnF.real)):
                raise AssertionError(
                    "cpv_integrate: ln F developed an imaginary part beyond the realness budget"
                )
            trajectory.append(state)
            fac = 0.9 * (err + 1e-300) ** -0.14 * (err_prev + 1e-300) ** 0.08
            err_prev = max(err, 1e-4)
            h = min(h_step * min(6.0, max(0.2, fac)), h_max)
        else:
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
    are expanded through their own differential equations."""

    residual_a: float
    residual_b: float
    points_used: int


def verify_identities(
    trajectory: list, params: KernelParams, config: Configuration
) -> IdentityReport:
    """Differentiate trajectory data numerically (7-point stencils on the
    accepted steps, 3 points dropped at each end) and report identity
    residuals in max-norm."""
    if len(trajectory) < 9:
        raise DomainError("verify_identities: needs at least 9 trajectory points")
    a, b = params.alpha, params.beta
    n = len(config.active_indices)
    r = np.array([config.r[k] for k in config.active_indices])
    ts = np.array([s.t for s in trajectory])
    rates = [_rates(s, params, config, "verify_identities") for s in trajectory]
    th = ts * np.array([dy[-1] for dy in rates])

    res_a = 0.0
    res_b = 0.0
    count = 0
    two_ab = 2.0 * (a * a - b * b)
    for i in range(3, len(trajectory) - 3):
        idx = slice(i - 3, i + 4)
        w = _fd_weights_first_derivative(ts[idx], ts[i])
        dth = complex(np.dot(w, th[idx]))
        state, dy = trajectory[i], rates[i]
        res_a = max(res_a, abs(dth - 2.0j * complex(np.sum(r * state.u * state.v))))
        d1, d2 = state.d_scalars(params)
        t = state.t
        u_dv = complex(np.dot(state.u, dy[n : 2 * n]))
        h_val = dy[-1]
        total = (
            u_dv
            - 2.0 * h_val
            + dth
            + a * (d1 + d2) / t
            - b * (d1 - d2) / t
            - two_ab / t
        )
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
