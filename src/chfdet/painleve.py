"""Coupled Painleve V system driving the log-determinant.

The state couples one (u_k, v_k) pair per interval endpoint away from the
origin with two auxiliary logarithms and the running integral of the
Hamiltonian, which equals ln det(I - K_sigma) at the current time; all of
it is one packed complex vector, which the integrator steps directly. The
flow runs in s = ln t on U_k = u_k t^{-2 alpha} and V_k = (v_k - 1)/t,
which tend to constants as t -> 0 for every alpha. Every flow starts from
their first-order small-t expansion at the latest time where it is exact
to rounding (ln t of about -16 to -20 for alpha >= 0 and -170 to -190 at
alpha = -0.45), and below that time the seed itself is the state. At tol
1e-9 the flow then meets ``log_det`` to 1.3e-11 at t = 5 and 5.3e-10 at t
= 60 for alpha in [-0.45, 1.5] over 1-3 intervals. The module provides the
vector field, the Hamiltonian, small-t initialization and the DOP853
Dormand-Prince 8(5) integrator with PI step control. One flow owns one
workspace: the field with the flow's constants bound once, one complex
(14, n) buffer (y, then the fields of the 12 stages and the field at the
result, which becomes the next step's first field), and views of it built
once per stage. Each stage's input is one real matrix-vector product over
the buffer's float view, written into a preallocated row, and its field
goes straight into the buffer. Each attempt's error norm and realness
check run on Python scalars of the 2n + 3 entries, and every accepted
state keeps its own read-only copy of y.

``log_d`` stores the alpha-regularized logarithm ln(d / (2 alpha)): the
scalar d carries an overall factor 2 alpha and vanishes identically at
alpha = 0, while ln(d / (2 alpha)) obeys the same differential equation
(the offset is a t-independent constant) and stays finite for every
admissible alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import _gamma_extended
from .errors import DomainError, NonConvergenceError, RegimeError
from .kernel import Configuration, KernelParams
from .specialfn import log_gamma

__all__ = [
    "CPVState",
    "cpv_rhs",
    "hamiltonian",
    "cpv_init",
    "cpv_integrate",
]


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


def _flow_state(t: float, indices: tuple, y: np.ndarray, alpha: float) -> CPVState:
    """The ``CPVState`` that the constructor would build from values already
    in its form (a finite t > 0, the flow's indices tuple, a read-only
    complex y of their length), without its conversion and checks."""
    state = object.__new__(CPVState)
    state.__dict__.update(t=t, indices=indices, y=y, alpha=alpha)
    return state


def cpv_rhs(s: float, y: np.ndarray, params: KernelParams, config: Configuration) -> np.ndarray:
    """dy/ds at s = ln t for the packed state y (layout of ``CPVState.y``):
    the coupled Painleve V field, the auxiliary logarithms, and
    d(lnF)/ds = t H.

    t H is the sum of the single Painleve V terms s_k H_V(u_k, v_k, s_k) =
    -s_k u_k v_k - alpha u_k (v_k^2 - 1) - beta u_k (v_k - 1)^2
    + u_k^2 v_k (v_k - 1)^2 at s_k = -2 i t r_k plus the pair coupling
    (1/2) sum_{j != k} u_j u_k (v_j + v_k)(v_j - 1)(v_k - 1)
    = S2 S3 - sum_k u_k^2 v_k (v_k - 1)^2, whose diagonal sum cancels the
    u^2 v (v - 1)^2 terms, so t H = 2 i t sum_k r_k u_k v_k
    - alpha (S2 + S3) - beta S1 + S2 S3. In U = u t^{-2 alpha} and
    V = (v - 1)/t, with E = t^(1 + 2 alpha) and d1 = alpha + beta - S2:
    dU/ds = U (2 v d1 - 2 i t r - S1 - 2 beta - 2 alpha) and
    dV/ds = 2 i r + V (2 i t r + S1 + 2 S2 - 2 alpha - 1)
    + t V^2 (S2 - alpha - beta), where the O(1) part of t dv/dt cancels
    algebraically. Returns a new complex array."""
    return np.array(_field(params, config)(s, y), dtype=complex)


def _field(params: KernelParams, config: Configuration):
    """``field(s, y)``, the rates of ``cpv_rhs`` as a list, with the flow's
    constants bound once: alpha, beta, their doubles, 1 + 2 alpha, and one
    (j, r_k, 2 i r_k) lane per active endpoint. A flow's stages call it
    directly; ``cpv_rhs`` puts one call's list into a new array."""
    a, b = params.alpha, 1j * params.beta_im
    two_a, two_b, twoa1 = 2.0 * a, 2.0 * b, 1.0 + 2.0 * a
    lanes = tuple(
        (j, config.r[k], 2.0j * config.r[k]) for j, k in enumerate(config.active_indices)
    )
    n = len(lanes)

    def field(s: float, y: np.ndarray) -> list:
        t = math.exp(s)
        e = t**twoa1
        dy = y.tolist()
        # (S1, S2, S3) = sum_k u_k (v_k - 1) ((v_k - 1), 1, v_k): in U and V,
        # S2 = E sum U V, S1 = E t sum U V^2 and S3 = S1 + S2
        p = q = 0j
        for j in range(n):
            w = dy[j] * dy[n + j]
            p += w
            q += w * dy[n + j]
        s1, s2 = e * t * q, e * p
        s3 = s1 + s2
        c_u = 2.0 * (a + b - s2)
        c_v = s1 + 2.0 * s2 - two_a - 1.0
        c_vv = t * (s2 - a - b)
        ruv = 0j
        for j, r_k, two_ir in lanes:
            u_k, v_k = dy[j], dy[n + j]
            # (2 i r_k) t equals the 2 i t r_k of the derivation exactly: the
            # factor 2 only moves the exponent
            phase = two_ir * t
            v_phys = 1.0 + t * v_k
            dy[j] = u_k * (v_phys * c_u - phase - s1 - two_b - two_a)
            dy[n + j] = two_ir + v_k * (phase + c_v + v_k * c_vv)
            ruv += r_k * u_k * v_phys
        th = 2.0j * e * ruv + s2 * s3 - a * (s2 + s3) - b * s1
        dy[-3:] = (two_b + s1, two_a - s2 - s3, th)
        return dy

    return field


def _rates(state: CPVState, params: KernelParams, config: Configuration, caller: str) -> np.ndarray:
    """``cpv_rhs`` at the state, once the state is known to belong to params
    and config."""
    if state.indices != config.active_indices or state.alpha != params.alpha:
        raise DomainError(f"{caller}: state index set or alpha does not match the flow")
    return cpv_rhs(math.log(state.t), state.y, params, config)


def hamiltonian(state: CPVState, params: KernelParams, config: Configuration) -> complex:
    """H(t) = d(lnF)/dt at the state (the last entry of ``cpv_rhs`` over t)."""
    return complex(_rates(state, params, config, "hamiltonian")[-1]) / state.t


def _side_weights(config: Configuration, beta_im: float) -> dict:
    """w_k = i c_k for every k != m, real: (gamma_{k-1} - gamma_k) / (2 pi)
    e^{-pi s} left of the origin and (gamma_k - gamma_{k-1}) / (2 pi) e^{pi s}
    right of it, with s = beta_im."""
    ge = _gamma_extended(config)
    m = config.m
    left, right = math.exp(-math.pi * beta_im), math.exp(math.pi * beta_im)
    return {
        k: (ge[k] - ge[k + 1]) / (2.0 * math.pi) * left
        if k < m
        else (ge[k + 1] - ge[k]) / (2.0 * math.pi) * right
        for k in config.active_indices
    }


def _room(scale: float, c: complex) -> float:
    """scale / |c|, and infinity for c = 0."""
    return scale / abs(c) if c else math.inf


def cpv_init(params: KernelParams, config: Configuration) -> CPVState:
    """Small-t state from the first-order expansion of the field, for every
    alpha. Take the t -> 0 limits U0_k (from the connection coefficients
    c_k = -i w_k of the real side weights w_k and the kernel's gamma
    prefactor G, from the gamma batch of log y and log d) and
    V0_k = 2 i r_k / (1 + 2 alpha) (the fixed point of the leading V
    equation), E = t^(1 + 2 alpha) and W = sum_j U0_j V0_j / (1 + 2 alpha).
    Then U_k = U0_k (1 + (2 (alpha + beta) V0_k - 2 i r_k) t - 2 W E) and
    V_k = V0_k (1 + (2 i r_k - (alpha + beta) V0_k) t / (2 + 2 alpha) + W E);
    log y and log d take their small-t closed forms, log d less 2 W E; and
    lnF = W E, the integrated leading Hamiltonian term, which is the small-t
    value G sum_k w_k (2 |r_k| t)^(1 + 2 alpha) / (1 + 2 alpha)^2 of ln F.
    The terms left out are O(t^2, t E, E^2), those of log y and lnF
    O(t E, E^2).

    The seed time t0 is the largest t at which every first-order term is at
    most sqrt(eps) (1 + |y0|), with eps the machine epsilon and y0 the
    component's t -> 0 limit (0 for log d, which has none), so the terms left
    out sit near eps: ln t0 is about -16 to -20 for alpha >= 0, -35 to -38 at
    alpha = -0.25 and -170 to -190 at alpha = -0.45. A configuration at a
    smaller t > 0 seeds at t itself, where the seed is the answer to rounding;
    one at t = 0 seeds at t0. Raises ``RegimeError`` where t0 falls below the
    normal range of double (alpha below about -0.487), since no double seed is
    exact there."""
    a, b = params.alpha, params.beta
    ws = _side_weights(config, params.beta_im)  # raises for any weight at 1
    lg_minus, lg_plus, lg_2a = log_gamma([1.0 + a - b, 1.0 + a + b, 1.0 + 2.0 * a]).tolist()
    g = math.exp(2.0 * (lg_plus.real - lg_2a.real))
    twoa1 = 1.0 + 2.0 * a
    indices = config.active_indices
    ab = a + b
    # per endpoint U0_k, V0_k and the t coefficients of U_k / U0_k and V_k / V0_k
    lanes = []
    for k in indices:
        r_k = config.r[k]
        u_k = math.copysign(1.0, r_k) * (-1j * ws[k]) * g * (2.0 * abs(r_k)) ** (2.0 * a)
        v_k = 2.0j * r_k / twoa1
        c_u = 2.0 * ab * v_k - 2.0j * r_k
        lanes.append((u_k, v_k, c_u, (2.0j * r_k - ab * v_k) / (2.0 + 2.0 * a)))
    w = sum(u_k * v_k for u_k, v_k, _, _ in lanes) / twoa1
    # a first-order term c t (c E) stays at most sqrt(eps) (1 + |y0|) while t
    # (E) stays at most sqrt(eps) times the least (1 + |y0|) / |c| of its kind;
    # log d, which has no t -> 0 limit, takes 1 for 1 + |y0|
    t_room, e_room = math.inf, _room(1.0, 2.0 * w)
    for u_k, v_k, cu_k, cv_k in lanes:
        su, sv = 1.0 + abs(u_k), 1.0 + abs(v_k)
        t_room = min(t_room, _room(su, u_k * cu_k), _room(sv, v_k * cv_k))
        e_room = min(e_room, _room(su, 2.0 * w * u_k), _room(sv, w * v_k))
    root_eps = math.sqrt(sys.float_info.epsilon)
    t_seed = min(root_eps * t_room, (root_eps * e_room) ** (1.0 / twoa1))
    if t_seed < sys.float_info.min:
        raise RegimeError(
            f"cpv_init: the seed time underflows double at alpha = {a}; no double seed is exact"
        )
    t0 = config.t if 0.0 < config.t < t_seed else t_seed
    e = t0**twoa1
    u = [u_k * (1.0 + cu_k * t0 - 2.0 * w * e) for u_k, _, cu_k, _ in lanes]
    v = [v_k * (1.0 + cv_k * t0 + w * e) for _, v_k, _, cv_k in lanes]
    log_2t0 = math.log(2.0 * t0)
    log_y = lg_minus - lg_plus - b * math.pi * 1j + 2.0 * b * log_2t0
    log_d = lg_minus + lg_plus - 2.0 * lg_2a - a * math.pi * 1j + 2.0 * a * log_2t0 - 2.0 * w * e
    return CPVState(t=t0, indices=indices, y=u + v + [log_y, log_d, w * e], alpha=a)


# Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett and Wanner, Solving
# Ordinary Differential Equations I, II.5 and its DOP853 code): nodes C, stage
# rows A, whose last row holds the weights B of the 8th-order result (its node
# is 1, and its field is the next step's first stage), and the weights E5 of
# the 5th-order embedded error estimate.
_DOP_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
)
_DOP_A = (
    (),
    (
        5.26001519587677318785587544488e-2,
    ),
    (
        1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,
    ),
    (
        2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2,
    ),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
    (
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
        1.89151789931450038304281599044, -5.8012039600105847814672114227,
        3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
        2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
    ),
)
_DOP_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
# The stage rows as one real array: row i holds the weights of stage i's
# input behind a leading zero, which the step sets to 1 for the column of y.
_DOP_TABLEAU = np.array([(0.0, *row) + (0.0,) * (12 - len(row)) for row in _DOP_A])
_DOP_TABLEAU.flags.writeable = False
# The error weights stay a complex row. Where log y and log d change at
# rates constant to the last bit, the estimate is the rounding residue of
# these weights' zero sum; a real product over the float view leaves a
# larger residue there, and it doubled the flow's median error at alpha < 0
# when flows started in that region (seeded at t = e^-400 from the t -> 0
# limits).
_DOP_E5_ROW = np.array(_DOP_E5, dtype=complex)


class _Workspace:
    """The buffers and the field of one flow. ``z`` is the complex (14, n)
    buffer: row 0 holds y, row 1 the field at (s, y), and a step fills rows
    2-13 with the fields of stages 1-12, the last one at the result, which
    becomes the next step's first field.
    ``stages`` holds, per stage i = 1..12, the views its step reads and
    writes: row i of the real coefficient buffer up to column i, the float
    view of z's rows 0..i, the float row where its input lands, that row as
    complex, z's row i + 1 and the node. ``field`` is ``_field``, looked up
    in the module once."""

    __slots__ = ("field", "z", "coef", "stages")

    def __init__(self, params: KernelParams, config: Configuration, size: int):
        self.field = _field(params, config)
        self.z = np.empty((14, size), dtype=complex)
        self.coef = np.empty((13, 13))
        zf = self.z.view(float)
        inputs = np.empty((13, 2 * size))
        self.stages = tuple(
            (self.coef[i, : i + 1], zf[: i + 1], inputs[i], inputs[i].view(complex),
             self.z[i + 1], _DOP_C[i])
            for i in range(1, 13)
        )


def _dop853_step(s: float, h: float, work: _Workspace) -> np.ndarray:
    """One DOP853 step of length h in s from (s, y), with y and the field at
    (s, y) in rows 0 and 1 of ``work.z``. Stage i's input is one real product
    of h times its tableau row (1 for the column of y) with the float view
    of rows 0..i; its field goes straight into row i + 1. Returns the
    8th-order result, stage 12's input, as a view into the workspace that
    the next step overwrites."""
    coef = work.coef
    np.multiply(h, _DOP_TABLEAU, out=coef)
    coef[:, 0] = 1.0
    field = work.field
    for row, prefix, out, y_i, z_next, c in work.stages:
        np.dot(row, prefix, out=out)
        z_next[:] = field(s + c * h, y_i)
    return y_i


@np.errstate(invalid="ignore", over="ignore")
def cpv_integrate(
    state0: CPVState,
    params: KernelParams,
    config: Configuration,
    t1: float,
    tol: float = 1e-9,
) -> list:
    """Integrate the augmented system in s = ln t from state0.t to a finite
    t1 with the DOP853 pair (8th-order steps, max-norm of the 5th-order
    embedded error against tol (1 + |y|)) under PI step control; returns the
    accepted states (state0 first, a state exactly at t1 last). A stage with
    a non-finite entry fails the error test, so its step is rejected and
    retried at a fifth of the size. Steps below 1e-13 in s raise
    ``NonConvergenceError``, except that a whole span at or below that
    floor is one last step."""
    t1 = float(t1)
    tol = float(tol)
    if not (1e-12 <= tol <= 1e-4):
        raise DomainError("cpv_integrate: tol must lie in [1e-12, 1e-4]")
    if not t1 > state0.t:
        raise DomainError("cpv_integrate: requires t1 > state0.t")
    if not math.isfinite(t1):
        raise DomainError("cpv_integrate: requires a finite t1")
    work = _Workspace(params, config, len(state0.y))
    z = work.z
    fields = z[1:13]  # the stage fields the error estimate weighs
    z[0] = state0.y
    z[1] = _rates(state0, params, config, "cpv_integrate")
    s = math.log(state0.t)
    # a span below the resolution of s still ends in a state at t1
    s1 = max(math.log(t1), math.nextafter(s, math.inf))
    abs_y = list(map(abs, state0.y.tolist()))
    indices, alpha = state0.indices, params.alpha
    # the first step tries half the span, and at least the floor: a span at
    # or below the floor is then one last step
    h = min(0.05, max(0.5 * (s1 - s), 1e-13))
    trajectory = [state0]
    err_prev = 1.0
    for _ in range(200_000):
        if s >= s1:
            return trajectory
        if h < 1e-13:
            raise NonConvergenceError(
                "cpv_integrate: step size underflow (movable singularity or tolerance too tight)"
            )
        last = s1 - s <= h
        h_step = s1 - s if last else h
        y_new = _dop853_step(s, h_step, work)
        # the bookkeeping runs on Python scalars: 2n + 3 entries are too few
        # for numpy to pay its per-call cost
        ys = y_new.tolist()
        abs_new = list(map(abs, ys))
        ratios = [
            abs(e) / (tol + tol * (a0 if a0 > a else a))
            for e, a, a0 in zip(np.dot(_DOP_E5_ROW, fields).tolist(), abs_new, abs_y)
        ]
        # max() can skip a NaN ratio; the sum cannot
        total = sum(ratios)
        err = h_step * (max(ratios) if total == total else total)
        if err <= 1.0:
            s = s1 if last else s + h_step
            y = y_new.copy()
            y.flags.writeable = False
            z[0] = y
            z[1] = z[13]
            abs_y = abs_new
            lnf = ys[-1]
            if abs(lnf.imag) > 1e-6 * (1.0 + abs(lnf.real)):
                raise RegimeError(
                    "cpv_integrate: ln F developed an imaginary part beyond the realness budget"
                )
            trajectory.append(_flow_state(t1 if last else math.exp(s), indices, y, alpha))
            fac = 0.9 * (err + 1e-300) ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0)
            err_prev = max(err, 1e-4)
            h = h_step * min(6.0, max(0.2, fac))
        else:
            # a non-finite err (NaN) also lands here: max() keeps the 0.2 floor
            fac = 0.9 * err ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0)
            h = h_step * min(1.0, max(0.2, fac))
    raise NonConvergenceError("cpv_integrate: step budget exhausted")

