"""Test-local references: values the tests compare chfdet against, computed
by methods the package does not use.

- ``bessel_kernel``: the beta = 0 kernel from scipy's Bessel J.
- ``gauss_legendre``: the Gauss-Legendre rule by Newton's method on P_n,
  against which the package's Golub-Welsch rule at exponent 0 is checked.
- ``log_det_series_oracle``: ln det(I - K_sigma) from the truncated trace
  series on a midpoint grid, with a remainder bound (small t only).
- ``cpv_large_t_prediction``: the closed-form large-t tail of the flow
  variables u, v, H, y and d.
- ``verify_identities``: residuals of two differential identities along a
  flow trajectory, from samples taken by partial DOP853 steps of the
  package's own integrator.
- ``symmetric_counting_asymptotics``: the large-t mean and variance of the
  symmetric count N(t) + N(-t).
- ``kummer_taylor_march``: phi and phi' for |z| <= 34 by stepping Kummer's
  equation point by point in complex scalars, each step's series summed
  from its own start, against which the package's one-pass matrices are
  checked.
- ``b_from_gamma`` and ``c_from_gamma``: the jump exponents b_k and the
  connection coefficients c_k as published, complex.
- ``complex_large_gap_lnF``, ``complex_small_t_lnF``, ``complex_theta_pair``
  and ``complex_moment_asymptotics``: the expansions in the complex
  exponents b_k, c_k and beta as published, with both members of every
  conjugate pair evaluated and an asserted imaginary residue, against which
  the package's real-arithmetic forms (and the flow's seed) are checked.
"""

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from chfdet.asymptotics import (
    AsymptoticReport,
    MomentAsymptotics,
    _gamma_extended,
    _jump_nus,
)
from chfdet.errors import DomainError, RegimeError
from chfdet.kernel import chf_kernel_matrix, sigma_step
from chfdet.painleve import _dop853_step, _rates, _side_weights, _Workspace
from chfdet.specialfn import log_barnes_g, log_barnes_g_d1, log_barnes_g_d2, log_gamma


def bessel_kernel(alpha, x, y):
    """The beta = 0 reduction of the kernel from scipy's Bessel J, in real
    arithmetic: with P(z) = sign(z) sqrt|z| J_{a+1/2}(|z|) and
    Q(z) = sqrt|z| J_{a-1/2}(|z|), K(x, y) = (P(x) Q(y) - Q(x) P(y)) / (2 (x - y)).
    Needs x, y != 0 and x != y."""

    def pq(z):
        mag = np.abs(z)
        root = np.sqrt(mag)
        return np.sign(z) * root * jv(alpha + 0.5, mag), root * jv(alpha - 0.5, mag)

    px, qx = pq(x)
    py, qy = pq(y)
    return (px * qy - qx * py) / (2.0 * (x - y))


def _legendre_and_derivative(n, x):
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(order, lo=-1.0, hi=1.0):
    """The ``order``-point Gauss-Legendre rule on [lo, hi]: the roots of P_n
    by Newton's method from cos(pi (i - 1/4)/(n + 1/2)), with weights
    2 / ((1 - x_i^2) P_n'(x_i)^2), symmetrised and mapped affinely.

    numpy's leggauss is no substitute: its weights are off by about 1e-13
    relative at order 24."""
    n = order
    i = np.arange(1, n + 1, dtype=float)
    x = np.cos(math.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p, dp = _legendre_and_derivative(n, x)
    x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # ascending nodes, exactly antisymmetric
    x = x[::-1].copy()
    x = 0.5 * (x - x[::-1])
    w = w[::-1].copy()
    w = 0.5 * (w + w[::-1])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return mid + half * x, half * w


def _power_map_exponent(alpha):
    """Substitution exponent q for x = e s^q on the origin-adjacent
    intervals: chosen so the transformed density |x|^{2 alpha} dx ~
    s^{q(1+2 alpha)-1} is at least C^1 at s = 0."""
    return max(2, int(math.ceil(3.0 / (1.0 + 2.0 * alpha))))


def _oracle_nodes(config, alpha, n_per_interval):
    """Composite midpoint nodes/weights, independent of build_grid.

    The open rule keeps every node strictly inside its interval: the origin
    (where the kernel branch jumps) and the interval boundaries (where sigma
    jumps) are never sampled. Like the trapezoid rule, the midpoint rule has
    an even Euler-Maclaurin error expansion, so one Richardson step applies
    under mesh doubling. Origin-adjacent intervals are regularized by the
    power substitution x = e s^q when alpha != 0, which turns the |x|^{2 alpha}
    endpoint behavior into an integrand with bounded low-order derivatives.
    """
    edges = config.scaled_endpoints()
    nodes = []
    weights = []
    s = (np.arange(n_per_interval) + 0.5) / n_per_interval
    w = np.full(n_per_interval, 1.0 / n_per_interval)
    for k in range(config.n):
        a, b = edges[k], edges[k + 1]
        if alpha != 0.0 and (a == 0.0 or b == 0.0):
            q = _power_map_exponent(alpha)
            e = b if a == 0.0 else a
            x = e * s**q
            jac = abs(e) * q * s ** (q - 1)
            nodes.append(x)
            weights.append(w * jac)
        else:
            nodes.append(a + (b - a) * s)
            weights.append(w * (b - a))
    return np.concatenate(nodes), np.concatenate(weights)


def _series_value(params, config, terms, n_per_interval):
    nodes, weights = _oracle_nodes(config, params.alpha, n_per_interval)
    # the symmetric Nystrom matrix D K D with D = diag(sqrt(w sigma))
    d = np.sqrt(weights * sigma_step(config, nodes))
    m = (d[:, None] * chf_kernel_matrix(params, nodes)) * d[None, :]
    traces = []
    power = m.copy()
    for _ in range(terms):
        traces.append(float(np.trace(power)))
        power = power @ m
    value = -sum(tr / (j + 1) for j, tr in enumerate(traces))
    return value, m


def _spectral_norm(m, iters=60):
    """Largest singular value by power iteration on M^T M, started from a
    fixed vector (determinism; the all-ones start is never orthogonal to the
    top singular subspace in practice for these positive-density kernels)."""
    n = m.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    est = 0.0
    for _ in range(iters):
        w = m.T @ (m @ v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        est = math.sqrt(nrm)
        v = w / nrm
    return est


def log_det_series_oracle(params, config, terms=5, tol=None, return_bound=False):
    """Truncated trace series for ln det(I - K_sigma), with remainder bound.

    ln det(I - M) = -sum_{j>=1} Tr(M^j)/j; the first ``terms`` traces are
    evaluated on a midpoint grid (refined twice with Richardson), and the
    omitted tail is bounded through |Tr(M^j)| <= |M|_2^{j-2} |M|_F^2. Valid
    only in the small-t regime where the spectral norm is below 1; raises
    RegimeError otherwise, or when ``tol`` is given and the bound exceeds it.

    Returns the value, or (value, bound) when ``return_bound`` is set.
    """
    terms = int(terms)
    if not 1 <= terms <= 8:
        raise DomainError("log_det_series_oracle: terms must be in [1, 8]")
    if config.t == 0.0 or all(g == 0.0 for g in config.gamma):
        return (0.0, 0.0) if return_bound else 0.0
    v_coarse, _ = _series_value(params, config, terms, 64)
    v_mid, _ = _series_value(params, config, terms, 128)
    v_fine, m = _series_value(params, config, terms, 256)
    rich_1 = v_mid + (v_mid - v_coarse) / 3.0
    rich_2 = v_fine + (v_fine - v_mid) / 3.0
    disc_est = abs(rich_2 - rich_1)
    rho = _spectral_norm(m)
    if rho >= 0.95:
        raise RegimeError(
            f"log_det_series_oracle: spectral norm {rho:.3f} too close to 1; outside series regime"
        )
    fro2 = float(np.sum(m * m))
    if terms == 1:
        # |Tr M^j| <= |M|_2^{j-2} |M|_F^2 needs j >= 2; tail starts at j = 2
        tail = fro2 / (2.0 * (1.0 - rho))
    else:
        tail = fro2 * rho ** (terms - 1) / ((terms + 1) * (1.0 - rho))
    bound = tail + 3.0 * disc_est
    if tol is not None and bound > tol:
        raise RegimeError(
            f"log_det_series_oracle: remainder bound {bound:.3e} exceeds requested {tol:.3e}"
        )
    if return_bound:
        return rich_2, bound
    return rich_2


_DEFAULT_T_MATCH = 15.0


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


def _principal_power(x, p):
    """x^p for real nonzero x with the branch taken as the limit from the
    upper half-plane: exp(p (ln|x| + i pi [x < 0]))."""
    if x == 0.0:
        raise DomainError("principal power: requires x != 0")
    log_x = math.log(abs(x)) + (1j * math.pi if x < 0.0 else 0.0)
    return cmath.exp(p * log_x)


def cpv_large_t_prediction(params, config, t, t_match=_DEFAULT_T_MATCH):
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


# The identity monitors sample every _SAMPLE_SPACING / max|r_k| in t: the
# 7-point central stencil's O(dt^6) truncation error is then of order 1e-11,
# so the residuals keep falling with tol down to about tol = 1e-11.
_SAMPLE_SPACING = 0.5 * 1e-11 ** (1.0 / 6.0)
_CENTRAL_7 = (-1.0 / 60.0, 9.0 / 60.0, -45.0 / 60.0, 0.0, 45.0 / 60.0, -9.0 / 60.0, 1.0 / 60.0)


@dataclass(frozen=True)
class IdentityReport:
    """Max-norm residuals of the two differential identities monitored along
    a trajectory: (a) the time derivative of t H against 2i sum r_k u_k v_k,
    and (b) the Hamiltonian relation whose auxiliary-logarithm derivatives
    are expanded through their own differential equations. Only samples at
    t >= 0.1/max|r_k| take part (``points_used`` counts the stencil centres);
    below that every flow quantity still follows the seed's power law."""

    residual_a: float
    residual_b: float
    points_used: int


def verify_identities(trajectory, params, config):
    """Sample the trajectory on the fixed grid
    t_j = (0.1 + j * 0.5 * 1e-11^(1/6)) / max|r_k| inside its time span, each
    sample by one partial DOP853 step from the preceding accepted state,
    differentiate in t with 7-point central stencils and report identity
    residuals in max-norm. The grid does not depend on the trajectory's
    steps, so trajectories of one flow at any tolerance are sampled at the
    same points. Physical rates come from the flow's field by the chain
    rule: dv/dt = dV/ds + V and H = (t H)/t."""
    r_max = max(abs(v) for v in config.r)
    t_first, dt = 0.1 / r_max, _SAMPLE_SPACING / r_max
    times = [state.t for state in trajectory]
    j0 = max(0, math.ceil((times[0] - t_first) / dt))
    j1 = math.floor((times[-1] - t_first) / dt)
    if j1 - j0 + 1 < 9:
        raise DomainError("verify_identities: needs 9 samples at t >= 0.1/max|r_k|")
    t = t_first + dt * np.arange(j0, j1 + 1)
    work = _Workspace(params, config, len(trajectory[0].y))
    z = work.z
    y = np.empty((len(t), z.shape[1]), dtype=complex)
    dy = np.empty_like(y)
    prev = None
    for j, t_j in enumerate(t.tolist()):
        i = max(bisect.bisect_right(times, t_j) - 1, 0)
        if i != prev:
            prev = i
            z[0] = trajectory[i].y
            z[1] = _rates(trajectory[i], params, config, "verify_identities")
        s_i = math.log(times[i])
        y[j] = _dop853_step(s_i, math.log(t_j) - s_i, work)
        dy[j] = z[13]

    a, b = params.alpha, params.beta
    n = len(config.active_indices)
    r = np.array([config.r[k] for k in config.active_indices])
    m = len(t) - 6
    th = dy[:, -1]
    dth = sum(w * th[k : k + m] for k, w in enumerate(_CENTRAL_7)) / dt
    y, dy, t = y[3:-3], dy[3:-3], t[3:-3]
    u = y[:, :n] * t[:, None] ** (2.0 * a)
    v = 1.0 + t[:, None] * y[:, n : 2 * n]
    res_a = np.abs(dth - 2.0j * np.sum(r * u * v, axis=1))
    u_dv = np.sum(u * (dy[:, n : 2 * n] + y[:, n : 2 * n]), axis=1)
    # d1 + d2 and d1 - d2 are t d(log d)/dt and t d(log y)/dt
    logs = a * dy[:, -2] - b * dy[:, -3] - 2.0 * (a * a - b * b)
    res_b = np.abs(u_dv - 2.0 * th[3:-3] / t + dth + logs / t)
    return IdentityReport(
        residual_a=float(np.max(res_a)), residual_b=float(np.max(res_b)), points_used=m
    )


def symmetric_counting_asymptotics(params, t):
    """Large-t mean and variance of the symmetric count N(t) + N(-t):
    mean 2t/pi - alpha, variance (ln 4t + 1 + gamma_E)/pi^2."""
    t = float(t)
    if not t > 0.0:
        raise DomainError("symmetric_counting_asymptotics: requires t > 0")
    d2_at_one = log_barnes_g_d2(0.0).real
    mean = 2.0 * t / math.pi - params.alpha
    var = (math.log(4.0 * t) - d2_at_one) / math.pi**2
    return mean, var


def kummer_taylor_march(a, b, z):
    """(phi(a, b, z), phi'(a, b, z)) for 0 < |z| <= 34, one point at a time
    in Python complex arithmetic: the Kummer series to radius 1, then Taylor
    steps of z w'' + (b - z) w' - a w = 0 along the ray through the radii
    R_{j+1} = R_j + min(R_j/2, 2), and a last step to z. Each step sums
    terms 0..28 of its local series from its own start (w, h w')."""
    a, b, z = complex(a), complex(b), complex(z)
    radius = abs(z)
    u = z / radius
    at = min(radius, 1.0)
    d, w, dw = a / b, 1.0 + 0.0j, a / b
    for k in range(1, 28):
        t = d * (z if radius <= 1.0 else u) / k
        d = t * (a + k) / (b + k)
        w, dw = w + t, dw + d
    while at < radius:
        step = min(at / 2.0, 2.0, radius - at)
        c, h = u * at, u * step
        e0, e1 = w, dw * h
        w, hdw = e0 + e1, e1
        for n in range(27):
            e2 = ((n + a) * h * h / c * e0 - (n + 1) * (n + b - c) * h / c * e1) / ((n + 2) * (n + 1))
            w, hdw = w + e2, hdw + (n + 2) * e2
            e0, e1 = e1, e2
        dw = hdw / h
        at += step
    return w, dw


_TWO_PI_I = 2.0j * math.pi


def _collapse(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-12:
        raise AssertionError(f"{what}: imaginary residue {abs(z.imag):.3e} exceeds 1e-12")
    return float(z.real)


def b_from_gamma(config):
    """Jump exponents b_k = ln((1-gamma_{k-1})/(1-gamma_k)) / (2 pi i) for
    k = 0..n, purely imaginary for real weights below 1; they telescope to
    sum exactly zero."""
    return [-1j * nu for nu in _jump_nus(config)]


def c_from_gamma(config, params):
    """Connection coefficients c_k for k = 0..n.

    For k on either side of m these are scaled weight differences with a
    phase e^{+-beta pi i}; the k = m entry couples the two weights adjacent
    to the origin with the combined phase e^{+-(alpha+beta) pi i}.
    """
    ws = _side_weights(config, params.beta_im)
    ge = _gamma_extended(config)
    m = config.m
    ab = params.alpha + params.beta
    c_m = (1.0 - ge[m]) * cmath.exp(ab * math.pi * 1j) - (1.0 - ge[m + 1]) * cmath.exp(
        -ab * math.pi * 1j
    )
    return [-1j * ws[k] if k != m else c_m for k in range(len(config.r))]


def complex_large_gap_lnF(params, config):
    """The large-t expansion of ln F in the complex exponents b_k and beta,
    with the breakdown of ``chfdet.asymptotics.large_gap_lnF``."""
    if not config.t > 0.0:
        raise DomainError("large_gap_lnF: requires t > 0")
    a, beta = params.alpha, params.beta
    t = config.t
    r = config.r
    m = config.m
    bs = b_from_gamma(config)
    ge = _gamma_extended(config)
    active = config.active_indices

    log_t = math.log(t)
    linear = _collapse(sum(2j * bs[k] * r[k] * t for k in active), "linear term")

    interval_coef = sum(2.0 * beta * bs[k] - 2.0 * bs[k] * bs[k] for k in active)
    interval_const = sum(
        (2.0 * beta * bs[k] - 2.0 * bs[k] * bs[k]) * math.log(abs(2.0 * r[k]))
        for k in active
    )

    pair_coef = 0.0 + 0.0j
    pair_const = 0.0 + 0.0j
    for j in active:
        for k in active:
            if j >= k:
                continue
            pair_coef += -2.0 * bs[j] * bs[k]
            pair_const += -2.0 * bs[j] * bs[k] * math.log(
                abs(2.0 * r[j] * r[k] / (r[k] - r[j]))
            )

    weight_factor = -0.5 * a * math.log((1.0 - ge[m]) * (1.0 - ge[m + 1]))
    barnes_center = (
        log_barnes_g(a + beta + bs[m])
        + log_barnes_g(a - beta - bs[m])
        - log_barnes_g(a + beta)
        - log_barnes_g(a - beta)
    )
    barnes_jumps = sum(log_barnes_g(bs[k]) + log_barnes_g(-bs[k]) for k in active)

    breakdown = (
        ("linear", linear),
        ("interval_log", _collapse(interval_coef, "interval log coefficient") * log_t),
        ("pair_log", _collapse(pair_coef, "pair log coefficient") * log_t),
        ("interval_const", _collapse(interval_const, "interval constants")),
        ("pair_const", _collapse(pair_const, "pair constants")),
        ("weight_factor", weight_factor),
        ("barnes_center", _collapse(barnes_center, "Barnes center block")),
        ("barnes_jumps", _collapse(barnes_jumps, "Barnes jump block")),
    )
    log_term = math.fsum(v for name, v in breakdown if name.endswith("_log"))
    constant_term = math.fsum(
        v for name, v in breakdown if name != "linear" and not name.endswith("_log")
    )
    return AsymptoticReport(
        linear_term=linear,
        log_term=log_term,
        constant_term=constant_term,
        breakdown=breakdown,
    )


def complex_small_t_lnF(params, config, t):
    """The small-t value of ln F in the complex coefficients c_k, with the
    gamma ratio from its three log-gammas."""
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise DomainError("small_t_lnF: requires t >= 0")
    if t == 0.0:
        return 0.0
    a, beta = params.alpha, params.beta
    cs = c_from_gamma(config, params)
    lg_minus, lg_plus, lg_2a = log_gamma([1.0 + a - beta, 1.0 + a + beta, 1.0 + 2.0 * a]).tolist()
    gamma_block = cmath.exp(lg_minus + lg_plus - 2.0 * lg_2a)
    twoa1 = 2.0 * a + 1.0
    total = 0.0 + 0.0j
    for k in config.active_indices:
        total += (
            1j
            * cs[k]
            * gamma_block
            * (2.0 * abs(config.r[k])) ** twoa1
            * t**twoa1
            / (twoa1 * twoa1)
        )
    return _collapse(total, "small-t expansion")


def complex_theta_pair(params):
    """The Barnes G derivative offsets from both conjugate arguments."""
    a, beta = params.alpha, params.beta
    theta1 = _collapse(
        (log_barnes_g_d1(a - beta) - log_barnes_g_d1(a + beta)) / _TWO_PI_I,
        "first G-derivative offset",
    )
    theta2 = _collapse(
        -(log_barnes_g_d2(a + beta) + log_barnes_g_d2(a - beta)) / (4.0 * math.pi**2),
        "second G-derivative offset",
    )
    return theta1, theta2


def complex_moment_asymptotics(params, t, r1, r2=None):
    """The large-t counting statistics with the complex theta pair and
    beta drift; without r2 the covariances are None."""
    a, beta = params.alpha, params.beta
    theta1, theta2 = complex_theta_pair(params)
    mu = t * r1 / math.pi - 0.5 * a
    delta = math.log(2.0 * t * r1)
    beta_drift = _collapse(beta / (1j * math.pi), "jump drift coefficient") * delta
    d2_at_one = log_barnes_g_d2(0.0).real
    var = (delta - 0.5 * d2_at_one) / math.pi**2 + theta2
    cov_same = cov_opposite = None
    if r2 is not None:
        x, y = t * r1, t * r2
        sigma_same = math.log(2.0 * x * y / (y - x)) / (2.0 * math.pi**2)
        sigma_opposite = math.log(2.0 * x * y / (x + y)) / (2.0 * math.pi**2)
        cov_same, cov_opposite = sigma_same + theta2, -sigma_opposite - theta2
    return MomentAsymptotics(
        mean_right=mu + beta_drift + theta1,
        mean_left=mu - beta_drift - theta1,
        var=var,
        cov_same=cov_same,
        cov_opposite=cov_opposite,
    )
