"""Complex special functions built from scratch in double precision.

Provided here: principal-branch log-gamma, digamma, trigamma, the Kummer
confluent hypergeometric function phi(a, b, z) and its z-derivative, and
the Barnes log-G function with its first two derivatives in closed form.
The gamma family, and phi in z, take a complex scalar or a numpy array of
points and return a value per point; the Barnes functions take a scalar.
All target ~1e-13 relative accuracy on the documented domains
(|Im z| <= 50, |z| <= 50 for phi). The tests check each function against
mpmath.

The evaluation strategies follow the classical playbook: for the gamma
family, each point on its own in complex scalars (callers pass one to a
hundred points, too few for numpy to pay its per-call cost), shifted by
the fewest unit steps into the Stirling zone |w| >= 10 or reflected from
Re z < 0.5; for phi, Taylor steps of Kummer's equation along the ray from
0 to z up to |z| = 34 (to -z, through Kummer's transformation, where
Re z < 0), each carrying phi and phi' together, and the asymptotic
expansion beyond, its optimal truncation taken over all 64
terms at once; and a gamma-integral representation for Barnes G. The
Taylor steps stay in plain double: the Kummer series summed at once on the
imaginary axis cancels terms of size e^{|z|} down to an O(1) sum, while a
step of length at most 2 sums terms of size at most 2. The steps run
through fixed radii, so all points on one ray share them. A step is linear
in its start (phi, h phi'), so every step of a call, each ray's march
steps and each point's last one, is a lane of one vectorised pass of the
coefficient recurrence run from the two unit starts, which gives each
step's 2x2 matrix; a ray's march then only multiplies by its matrices, in
complex scalars. Every branch gets phi' from phi's own terms: the seed
series and the steps carry it, and the asymptotic expansion differentiates
its two series term by term. Left of the imaginary axis, phi' is
(a/b) e^z phi(b - a, b + 1, -z) from a second march: e^z (phi~ - phi~')
from the transformed pair would cancel up to |z/a|-fold.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NonConvergenceError, RegimeError
from .quadrules import gauss_jacobi

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "rgamma",
    "kummer_phi",
    "kummer_phi_prime",
    "log_barnes_g",
    "log_barnes_g_d1",
    "log_barnes_g_d2",
]

_LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)

# B_{2n} for n = 1..10
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)

_POLE_TOL = 1e-14

# The Stirling sums of the gamma family are used at |w| >= 10; on
# Re z >= 0.5 the shift into that zone takes at most 10 unit steps.
_STIRLING_RADIUS = 10.0
# their coefficients of (1/w^2)^{n-1}, n = 1..10: B_{2n}/((2n)(2n-1)) for
# log_gamma and B_{2n}/(2n) for digamma; trigamma's are the B_{2n}
_LOG_GAMMA_COEFFS = tuple(b / ((2 * n) * (2 * n - 1)) for n, b in enumerate(_BERNOULLI, 1))
_DIGAMMA_COEFFS = tuple(b / (2 * n) for n, b in enumerate(_BERNOULLI, 1))

# crossover radius of the Kummer Taylor/asymptotic switch: the asymptotic
# expansion's optimal truncation leaves about 0.6 e^{-|z|}, under 1e-14 of
# phi from |z| = 34 on
_PHI_TAYLOR_RADIUS = 34.0

# Kummer Taylor branch. The series is used out to radius 1, where its terms
# fall like 1/k! from the start.
_PHI_SEED_RADIUS = 1.0
# Each ODE step is at most half its centre's radius, so the component of
# the non-entire second solution z^{1-b} that rounding excites sums like
# 2^{-n} in the local series, and at most 2 long, so the entire part's
# terms (about |h|^n/n!) never exceed 2 and sum without cancellation.
_PHI_STEP_FRACTION = 0.5
_PHI_STEP_CAP = 2.0
# terms k = 0..27 of the seed series and n = 0..28 of each Taylor step: in
# a step of length 2 the last two, about 2^27/27! = 1e-20 times a factor
# polynomial in n, pass the tail test for |a|, |b| up to about 5; the seed
# series at radius 1 ends far lower
_PHI_TERMS = 28
# a local series whose last two terms exceed this share of |phi| + |h phi'|
# has not converged; below it, each further term is at most |h|/n < 0.1 of
# the one before, so what the sum leaves out is under about 1e-16
_PHI_TAIL_TOL = 1e-15
# the n = 0..26 of a Taylor step's recurrence, and 1/((n+2)(n+1)) for its
# terms n + 2 = 2..28
_PHI_STEP_ORDERS = np.arange(_PHI_TERMS - 1)[:, None]
_PHI_INV_PAIR = tuple(1.0 / ((n + 2) * (n + 1)) for n in range(_PHI_TERMS - 1))


def _phi_radii():
    # R_0 = seed radius, R_{j+1} = R_j + min(R_j/2, 2), up to the switch
    radii = [_PHI_SEED_RADIUS]
    while True:
        nxt = radii[-1] + min(_PHI_STEP_FRACTION * radii[-1], _PHI_STEP_CAP)
        if nxt >= _PHI_TAYLOR_RADIUS:
            return tuple(radii)
        radii.append(nxt)


# the march's radii below the switch (1, 1.5, 2.25, ..., 33.0625)
_PHI_RADII = np.array(_phi_radii())
# terms of each asymptotic sum before the optimal truncation must stop
_ASYMPTOTIC_TERMS = 64


def _as_c_array(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _restore(arr, scalar):
    if scalar:
        return complex(arr[()])
    return arr


def _each_point(point, z):
    """point(w) at every point w of a complex scalar or array z, each in
    complex scalars: a complex for a scalar, else an array of z's shape. So
    no value depends on the rest of its batch."""
    arr = np.asarray(z, dtype=complex)
    vals = [point(w) for w in arr.ravel().tolist()]
    return vals[0] if arr.ndim == 0 else np.array(vals, dtype=complex).reshape(arr.shape)


def _check_pole(w, name):
    """Raise when w sits within the pole tolerance of a non-positive integer
    (each point with Re w < 0.5 is checked before its reflection)."""
    k = round(w.real)
    if k <= 0 and abs(w - k) < _POLE_TOL:
        raise DomainError(f"{name}: argument within {_POLE_TOL:g} of a non-positive integer pole")


def _shift(z):
    """The smallest n >= 0 with |z + n| >= 10, for Re z >= 0.5: then
    log_gamma(z) = log_gamma(z + n) - sum_{k < n} log(z + k). The smallest
    shift keeps |w| and with it the rounding of the Stirling sum least."""
    y2 = min(z.imag * z.imag, _STIRLING_RADIUS**2)
    return max(math.ceil(math.sqrt(_STIRLING_RADIUS**2 - y2) - z.real), 0)


def _horner(coeffs, u):
    # sum_j coeffs[j] u^j
    s = 0.0
    for c in reversed(coeffs):
        s = s * u + c
    return s


def _log_gamma_right(z):
    # principal branch for Re z >= 0.5
    n = _shift(z)
    w = z + n
    shift = 0j
    for k in range(n):
        shift += cmath.log(z + k)
    tail = _horner(_LOG_GAMMA_COEFFS, 1.0 / (w * w)) / w
    return (w - 0.5) * cmath.log(w) - w + 0.5 * _LN_2PI + tail - shift


def _log_gamma_point(z):
    if z.real >= 0.5:
        return _log_gamma_right(z)
    _check_pole(z, "log_gamma")
    # the reflection, taken at the Im >= 0 point u of each conjugate pair, so
    # conjugate arguments give bitwise conjugate values. There
    # log sin(pi u) = i pi (1/2 - u) - log 2 + log(1 - e^{2 i pi u}) is
    # analytic and continuous, and on the real axis the upper-side limit.
    flip = z.imag < 0.0
    u = z.conjugate() if flip else z
    log_sin = 1j * math.pi * (0.5 - u) - _LN_2 + cmath.log(1.0 - cmath.exp(2j * math.pi * u))
    val = _LN_PI - log_sin - _log_gamma_right(1.0 - u)
    return val.conjugate() if flip else val


def log_gamma(z):
    """Principal-branch log-gamma, analytic on the plane cut along the
    non-positive real axis; on the cut, the limit from above is returned.

    Satisfies log_gamma(z + 1) = log_gamma(z) + log(z) with the principal
    logarithm everywhere off the cut.
    """
    return _each_point(_log_gamma_point, z)


def _rgamma_point(z):
    try:
        return cmath.exp(-_log_gamma_point(z))
    except DomainError:
        return 0j
    except OverflowError:
        return complex(math.inf)


def rgamma(z):
    """Reciprocal gamma 1/Gamma(z); entire, so poles of gamma map to 0.
    Where 1/Gamma(z) overflows double the value is inf + 0j, whatever its
    true phase, for the caller's finiteness check."""
    return _each_point(_rgamma_point, z)


def _digamma_right(z):
    n = _shift(z)
    w = z + n
    u = 1.0 / (w * w)
    shift = 0j
    for k in range(n):
        shift += 1.0 / (z + k)
    return cmath.log(w) - 0.5 / w - u * _horner(_DIGAMMA_COEFFS, u) - shift


def _digamma_point(z):
    if z.real >= 0.5:
        return _digamma_right(z)
    _check_pole(z, "digamma")
    return _digamma_right(1.0 - z) - math.pi / cmath.tan(math.pi * z)


def digamma(z):
    """Digamma psi(z) = d/dz log_gamma(z)."""
    return _each_point(_digamma_point, z)


def _trigamma_right(z):
    n = _shift(z)
    w = z + n
    u = 1.0 / (w * w)
    shift = 0j
    for k in range(n):
        shift += 1.0 / ((z + k) * (z + k))
    return 1.0 / w + 0.5 * u + u * _horner(_BERNOULLI, u) / w + shift


def _trigamma_point(z):
    if z.real >= 0.5:
        return _trigamma_right(z)
    _check_pole(z, "trigamma")
    s = cmath.sin(math.pi * z)
    return (math.pi * math.pi) / (s * s) - _trigamma_right(1.0 - z)


def trigamma(z):
    """Trigamma psi'(z) = d/dz digamma(z)."""
    return _each_point(_trigamma_point, z)


def _phi_series_pair(a, b, z):
    """phi and phi' from the Kummer series itself, for |z| <= _PHI_SEED_RADIUS,
    over an array z.

    d_k = (a)_{k+1} z^k / ((b)_{k+1} k!) is the k-th term of phi', and the
    k-th term of phi is d_{k-1} z / k, so one recurrence serves both sums.
    At z = 0 the result is exactly (1, a/b).
    """
    d = a / b
    phi = 1.0
    dphi = d
    for k in range(1, _PHI_TERMS):
        t = d * z / k
        d = t * ((a + k) / (b + k))
        phi = phi + t
        dphi = dphi + d
    _check_tail(t, d, phi, dphi, "series")
    return phi, dphi


def _phi_step_terms(a, b, c, h):
    """Taylor steps of Kummer's equation z w'' + (b - z) w' - a w = 0 about c
    (DLMF 13.2.1), one step from c to c + h per lane of the arrays c, h.

    With e_n = c_n h^n the coefficient recurrence
    c_{n+2} = ((n+a) c_n - (n+1)(n+b-c) c_{n+1}) / (c (n+2)(n+1)) reads
    e_{n+2} = ((n+a) h q e_n - (n+1)(n q + (b-c) q) e_{n+1}) / ((n+2)(n+1))
    with q = h/c; then w(c+h) = sum e_n and h w'(c+h) = sum n e_n. The terms
    are linear in the start (e_0, e_1) = (w, h w'), so the recurrence runs
    from (1, 0) and from (0, 1) at once, row s of each array holding start
    s. Returns the step's matrix, m[0, s] = sum_n e_n and m[1, s] =
    sum_n n e_n, and the last two terms, tail[0, s] = e_27 and tail[1, s]
    = e_28. The sums run term by term, so no lane's figures depend on the
    other lanes.
    """
    q = h / c
    hq = h * q
    bq = (b - c) * q
    n = _PHI_STEP_ORDERS
    ca = (n + a) * hq
    cb = (n + 1) * (n * q + bq)
    e0 = np.zeros((2, c.size), dtype=complex)
    e1 = np.zeros_like(e0)
    e0[0] = 1.0
    e1[1] = 1.0
    val = e0 + e1
    der = e1.copy()
    for order, ca_n, cb_n, inv in zip(range(2, _PHI_TERMS + 1), ca, cb, _PHI_INV_PAIR):
        e2 = ca_n * e0
        e2 -= cb_n * e1
        e2 *= inv
        val += e2
        der += order * e2
        e0, e1 = e1, e2
    return np.stack((val, der)), np.stack((e0, e1))


def _phi_combine(m, w, e1):
    # the figures m of the two unit starts, combined for the start (w, h w') = (w, e1)
    return w * m[..., 0, :] + e1 * m[..., 1, :]


def _check_tail(t1, t2, val, der, what):
    # t1, t2: the last two terms of each local series, from its own start
    if np.any(abs(t1) + abs(t2) > _PHI_TAIL_TOL * (abs(val) + abs(der))):
        raise NonConvergenceError(f"kummer_phi: {what} did not converge in its term limit")


def _phi_pair_taylor(a, b, z):
    """phi and phi' for |z| <= _PHI_TAYLOR_RADIUS.

    Points with |z| <= _PHI_SEED_RADIUS take the series. Every other point
    lies on a ray u = z/|z|, which is marched from the series at radius
    R_0 = _PHI_SEED_RADIUS through the fixed radii _PHI_RADII; each point
    then takes one step from the largest radius strictly below |z|. Every
    step of the call, each march step (u R_j, u (R_{j+1} - R_j)) and each
    point's last step, is one lane of a single _phi_step_terms pass, which
    gives its 2x2 matrix. Each ray's march then multiplies (phi, h phi') by
    its matrices in complex scalars, only as far as its points need. The
    radii depend on nothing but the constants, a ray's march on nothing but
    its direction and a lane on nothing but its own step, so every point
    follows the same arithmetic whatever else is in the batch.
    """
    rho = np.abs(z)
    phi = np.empty_like(z)
    dphi = np.empty_like(z)
    near = np.flatnonzero(rho <= _PHI_SEED_RADIUS)
    far = np.flatnonzero(rho > _PHI_SEED_RADIUS)
    zf, rf = z[far], rho[far]
    # z/|z| part by part in real division, so kernel nodes give exactly
    # +-1j; adding 0.0 turns -0.0 into +0.0, so each ray has one key
    unit = np.empty_like(zf)
    unit.real = zf.real / rf + 0.0
    unit.imag = zf.imag / rf + 0.0
    rays, ray_of = np.unique(unit, return_inverse=True)
    # the near points and every ray's start at radius R_0 in one series
    seed, dseed = _phi_series_pair(a, b, np.concatenate((z[near], rays)))
    phi[near], dphi[near] = seed[: near.size], dseed[: near.size]
    if not far.size:
        return phi, dphi
    level = np.searchsorted(_PHI_RADII, rf) - 1
    # march steps j < top[r] of each ray r, whose points start at radii up
    # to R_top[r], ray by ray: lane first[r] + j
    top = np.zeros(rays.size, dtype=int)
    np.maximum.at(top, ray_of, level)
    first = np.cumsum(top) - top
    march = int(top.sum())
    lane_ray = np.repeat(np.arange(rays.size), top)
    lane_level = np.arange(march) - first[lane_ray]
    # then one lane per point; every lane runs from radius R_j to the next
    # radius or to |z|
    u = np.concatenate((rays[lane_ray], rays[ray_of]))
    inner = np.concatenate((_PHI_RADII[lane_level], _PHI_RADII[level]))
    outer = np.concatenate((_PHI_RADII[lane_level + 1], rf))
    h = u * (outer - inner)
    m, tail = _phi_step_terms(a, b, u * inner, h)
    # the march, in complex scalars; ray r's state at radius R_j is entry
    # first[r] + r + j of the states
    mats = m[..., :march].reshape(4, march).T.tolist()
    steps = h[:march].tolist()
    states_w, states_dw = [], []
    for w, dw, lo, hi in zip(seed[near.size :].tolist(), dseed[near.size :].tolist(), first.tolist(),
                             (first + top).tolist()):
        states_w.append(w)
        states_dw.append(dw)
        for (m00, m01, m10, m11), hj in zip(mats[lo:hi], steps[lo:hi]):
            e1 = dw * hj
            w, dw = m00 * w + m01 * e1, (m10 * w + m11 * e1) / hj
            states_w.append(w)
            states_dw.append(dw)
    # every lane's start (phi, h phi'): the march steps', then the points'
    at = np.concatenate((np.arange(march) + lane_ray, first[ray_of] + ray_of + level))
    start_w = np.array(states_w)[at]
    start_e1 = np.array(states_dw)[at] * h
    val = _phi_combine(m[0], start_w, start_e1)
    der = _phi_combine(m[1], start_w, start_e1)
    tail = _phi_combine(tail, start_w, start_e1)
    _check_tail(tail[0], tail[1], val, der, "Taylor step")
    phi[far] = val[march:]
    dphi[far] = der[march:] / h[march:]
    return phi, dphi


def _optimal_sum(ratio_num1, ratio_num2, denom_z):
    """sum_k (r1)_k (r2)_k / (k! denom_z^k) over the points denom_z, cut
    at its optimal truncation, the same sum with term k weighted by k, and
    a bound on what the cut leaves out.

    Row k, column i of the arrays holds term k at point i and the partial
    sum through it. A point stops before its first growing term (bound:
    the last term kept) or at its first term below 1e-20 of the partial
    sum (bound: that term); with no stop, all _ASYMPTOTIC_TERMS terms are
    summed (bound: the last).
    """
    n = np.arange(_ASYMPTOTIC_TERMS)
    cols = np.arange(denom_z.size)
    ratio = ((ratio_num1 + n) * (ratio_num2 + n) / (n + 1))[:, None] * (1.0 / denom_z)
    terms = np.empty((_ASYMPTOTIC_TERMS + 1, denom_z.size), dtype=complex)
    terms[0] = 1.0
    np.cumprod(ratio, axis=0, out=terms[1:])
    sums = np.cumsum(terms, axis=0)
    ksums = np.cumsum(np.arange(_ASYMPTOTIC_TERMS + 1.0)[:, None] * terms, axis=0)
    mag = np.abs(terms)
    growing = mag[1:] >= mag[:-1]
    stop = growing | (mag[1:] < 1e-20 * np.abs(sums[1:]))
    k = np.argmax(stop, axis=0)
    last = np.where(stop[k, cols], k + 1 - growing[k, cols], _ASYMPTOTIC_TERMS)
    return sums[last, cols], ksums[last, cols], mag[last, cols]


def _phi_asymptotic_pair(a, b, z):
    """Large-|z| expansion of phi(a, b, z), a decaying series in
    z^{-a} (-z)^{-k} plus a growing one in e^z z^{a-b-k}, each cut at its
    optimal truncation, and phi' from the same terms differentiated one by
    one: d/dz z^{-a} (-z)^{-k} = -(a + k)/z times the term, and
    d/dz e^z z^{a-b-k} = 1 + (a - b - k)/z times it.

    One rgamma call over b - a and a maps the factors of an a at a pole of
    gamma, where phi is a polynomial, to 0. What the cut leaves out of phi'
    is bounded by the cut terms times 1 + (|a| + |b - a| + 64)/|z|.
    """
    upper = np.angle(z) > -math.pi / 2.0
    phase = np.where(upper, np.exp(1j * math.pi * a), np.exp(-1j * math.pi * a))
    rg_ba, rg_a = rgamma([b - a, a]).tolist()
    gam_b = complex(np.exp(log_gamma(b)))
    decay = phase * np.power(z, -a) * rg_ba
    grow = np.exp(z) * np.power(z, a - b) * rg_a
    s1, k1, b1 = _optimal_sum(a, 1.0 + a - b, -z)
    s2, k2, b2 = _optimal_sum(b - a, 1.0 - a, z)
    val = gam_b * (decay * s1 + grow * s2)
    der = gam_b * (grow * s2 - (decay * (a * s1 + k1) - grow * ((a - b) * s2 - k2)) / z)
    err = abs(gam_b) * (np.abs(decay) * b1 + np.abs(grow) * b2)
    der_err = err * (1.0 + (abs(a) + abs(b - a) + _ASYMPTOTIC_TERMS) / np.abs(z))
    for v, e in ((val, err), (der, der_err)):
        if np.any(e > 3e-11 * np.maximum(np.abs(v), 1e-290)):
            raise RegimeError("kummer_phi: asymptotic branch cannot reach the accuracy target here")
    return val, der


def _kummer_pair(a, b, z):
    """(phi, phi') of phi(a, b, z) over a complex scalar or array z."""
    a = complex(a)
    b = complex(b)
    kb = round(b.real)
    if kb <= 0 and abs(b - kb) < _POLE_TOL:
        raise DomainError("kummer_phi: b within pole tolerance of a non-positive integer")
    arr, scalar = _as_c_array(z)
    flat = np.ravel(arr).copy()
    phi = np.empty_like(flat)
    dphi = np.empty_like(flat)
    small = np.abs(flat) <= _PHI_TAYLOR_RADIUS
    # left of the imaginary axis phi can be recessive, ~e^z, below a march's
    # rounding; Kummer's transformation (DLMF 13.2.39) marches to -z instead.
    # Kernel nodes, with real part +-0.0, stay on the direct march.
    left = small & (flat.real < 0.0)
    right = small & ~left
    # e^z overflows past Re z = 709.8; the result is then checked instead
    with np.errstate(over="ignore", invalid="ignore"):
        if right.any():
            phi[right], dphi[right] = _phi_pair_taylor(a, b, flat[right])
        if left.any():
            ez = np.exp(flat[left])
            phi[left] = ez * _phi_pair_taylor(b - a, b, -flat[left])[0]
            dphi[left] = a / b * ez * _phi_pair_taylor(b - a, b + 1.0, -flat[left])[0]
        large = ~small
        if large.any():
            phi[large], dphi[large] = _phi_asymptotic_pair(a, b, flat[large])
    if not (np.isfinite(phi).all() and np.isfinite(dphi).all()):
        raise RegimeError("kummer_phi: phi or phi' is not finite in double here")
    return _restore(phi.reshape(arr.shape), scalar), _restore(dphi.reshape(arr.shape), scalar)


def kummer_phi(a, b, z):
    """Confluent hypergeometric function phi(a, b, z) (the regular solution
    with phi(a, b, 0) = 1, series sum_k (a)_k z^k / ((b)_k k!)).

    a, b are complex scalars, z a complex scalar or array. For |z| <= 34
    the value comes from Taylor steps of Kummer's equation along the ray
    from 0 to z, in plain double: each distinct direction z/|z| in the
    batch is marched through 19 fixed radii, and every point then takes
    one last step. All steps of a call run as the lanes of one vectorised
    pass, which gives each step's 2x2 matrix, so a ray's march is a few
    complex-scalar multiplies per radius: the 72 kernel nodes of a typical
    call (z = 2ix, two rays) take about 0.5 ms, and 2000 random directions
    in |z| <= 34 about 0.07 s. A point with Re z < 0 marches to -z instead
    (twice, for phi and for phi') and takes phi = e^z phi(b - a, b, -z),
    which keeps a recessive phi (~e^z) accurate. The local series converge
    in their fixed term count for |a|, |b| up to about 5 (the tests draw
    |Re a|, |Im a| <= 5 and Re b in [0.3, 5], |Im b| <= 1). Beyond |z| = 34
    the value comes from the asymptotic expansion, whose optimal truncation
    leaves about 0.6 e^{-|z|}. For the kernel's parameters
    (a = 1 + alpha + i beta_im, b = 1 + 2 alpha with alpha in
    [-0.45, 1.5], |beta_im| <= 0.7, and z = 2ix) phi and phi' measured
    within 6.2e-15 relative of 40-digit mpmath values for |z| <= 34 and
    within 1.01e-14 for 34 < |z| <= 600. Raises DomainError when b sits at
    a non-positive integer pole, NonConvergenceError / RegimeError when a
    branch cannot meet its accuracy contract (outside ~|z| <= 50 this may
    happen for extreme parameter values), and RegimeError when phi or phi'
    is not finite in double (e^z overflows for Re z > 709.8).
    """
    return _kummer_pair(a, b, z)[0]


def kummer_phi_prime(a, b, z):
    """d/dz phi(a, b, z), from the same evaluation as kummer_phi: the ODE
    steps carry phi' along with phi for |z| <= 34 (with Re z < 0 it is
    (a/b) e^z phi(b - a, b + 1, -z), from a second march), and beyond that
    it is phi's asymptotic expansion differentiated term by term."""
    return _kummer_pair(a, b, z)[1]


def log_barnes_g(z):
    """log G(1+z) for Re z > -1 (principal analytic branch, log G(1+0) = 0).

    Evaluated through the closed form with a gamma-log integral,

        log G(1+z) = z/2 log(2 pi) - z(z+1)/2 + z log_gamma(1+z)
                     - integral_0^z log_gamma(1+t) dt,

    the integral running along the straight segment from 0 to z with
    composite 32-point Gauss-Legendre panels, ``gauss_jacobi(32, 0)`` (the
    integrand is analytic there for Re z > -1). The tests check it against
    mpmath's barnesg, its log continued along the same segment.
    """
    z = complex(z)
    if z.real <= -1.0 + _POLE_TOL:
        raise DomainError("log_barnes_g: requires Re z > -1")
    if z == 0.0:
        return 0.0 + 0.0j
    npanels = max(1, int(math.ceil(abs(z) / 1.5)))
    xg, wg = gauss_jacobi(32, 0.0)
    s_edges = np.linspace(0.0, 1.0, npanels + 1)
    width = np.diff(s_edges)
    s = s_edges[:-1, None] + width[:, None] * xg
    # every panel node and 1 + z in one call
    vals = log_gamma(np.append(1.0 + z * s, 1.0 + z))
    integral = z * complex(width @ (vals[:-1].reshape(s.shape) @ wg))
    return 0.5 * z * _LN_2PI - 0.5 * z * (z + 1.0) + z * complex(vals[-1]) - integral


def log_barnes_g_d1(z):
    """First derivative of log G(1+z):  (1/2)log(2 pi) - 1/2 - z + z psi(1+z)."""
    z = complex(z)
    return 0.5 * _LN_2PI - 0.5 - z + z * digamma(1.0 + z)


def log_barnes_g_d2(z):
    """Second derivative of log G(1+z):  -1 + psi(1+z) + z psi'(1+z)."""
    z = complex(z)
    return -1.0 + digamma(1.0 + z) + z * trigamma(1.0 + z)
