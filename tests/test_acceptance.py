"""End-to-end acceptance checks, one per shipped guarantee.

Every test computes its verdict, prints exactly one PASS/FAIL line with the
measured figure and elapsed time, and then asserts. Run with ``pytest -v``
(add ``-s`` to see the lines for passing tests too).
"""

import math
import time

import numpy as np

from chfdet.asymptotics import large_gap_lnF, moment_asymptotics
from chfdet.fredholm import log_det
from chfdet.kernel import Configuration, KernelParams, chf_kernel
from chfdet.painleve import (
    CPVState,
    cpv_init,
    cpv_integrate,
    hamiltonian,
)
from chfdet.specialfn import (
    digamma,
    kummer_phi,
    log_barnes_g,
    log_gamma,
    trigamma,
)
from chfdet.stats import numeric_covariance, numeric_mean, numeric_variance

from _references import (
    b_from_gamma,
    bessel_kernel,
    cpv_large_t_prediction,
    log_barnes_g_d1,
    log_barnes_g_d2,
    log_det_series_oracle,
    physical_rates,
    rescaled_state,
    symmetric_counting_asymptotics,
    verify_identities,
)

SINE = KernelParams(alpha=0.0, beta_im=0.0)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"acceptance {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _flow_lnf(params, config, tol):
    state = cpv_init(params, config)
    trajectory = cpv_integrate(state, params, config, config.t, tol=tol)
    return complex(trajectory[-1].lnF).real


def test_criterion_01_quadrature_matches_series_oracle():
    # Agreement is judged against the oracle's own truncation bound (plus a
    # 1e-9 quadrature allowance); the bound itself is below 1e-9 for t <= 0.1
    # and grows to ~5e-8 by t = 0.3 with 4 retained traces.
    start = time.perf_counter()
    within_bound = True
    small_t_bound = 0.0
    worst_diff = 0.0
    for t in (0.05, 0.1, 0.2, 0.3):
        config = Configuration(r=(0.0, 1.0), gamma=(0.5,), t=t)
        value, bound = log_det_series_oracle(SINE, config, terms=4, return_bound=True)
        diff = abs(log_det(SINE, config) - value)
        worst_diff = max(worst_diff, diff)
        within_bound = within_bound and diff <= bound + 1e-9
        if t <= 0.1:
            small_t_bound = max(small_t_bound, bound)
    elapsed = time.perf_counter() - start
    ok = within_bound and small_t_bound <= 1e-9 and elapsed < 1.0
    _report(
        1,
        "quadrature vs truncated series",
        ok,
        f"max diff {worst_diff:.3e} within per-point bounds, "
        f"bound at t<=0.1 {small_t_bound:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_flow_matches_quadrature_across_parameter_grid():
    endpoints = {1: (0.0, 1.0), 2: (-1.0, 0.0, 1.0), 3: (-1.0, 0.0, 1.0, 2.0)}
    worst = 0.0
    worst_case = ""
    worst_elapsed = 0.0
    for alpha in (-0.25, 0.0, 0.5):
        for beta_im in (0.0, 0.4):
            params = KernelParams(alpha=alpha, beta_im=beta_im)
            for n in (1, 2, 3):
                start = time.perf_counter()
                gamma = tuple(0.3 if k % 2 == 0 else 0.6 for k in range(n))
                config = Configuration(r=endpoints[n], gamma=gamma, t=5.0)
                diff = abs(_flow_lnf(params, config, tol=1e-9) - log_det(params, config))
                elapsed = time.perf_counter() - start
                worst_elapsed = max(worst_elapsed, elapsed)
                if diff > worst:
                    worst = diff
                    worst_case = f"alpha={alpha}, beta_im={beta_im}, n={n}"
                assert elapsed < 30.0, f"case {alpha}/{beta_im}/{n} took {elapsed:.1f}s"
    ok = worst <= 1e-5 and worst_elapsed < 30.0
    _report(
        2,
        "flow vs quadrature on 18-case grid",
        ok,
        f"worst |diff| {worst:.3e} at {worst_case}, slowest case {worst_elapsed:.1f}s",
    )


def test_criterion_03_expansion_error_decays_like_one_over_t():
    start = time.perf_counter()
    config8 = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.3), t=8.0)
    config16 = config8.replace_t(16.0)
    delta8 = abs(log_det(SINE, config8) - large_gap_lnF(SINE, config8).total)
    delta16 = abs(log_det(SINE, config16) - large_gap_lnF(SINE, config16).total)
    ratio = delta16 / delta8
    elapsed = time.perf_counter() - start
    ok = ratio <= 0.6 and delta8 <= 0.02 and elapsed < 60.0
    _report(
        3,
        "expansion error decay",
        ok,
        f"Delta(8) {delta8:.3e}, Delta(16)/Delta(8) {ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_04_symmetric_two_interval_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(50):
        g = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.5, 40.0))
        params = KernelParams(
            alpha=float(rng.uniform(-0.45, 1.5)), beta_im=float(rng.uniform(-0.7, 0.7))
        )
        config = Configuration(r=(-1.0, 0.0, 1.0), gamma=(g, g), t=t)
        c = -math.log(1.0 - g) / (2.0 * math.pi)
        closed = (
            -4.0 * c * t
            + 2.0 * c * c * math.log(4.0 * t)
            + 2.0 * params.alpha * math.pi * c
            + 2.0 * (log_barnes_g(1j * c) + log_barnes_g(-1j * c)).real
        )
        value = large_gap_lnF(params, config).total
        worst = max(worst, abs(value - closed) / (1.0 + abs(closed)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        4,
        "equal-weight symmetric collapse",
        ok,
        f"worst relative diff {worst:.3e} over 50 draws, {elapsed:.2f}s",
    )


def test_criterion_05_counting_moments_match_predictions():
    start = time.perf_counter()
    t = 10.0
    asym = moment_asymptotics(SINE, t, 1.0, 2.0)
    mean_diff = abs(numeric_mean(SINE, t, 1.0) - asym.mean_right)
    var_diff = abs(numeric_variance(SINE, t, 1.0) - asym.var)
    symmetric_var = (
        numeric_variance(SINE, t, 1.0)
        + numeric_variance(SINE, t, -1.0)
        + 2.0 * numeric_covariance(SINE, t, 1.0, 1.0 + 1e-9, "-")
    )
    _, predicted_var = symmetric_counting_asymptotics(SINE, t)
    combo_diff = abs(symmetric_var - predicted_var)
    elapsed = time.perf_counter() - start
    ok = mean_diff <= 0.02 and var_diff <= 0.05 and combo_diff <= 0.05 and elapsed < 120.0
    _report(
        5,
        "counting statistics",
        ok,
        f"mean diff {mean_diff:.3e}, var diff {var_diff:.3e}, "
        f"symmetric-count diff {combo_diff:.3e}, {elapsed:.1f}s",
    )


def test_criterion_06_flow_field_is_hamiltonian():
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        pts = rng.uniform(-2.0, 2.0, size=n + 1)
        pts[int(rng.integers(0, n + 1))] = 0.0
        r = tuple(np.sort(pts))
        gamma = tuple(rng.uniform(0.05, 0.95, size=n))
        t = float(rng.uniform(0.5, 5.0))
        config = Configuration(t=t, r=r, gamma=gamma)
        params = KernelParams(
            alpha=float(rng.uniform(-0.4, 1.0)), beta_im=float(rng.uniform(-0.7, 0.7))
        )
        active = config.active_indices
        u = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in active])
        v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in active])
        du, dv, _ = physical_rates(t, u, v, params, config)

        def weighted_h(u_arr, v_arr):
            y = rescaled_state(t, u_arr, v_arr, params.alpha)
            probe = CPVState(t=t, indices=active, y=y, alpha=params.alpha)
            return t * hamiltonian(probe, params, config)

        for k in range(n):
            up, um = u.copy(), u.copy()
            up[k], um[k] = u[k] + h, u[k] - h
            grad_u = (weighted_h(up, v) - weighted_h(um, v)) / (2.0 * h)
            vp, vm = v.copy(), v.copy()
            vp[k], vm[k] = v[k] + h, v[k] - h
            grad_v = (weighted_h(u, vp) - weighted_h(u, vm)) / (2.0 * h)
            worst = max(worst, abs(dv[k] - grad_u / t), abs(du[k] + grad_v / t))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 5.0
    _report(
        6,
        "Hamiltonian gradient structure",
        ok,
        f"worst gradient mismatch {worst:.3e} over 100 states, {elapsed:.2f}s",
    )


def test_criterion_07_identity_residual_scales_with_tolerance():
    start = time.perf_counter()
    config = Configuration(r=(0.0, 1.0), gamma=(0.5,), t=5.0)
    tols = (1e-7, 1e-9, 1e-11)
    residuals = []
    for tol in tols:
        state = cpv_init(SINE, config)
        trajectory = cpv_integrate(state, SINE, config, config.t, tol=tol)
        residuals.append(verify_identities(trajectory, SINE, config).residual_a)
    slope = (math.log(residuals[0]) - math.log(residuals[-1])) / (
        math.log(tols[0]) - math.log(tols[-1])
    )
    monotone = residuals[0] > residuals[1] > residuals[2]
    elapsed = time.perf_counter() - start
    ok = 0.6 <= slope <= 1.4 and monotone and elapsed < 60.0
    _report(
        7,
        "identity residual scaling",
        ok,
        f"residuals {residuals[0]:.3e}/{residuals[1]:.3e}/{residuals[2]:.3e}, "
        f"slope {slope:.2f}, {elapsed:.1f}s",
    )


def test_criterion_08_special_function_invariants():
    start = time.perf_counter()
    checks = []

    zs = np.array([0.3j, 4j, -9j, 22j, -13.0 + 0j, 2.0 + 35j])
    for a, b in ((1.5 + 0.4j, 2.0), (0.75 - 0.4j, 0.5)):
        lhs = kummer_phi(a, b, zs)
        rhs = np.exp(zs) * kummer_phi(b - a, b, -zs)
        checks.append(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-11)

    for z in (0.4, 1.3 + 0.8j, -0.2 - 1.1j, 2.5j):
        lhs = log_barnes_g(z + 1.0)
        rhs = log_barnes_g(z) + log_gamma(1.0 + z)
        checks.append(abs(lhs - rhs) < 1e-12)

    for z in (0.3 + 0.4j, -0.7 + 1.2j, 0.85):
        product = np.exp(log_gamma(z) + log_gamma(1.0 - z)) * np.sin(np.pi * z) / np.pi
        checks.append(abs(product - 1.0) < 1e-12)

    h = 1e-6
    for z in (0.8, 1.4 + 0.6j, 2.3 - 0.9j):
        fd = (log_gamma(z + h) - log_gamma(z - h)) / (2.0 * h)
        checks.append(abs(fd - digamma(z)) < 1e-7)
        fd2 = (digamma(z + h) - digamma(z - h)) / (2.0 * h)
        checks.append(abs(fd2 - trigamma(z)) < 1e-6)
        fd_g = (log_barnes_g(z + h) - log_barnes_g(z - h)) / (2.0 * h)
        checks.append(abs(fd_g - log_barnes_g_d1(z)) < 1e-7)
        fd_g2 = (log_barnes_g_d1(z + h) - log_barnes_g_d1(z - h)) / (2.0 * h)
        checks.append(abs(fd_g2 - log_barnes_g_d2(z)) < 1e-6)

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 5.0
    _report(
        8,
        "special-function invariants",
        ok,
        f"{sum(checks)}/{len(checks)} identities hold, {elapsed:.2f}s",
    )


def test_criterion_09_kernel_reductions():
    start = time.perf_counter()
    xs = np.linspace(-3.0, 3.0, 50)
    ys = np.linspace(-2.5, 3.5, 50) + 0.0123
    sine = np.sinc((xs[:, None] - ys[None, :]) / np.pi) / np.pi
    sine_diff = np.max(np.abs(chf_kernel(SINE, xs[:, None], ys[None, :]) - sine))
    bessel_diff = 0.0
    for alpha in (0.25, 0.5, 1.0):
        params = KernelParams(alpha=alpha, beta_im=0.0)
        xb = np.linspace(-3.0, 3.0, 50)
        xb = xb[xb != 0.0]
        yb = xb + 0.0567
        diff = np.max(
            np.abs(
                chf_kernel(params, xb[:, None], yb[None, :])
                - bessel_kernel(alpha, xb[:, None], yb[None, :])
            )
        )
        bessel_diff = max(bessel_diff, diff)
    elapsed = time.perf_counter() - start
    ok = sine_diff < 1e-11 and bessel_diff < 1e-9 and elapsed < 5.0
    _report(
        9,
        "kernel reductions",
        ok,
        f"sine diff {sine_diff:.3e}, Bessel diff {bessel_diff:.3e}, {elapsed:.2f}s",
    )


def test_criterion_10_hamiltonian_tail_matches_asymptote():
    start = time.perf_counter()
    config = Configuration(r=(0.0, 1.0), gamma=(0.5,), t=20.0)
    state = cpv_init(SINE, config)
    trajectory = cpv_integrate(state, SINE, config, 20.0, tol=1e-8)
    h_numeric = hamiltonian(trajectory[-1], SINE, config)

    bs = b_from_gamma(config)
    leading = sum(2.0j * bs[k] * config.r[k] for k in range(len(config.r)))
    subleading_size = abs(sum(b * b for b in bs) + 2.0 * SINE.beta * bs[config.m]) / 20.0
    # the same leading term as produced by the closed-form predictor
    assert abs(leading - cpv_large_t_prediction(SINE, config, 1e12).H) <= 1e-13

    ratio = abs(h_numeric - leading) / subleading_size
    elapsed = time.perf_counter() - start
    ok = 0.9 <= ratio <= 1.1 and elapsed < 60.0
    _report(
        10,
        "Hamiltonian tail",
        ok,
        f"residual/prediction ratio {ratio:.3f} at t=20, {elapsed:.1f}s",
    )


def test_criterion_11_flow_matches_quadrature_at_alpha_edges():
    # alpha = -0.45 and 1.5 at t = 5 and 60 over one to three intervals, with
    # criterion 02's layouts and weights; at t = 5 the error must also follow tol
    endpoints = {1: (0.0, 1.0), 2: (-1.0, 0.0, 1.0), 3: (-1.0, 0.0, 1.0, 2.0)}
    start = time.perf_counter()
    worst = {(t, tol): 0.0 for t, tol in ((5.0, 1e-9), (60.0, 1e-9), (5.0, 1e-11))}
    for alpha in (-0.45, 1.5):
        params = KernelParams(alpha=alpha, beta_im=0.3)
        for n in (1, 2, 3):
            gamma = tuple(0.3 if k % 2 == 0 else 0.6 for k in range(n))
            for t in (5.0, 60.0):
                config = Configuration(r=endpoints[n], gamma=gamma, t=t)
                reference = log_det(params, config)
                for tol in (1e-9, 1e-11) if t == 5.0 else (1e-9,):
                    diff = abs(_flow_lnf(params, config, tol=tol) - reference)
                    worst[t, tol] = max(worst[t, tol], diff)
    elapsed = time.perf_counter() - start
    worst_default = max(worst[5.0, 1e-9], worst[60.0, 1e-9])
    gain = worst[5.0, 1e-9] / worst[5.0, 1e-11]
    ok = worst_default <= 1e-6 and gain >= 30.0 and elapsed < 60.0
    _report(
        11,
        "flow vs quadrature at the alpha edges",
        ok,
        f"worst |diff| {worst[5.0, 1e-9]:.3e} at t=5, {worst[60.0, 1e-9]:.3e} at t=60, "
        f"{gain:.0f}x smaller at tol 1e-11, {elapsed:.1f}s",
    )
