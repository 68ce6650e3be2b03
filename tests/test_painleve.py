"""Tests for the coupled flow module: vector field, Hamiltonian structure,
initialization, adaptive integration, identity monitors, and agreement with
the closed-form large-time predictions."""

import math
import sys

import numpy as np
import pytest

from chfdet import asymptotics, kernel, painleve
from chfdet.errors import DomainError, NonConvergenceError, RegimeError
from chfdet.fredholm import log_det
from chfdet.kernel import Configuration, KernelParams
from chfdet.painleve import (
    CPVState,
    cpv_init,
    cpv_integrate,
    hamiltonian,
)

from _references import (
    complex_small_t_limits,
    complex_small_t_lnF,
    cpv_large_t_prediction,
    physical_rates,
    rescaled_state,
    verify_identities,
)

SINE = KernelParams(alpha=0.0, beta_im=0.0)
SINE_CFG = Configuration(t=5.0, r=(0.0, 1.0), gamma=(0.5,))
TWO_INT = KernelParams(alpha=0.3, beta_im=0.2)
TWO_INT_CFG = Configuration(t=5.0, r=(-1.0, 0.0, 1.0), gamma=(0.4, 0.4))


def _integrate_to(params, config, t1, tol=1e-9):
    state0 = cpv_init(params, config)
    return cpv_integrate(state0, params, config, t1, tol=tol)


def pv5_weighted_hamiltonian(u, v, s, alpha, beta):
    """The product s * H_V(u, v, s; alpha, beta) of the single Painleve V
    Hamiltonian: -s u v - alpha u (v^2 - 1) - beta u (v - 1)^2 + u^2 v (v - 1)^2."""
    return (
        -s * u * v
        - alpha * u * (v * v - 1.0)
        - beta * u * (v - 1.0) ** 2
        + u * u * v * (v - 1.0) ** 2
    )


class TestStateAndRates:
    def test_state_requires_positive_finite_time(self):
        for bad_t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                CPVState(t=bad_t, indices=(), y=np.zeros(3), alpha=0.0)

    def test_zero_solution_is_stationary_except_logs(self):
        params = KernelParams(alpha=0.3, beta_im=0.2)
        cfg = Configuration(t=2.0, r=(0.0, 1.0), gamma=(0.0,))
        du, dv, (dlog_y, dlog_d, dlnf) = physical_rates(2.0, [0.0j], [1.0 + 0j], params, cfg)
        assert du == 0.0
        # the empty channel still carries the pure phase rotation dv = 2 i r v
        assert dv == 2.0j
        assert dlnf == 0.0
        # the auxiliary logarithms keep their constant-coefficient drift
        assert dlog_y == pytest.approx(2.0 * params.beta / 2.0, abs=1e-16)
        assert dlog_d == pytest.approx(2.0 * params.alpha / 2.0, abs=1e-16)

    def test_single_interval_hamiltonian_reduces_to_weighted_form(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        t = 1.7
        cfg = Configuration(t=t, r=(0.0, 1.3), gamma=(0.4,))
        u, v = 0.3 - 0.2j, 1.1 + 0.4j
        y = rescaled_state(t, [u], [v], params.alpha)
        state = CPVState(t=t, indices=(1,), y=y, alpha=params.alpha)
        expected = pv5_weighted_hamiltonian(u, v, -2.0j * t * 1.3, params.alpha, params.beta) / t
        assert hamiltonian(state, params, cfg) == pytest.approx(expected, rel=1e-15)

    def test_rhs_matches_hamiltonian_gradients(self):
        # dv/dt = +(1/t) d(tH)/du and du/dt = -(1/t) d(tH)/dv, checked with
        # central differences over random states on one to three intervals.
        rng = np.random.default_rng(20260815)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            pts = rng.uniform(-2.0, 2.0, size=n + 1)
            pts[int(rng.integers(0, n + 1))] = 0.0
            r = tuple(np.sort(pts))
            gamma = tuple(rng.uniform(0.05, 0.95, size=n))
            t = float(rng.uniform(0.5, 5.0))
            cfg = Configuration(t=t, r=r, gamma=gamma)
            params = KernelParams(
                alpha=float(rng.uniform(-0.4, 1.0)), beta_im=float(rng.uniform(-0.7, 0.7))
            )
            active = cfg.active_indices
            u = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in active])
            v = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in active])
            du, dv, _ = physical_rates(t, u, v, params, cfg)

            def weighted_h(u_arr, v_arr):
                y = rescaled_state(t, u_arr, v_arr, params.alpha)
                probe = CPVState(t=t, indices=active, y=y, alpha=params.alpha)
                return t * hamiltonian(probe, params, cfg)

            for k in range(n):
                up, um = u.copy(), u.copy()
                up[k], um[k] = u[k] + h, u[k] - h
                grad_u = (weighted_h(up, v) - weighted_h(um, v)) / (2.0 * h)
                vp, vm = v.copy(), v.copy()
                vp[k], vm[k] = v[k] + h, v[k] - h
                grad_v = (weighted_h(u, vp) - weighted_h(u, vm)) / (2.0 * h)
                worst = max(worst, abs(dv[k] - grad_u / t), abs(du[k] + grad_v / t))
        assert worst <= 1e-7

    def test_hamiltonian_matches_literal_pair_coupling(self):
        # t H = sum_k pv5_weighted_hamiltonian(u_k, v_k, -2 i t r_k)
        #       + (1/2) sum_{j != k} u_j u_k (v_j + v_k)(v_j - 1)(v_k - 1),
        # written out here as the double sum over random one- to three-interval states.
        rng = np.random.default_rng(20261018)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            pts = rng.uniform(-2.0, 2.0, size=n + 1)
            pts[int(rng.integers(0, n + 1))] = 0.0
            r = tuple(np.sort(pts))
            t = float(rng.uniform(0.5, 5.0))
            cfg = Configuration(t=t, r=r, gamma=tuple(rng.uniform(0.05, 0.95, size=n)))
            params = KernelParams(
                alpha=float(rng.uniform(-0.4, 1.0)), beta_im=float(rng.uniform(-0.7, 0.7))
            )
            a, b = params.alpha, params.beta
            u = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            rs = [r[k] for k in cfg.active_indices]
            th = sum(pv5_weighted_hamiltonian(u[k], v[k], -2.0j * t * rs[k], a, b) for k in range(n))
            for j in range(n):
                for k in range(n):
                    if j != k:
                        th += 0.5 * u[j] * u[k] * (v[j] + v[k]) * (v[j] - 1.0) * (v[k] - 1.0)
            state = CPVState(t=t, indices=cfg.active_indices, y=rescaled_state(t, u, v, a), alpha=a)
            worst = max(worst, abs(hamiltonian(state, params, cfg) - th / t) / abs(th / t))
        assert worst <= 1e-13


def _seed_cases(rng, count):
    """``count`` random (params, config) pairs over 1-3 intervals, the first
    three at alpha -0.486, -0.45 and 1.5, the rest in [-0.45, 1.5]."""
    layouts = ((0.0, 1.0), (-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0))
    cases = []
    for i in range(count):
        r = layouts[i % 3]
        alpha = (-0.486, -0.45, 1.5)[i] if i < 3 else float(rng.uniform(-0.45, 1.5))
        params = KernelParams(alpha=alpha, beta_im=float(rng.uniform(-0.7, 0.7)))
        gamma = tuple(rng.uniform(0.05, 0.95, size=len(r) - 1))
        cases.append((params, Configuration(t=5.0, r=r, gamma=gamma)))
    return cases


class TestInitialization:
    def test_sine_seed_closed_form(self):
        # alpha = beta = 0, r = (0, 1): U0 = i / (4 pi), V0 = 2 i, W = U0 V0 = -1 / (2 pi).
        # The first-order terms per unit t, against 1 + |y0|, are V's 2 t / 3
        # (c_V = i), log d's t / pi, U's 2 t / (4 pi + 1) and their E = t
        # terms, so V's binds: t0 = (3 / 2) sqrt(eps)
        state = cpv_init(SINE, SINE_CFG)
        t0 = state.t
        assert t0 == pytest.approx(1.5 * math.sqrt(sys.float_info.epsilon), rel=1e-14)
        u0, w = 0.25j / math.pi, -0.5 / math.pi
        assert state.u[0] == pytest.approx(u0 * (1.0 - 2.0j * t0 - 2.0 * w * t0), rel=1e-15)
        v = 2.0j * (1.0 + 1.0j * t0 + w * t0)
        assert state.y[1] == pytest.approx(v, rel=1e-15)
        assert state.v[0] == pytest.approx(1.0 + t0 * v, abs=1e-15)
        assert state.log_y == 0.0
        assert state.log_d == pytest.approx(-2.0 * w * t0, rel=1e-15)
        assert state.lnF.real == pytest.approx(w * t0, rel=1e-15)
        assert state.lnF.imag == 0.0

    def test_seed_matches_determinant_at_init_cap(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        cfg = Configuration(t=1e-3, r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6))
        state = _integrate_to(params, cfg, 1e-3)[-1]
        assert abs(state.lnF.real - log_det(params, cfg)) <= 1e-7

    def test_zero_weight_seed_is_zero(self):
        cfg = Configuration(t=1.0, r=(0.0, 1.0), gamma=(0.0,))
        state = cpv_init(KernelParams(alpha=0.3, beta_im=0.2), cfg)
        assert state.u[0] == 0.0
        assert state.lnF == 0.0

    def test_rejects_full_weight(self):
        cfg = Configuration(t=1.0, r=(0.0, 1.0), gamma=(1.0,))
        with pytest.raises(DomainError):
            cpv_init(SINE, cfg)

    def test_lnF_seed_is_the_small_t_expansion(self):
        cfg = Configuration(t=5.0, r=(-1.0, 0.0, 1.0, 2.0), gamma=(0.3, 0.9, 0.5))
        for alpha in (-0.45, -0.2, 0.0):
            params = KernelParams(alpha=alpha, beta_im=-0.7)
            state = cpv_init(params, cfg)
            expected = complex_small_t_lnF(params, cfg, state.t)
            assert expected != 0.0
            assert state.lnF.real == pytest.approx(expected, rel=1e-14)
            assert state.lnF.imag == 0.0

    def test_seeds_at_t_below_the_seed_time(self):
        # below the seed time the first-order terms sit below rounding: U and V
        # are their t -> 0 limits, and lnF is the small-t expansion
        cfg = Configuration(t=1e-200, r=(-1.0, 0.0, 1.0, 2.0), gamma=(0.3, 0.9, 0.5))
        for alpha in (-0.45, 0.0, 0.25):
            params = KernelParams(alpha=alpha, beta_im=-0.7)
            state = cpv_init(params, cfg)
            seed = cpv_init(params, cfg.replace_t(1.0))
            limit = cpv_init(params, cfg.replace_t(1e-300))
            assert state.t == 1e-200 < seed.t
            assert np.all(abs(state.y[:-3] - limit.y[:-3]) <= 1e-16 * (1.0 + abs(limit.y[:-3])))
            expected = complex_small_t_lnF(params, cfg, 1e-200)
            assert expected != 0.0
            assert abs(state.lnF - expected) <= 1e-14 * abs(expected)

    def test_zero_t_seeds_at_the_seed_time(self):
        state = cpv_init(TWO_INT, TWO_INT_CFG.replace_t(0.0))
        seed = cpv_init(TWO_INT, TWO_INT_CFG)
        assert state.t == seed.t < TWO_INT_CFG.t
        assert np.array_equal(state.y, seed.y)

    def test_seed_time_holds_every_first_order_term_at_root_eps(self):
        # with E = t^(1 + 2 alpha) and W = sum_j U0_j V0_j / (1 + 2 alpha), the
        # first-order terms are U0_k (2 (alpha + beta) V0_k - 2 i r_k) t and
        # -2 U0_k W E of U_k, V0_k (2 i r_k - (alpha + beta) V0_k) t / (2 + 2 alpha)
        # and V0_k W E of V_k, and -2 W E of log d, which has no t -> 0 limit.
        # At the seed time each is at most sqrt(eps) (1 + |y0|), one of them
        # exactly, and the seed's U and V are the limits plus these terms
        root_eps = math.sqrt(sys.float_info.epsilon)
        for params, cfg in _seed_cases(np.random.default_rng(7), 60):
            state = cpv_init(params, cfg)
            t, a, ab = state.t, params.alpha, params.alpha + params.beta
            e = t ** (1.0 + 2.0 * a)
            u0, v0 = complex_small_t_limits(params, cfg)
            r = np.array([cfg.r[k] for k in cfg.active_indices])
            w = np.sum(u0 * v0) / (1.0 + 2.0 * a)
            du = (u0 * (2.0 * ab * v0 - 2.0j * r) * t, -2.0 * u0 * w * e)
            dv = (v0 * (2.0j * r - ab * v0) * t / (2.0 + 2.0 * a), v0 * w * e)
            ratios = [abs(2.0 * w * e)]
            for terms, y0 in ((du, u0), (dv, v0)):
                for term in terms:
                    ratios.extend(abs(term) / (1.0 + abs(y0)))
            assert root_eps * (1.0 - 1e-13) <= max(ratios) <= root_eps * (1.0 + 1e-13)
            n = len(r)
            for got, y0, terms in ((state.y[:n], u0, du), (state.y[n:2 * n], v0, dv)):
                assert np.all(abs(got - (y0 + sum(terms))) <= 1e-15 * (1.0 + abs(y0)))

    def test_seed_flows_onto_the_later_seed(self):
        # a seed at t0 / 16, flowed to the seed time t0 at tol 1e-12, lands on
        # the seed at t0: both leave out only terms near eps
        for params, cfg in _seed_cases(np.random.default_rng(16), 40):
            seed = cpv_init(params, cfg)
            early = cpv_init(params, cfg.replace_t(seed.t / 16.0))
            assert early.t == seed.t / 16.0
            end = cpv_integrate(early, params, cfg, seed.t, tol=1e-12)[-1]
            assert np.all(abs(end.y - seed.y) <= 1e-14 * (1.0 + abs(seed.y)))

    def test_raises_where_the_seed_time_underflows(self):
        # below alpha of about -0.487 the seed time leaves the normal range of
        # double; just above it the flow still meets log_det
        cfg = Configuration(t=5.0, r=(-1.0, 0.0, 1.0), gamma=(0.4, 0.6))
        for t in (5.0, 0.0, 1e-300):
            with pytest.raises(RegimeError, match="seed time underflows"):
                cpv_init(KernelParams(alpha=-0.49, beta_im=0.3), cfg.replace_t(t))
        params = KernelParams(alpha=-0.486, beta_im=0.3)
        assert sys.float_info.min <= cpv_init(params, cfg).t < 1e-250
        traj = _integrate_to(params, cfg, 5.0, tol=1e-9)
        assert abs(traj[-1].lnF.real - log_det(params, cfg)) <= 1e-9

    def test_one_log_gamma_call(self, monkeypatch):
        # one batch: the gamma triple (1+a-b, 1+a+b, 1+2a) of log y and
        # log d, whose last two also give the kernel's gamma prefactor G
        calls = []
        for module in (painleve, asymptotics, kernel):
            exact = module.log_gamma

            def counting(z, exact=exact):
                calls.append(np.size(z))
                return exact(z)

            monkeypatch.setattr(module, "log_gamma", counting)
        cpv_init(TWO_INT, TWO_INT_CFG)
        assert calls == [3]


class TestIntegration:
    def test_tolerance_validation(self):
        state0 = cpv_init(SINE, SINE_CFG)
        for bad in (1e-13, 1e-3, 0.0):
            with pytest.raises(DomainError):
                cpv_integrate(state0, SINE, SINE_CFG, 1.0, tol=bad)

    def test_requires_forward_time(self):
        state0 = cpv_init(SINE, SINE_CFG)
        with pytest.raises(DomainError):
            cpv_integrate(state0, SINE, SINE_CFG, state0.t)

    def test_rejects_infinite_end_time(self):
        # an unbounded flow would spend the whole step budget before failing
        state0 = cpv_init(SINE, SINE_CFG)
        with pytest.raises(DomainError, match="finite"):
            cpv_integrate(state0, SINE, SINE_CFG, math.inf)

    def test_rejects_mismatched_index_set(self):
        state0 = cpv_init(SINE, SINE_CFG)
        with pytest.raises(DomainError):
            cpv_integrate(state0, TWO_INT, TWO_INT_CFG, 1.0)

    def test_rejects_same_size_index_set_of_another_layout(self):
        # both layouts have two active endpoints: (0, 2) against (1, 2)
        state0 = cpv_init(TWO_INT, TWO_INT_CFG)
        other = Configuration(t=5.0, r=(0.0, 1.0, 2.0), gamma=(0.4, 0.4))
        with pytest.raises(DomainError):
            cpv_integrate(state0, TWO_INT, other, 1.0)
        with pytest.raises(DomainError):
            hamiltonian(state0, TWO_INT, other)

    def test_rejects_state_seeded_for_another_alpha(self):
        traj = _integrate_to(TWO_INT, TWO_INT_CFG, 2.0)
        other = KernelParams(alpha=0.5, beta_im=TWO_INT.beta_im)
        with pytest.raises(DomainError):
            cpv_integrate(traj[0], other, TWO_INT_CFG, 1.0)
        with pytest.raises(DomainError):
            hamiltonian(traj[-1], other, TWO_INT_CFG)
        with pytest.raises(DomainError):
            verify_identities(traj, other, TWO_INT_CFG)

    def test_non_finite_stage_is_rejected_and_retried(self, monkeypatch):
        # the first three stages evaluated past t = 1 come back infinite; each
        # fails the error test, and the flow still lands on the determinant
        real_field = painleve._field
        spoiled = []

        def spoiling_field(params, config):
            field = real_field(params, config)

            def spoiling(s, y):
                dy = field(s, y)
                if s > 0.0 and len(spoiled) < 3:
                    spoiled.append(s)
                    dy[0] = complex(math.inf, -math.inf)
                return dy

            return spoiling

        monkeypatch.setattr(painleve, "_field", spoiling_field)
        traj = _integrate_to(SINE, SINE_CFG, 5.0, tol=1e-9)
        assert len(spoiled) == 3
        assert all(np.all(np.isfinite(s.y)) for s in traj)
        assert abs(traj[-1].lnF.real - log_det(SINE, SINE_CFG)) <= 5e-8

    def test_imaginary_lnF_raises_regime_error(self, monkeypatch):
        # a field that gives lnF an imaginary rate breaks its realness budget
        real_field = painleve._field

        def complex_field(params, config):
            field = real_field(params, config)

            def complex_rates(s, y):
                dy = field(s, y)
                dy[-1] += 1j
                return dy

            return complex_rates

        monkeypatch.setattr(painleve, "_field", complex_field)
        with pytest.raises(RegimeError, match="imaginary part"):
            _integrate_to(SINE, SINE_CFG, 5.0)

    def test_states_do_not_share_the_stage_buffer(self):
        # the step reuses one stage buffer per flow; every accepted state
        # still holds its own read-only y
        traj = _integrate_to(TWO_INT, TWO_INT_CFG, 5.0)
        assert all(not state.y.flags.writeable for state in traj)
        for prev, state in zip(traj, traj[1:]):
            assert not np.shares_memory(prev.y, state.y)
        assert verify_identities(traj, TWO_INT, TWO_INT_CFG) == verify_identities(
            traj, TWO_INT, TWO_INT_CFG
        )

    def test_accepted_states_are_what_the_constructor_builds(self, monkeypatch):
        # the integrator builds its states without the constructor's checks;
        # each must still hold the constructor's fields, a read-only y, and
        # no memory of the flow's workspace
        real_workspace, works = painleve._Workspace, []

        def recording(*args):
            works.append(real_workspace(*args))
            return works[-1]

        monkeypatch.setattr(painleve, "_Workspace", recording)
        traj = _integrate_to(TWO_INT, TWO_INT_CFG, 5.0)
        (work,) = works
        buffers = [work.z, work.coef] + [a for stage in work.stages for a in stage[:5]]
        for state in traj[1:]:
            built = CPVState(state.t, state.indices, state.y, state.alpha)
            assert vars(state).keys() == vars(built).keys()
            for name in ("t", "indices", "alpha"):
                assert getattr(state, name) == getattr(built, name)
                assert type(getattr(state, name)) is type(getattr(built, name))
            assert state.y.dtype == built.y.dtype and state.y.shape == built.y.shape
            assert np.array_equal(state.y, built.y)
            assert not state.y.flags.writeable
            assert not any(np.shares_memory(state.y, buf) for buf in buffers)

    def test_nan_in_a_middle_entry_fails_the_error_test(self, monkeypatch):
        # one NaN in the middle entry of stage 11's field, the last one the
        # error estimate weighs, reaches only that entry of the result and
        # of the estimate, with finite entries after it; the step must be
        # rejected and retried from the same s at a fifth of the size
        real_field, real_step = painleve._field, painleve._dop853_step

        def run(bad_call):
            calls, attempts = [], []

            def spoiling_field(params, config):
                field = real_field(params, config)

                def spoiling(s, y):
                    dy = field(s, y)
                    calls.append(s)
                    if len(calls) == bad_call:
                        dy[len(dy) // 2] = complex(math.nan)
                    return dy

                return spoiling

            def counting_step(s, h, work):
                attempts.append((s, h))
                return real_step(s, h, work)

            monkeypatch.setattr(painleve, "_field", spoiling_field)
            monkeypatch.setattr(painleve, "_dop853_step", counting_step)
            return _integrate_to(TWO_INT, TWO_INT_CFG, 5.0), attempts

        # poison an attempt that the clean flow accepts; the flow's first
        # field is call 1, then each attempt makes 12
        _, clean = run(bad_call=None)
        bad = next(k for k in range(20, len(clean) - 1) if clean[k + 1][0] > clean[k][0])
        traj, attempts = run(bad_call=1 + 12 * bad + 11)
        (s_bad, h_bad), (s_next, h_next) = attempts[bad : bad + 2]
        assert (s_bad, h_bad) == clean[bad]
        assert s_next == s_bad and h_next == 0.2 * h_bad
        assert all(np.all(np.isfinite(state.y)) for state in traj)

    def test_dop853_tableau_is_consistent(self):
        # each stage row sums to its node; the last row holds the weights of
        # the 8th-order result (node 1); the error weights sum to zero; the
        # step's real coefficient array holds the same rows behind the
        # column of y, and the complex error row the same weights, entry by
        # entry
        assert len(painleve._DOP_A) == len(painleve._DOP_C) == 13
        for c_i, row in zip(painleve._DOP_C[1:], painleve._DOP_A[1:]):
            assert abs(math.fsum(row) - c_i) <= 1e-14
        assert painleve._DOP_C[-1] == 1.0
        assert abs(math.fsum(painleve._DOP_E5)) <= 1e-14
        tableau = painleve._DOP_TABLEAU
        assert tableau.shape == (13, 13)
        for i, row in enumerate(painleve._DOP_A):
            assert tableau[i].tolist() == [0.0, *row] + [0.0] * (12 - i)
        assert painleve._DOP_E5_ROW.tolist() == [complex(w) for w in painleve._DOP_E5]

    def test_step_is_eighth_order_on_a_linear_field(self, monkeypatch):
        # on y' = lam y one step's error against exp(h lam) is O(h^9): halving
        # h cuts it by 2^9 = 512 in theory, and by at least 256 here
        lam = -1.0 + 2.0j
        monkeypatch.setattr(painleve, "_field", lambda params, config: lambda s, y: lam * y)
        work = painleve._Workspace(SINE, SINE_CFG, 1)
        z = work.z
        errors = []
        for h in (0.4, 0.2):
            z[0], z[1] = 1.0, lam
            y = painleve._dop853_step(0.0, h, work)
            errors.append(abs(y[0] - np.exp(h * lam)))
            assert z[13, 0] == lam * y[0]
        assert errors[0] >= 256.0 * errors[1] > 0.0

    def test_field_calls_are_fsal(self, monkeypatch):
        # one initial field call, then 12 per attempted step (the last field
        # of an accepted step is the next one's first), all looked up in the
        # module
        real_field, real_step = painleve._field, painleve._dop853_step
        calls, attempts = [], []

        def counting_field(params, config):
            field = real_field(params, config)

            def counting(s, y):
                calls.append(s)
                return field(s, y)

            return counting

        def counting_step(*args):
            attempts.append(args[0])
            return real_step(*args)

        monkeypatch.setattr(painleve, "_field", counting_field)
        monkeypatch.setattr(painleve, "_dop853_step", counting_step)
        traj = _integrate_to(TWO_INT, TWO_INT_CFG, 5.0)
        assert len(calls) == 1 + 12 * len(attempts)
        assert len(attempts) >= len(traj) - 1

    def test_span_below_the_step_floor_is_one_last_step(self):
        # spans of 1e-14 in ln t: at t = 1 the first step would be half of
        # it, below the 1e-13 floor, and so it is at the seed time; at a seed
        # at t = 1e-200 ln t1 rounds to ln t0. Each flow is one step to a
        # state exactly at t1, and lnF moves by rounding only
        state1 = _integrate_to(TWO_INT, TWO_INT_CFG, 1.0)[-1]
        seeds = [cpv_init(TWO_INT, TWO_INT_CFG.replace_t(t)) for t in (0.0, 1e-200)]
        for state in (state1, *seeds):
            t1 = state.t * (1.0 + 1e-14)
            traj = cpv_integrate(state, TWO_INT, TWO_INT_CFG, t1)
            assert len(traj) == 2
            assert traj[0] is state and traj[-1].t == t1
            assert abs(traj[-1].lnF - state.lnF) <= 1e-14 * (1.0 + abs(state.lnF))
        assert len(cpv_integrate(state1, TWO_INT, TWO_INT_CFG, state1.t * (1.0 + 1e-13))) == 2

    def test_step_that_never_passes_raises_underflow(self, monkeypatch):
        # a field that is never finite fails every error test: the step
        # shrinks to the floor and the flow raises, on a long span and on a
        # span below the floor alike
        state1 = _integrate_to(SINE, SINE_CFG, 1.0)[-1]
        monkeypatch.setattr(
            painleve, "_field", lambda params, config: lambda s, y: [complex(math.nan)] * len(y)
        )
        for t1 in (5.0, 1.0 + 1e-14):
            with pytest.raises(NonConvergenceError, match="step size underflow"):
                cpv_integrate(state1, SINE, SINE_CFG, t1)

    def test_long_sine_flow_takes_few_steps(self):
        # the capped 5(4) pair took 3849 steps here; DOP853 takes 660
        cfg = SINE_CFG.replace_t(60.0)
        traj = _integrate_to(SINE, cfg, 60.0, tol=1e-9)
        assert len(traj) - 1 <= 700
        assert abs(traj[-1].lnF.real - log_det(SINE, cfg)) <= 5e-8

    def test_blind_step_case_meets_the_determinant(self):
        # a seed at t = 1e-174 took one blind step of 17.4 in ln t into the
        # region where lnF matters, and was off by 8.3e-8 here
        params = KernelParams(alpha=0.0, beta_im=-0.7)
        cfg = Configuration(t=60.0, r=(0.0, 1.0), gamma=(0.3,))
        traj = _integrate_to(params, cfg, 60.0, tol=1e-9)
        assert abs(traj[-1].lnF.real - log_det(params, cfg)) <= 1e-9

    def test_zero_weights_flow_is_trivial(self):
        params = KernelParams(alpha=0.3, beta_im=0.2)
        cfg = Configuration(t=5.0, r=(0.0, 1.0), gamma=(0.0,))
        state0 = cpv_init(params, cfg)
        traj = cpv_integrate(state0, params, cfg, 5.0, tol=1e-9)
        final = traj[-1]
        assert final.u[0] == 0.0
        assert final.lnF == 0.0
        growth = math.log(5.0) - math.log(state0.t)
        assert final.log_d - state0.log_d == pytest.approx(2.0 * params.alpha * growth, abs=1e-8)
        assert final.log_y - state0.log_y == pytest.approx(2.0 * params.beta * growth, abs=1e-8)

    def test_trajectory_endpoints_and_ordering(self):
        traj = _integrate_to(SINE, SINE_CFG, 5.0)
        assert traj[0].t == cpv_init(SINE, SINE_CFG.replace_t(0.0)).t
        assert traj[-1].t == 5.0
        ts = [s.t for s in traj]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_sine_flow_matches_determinant(self):
        traj = _integrate_to(SINE, SINE_CFG, 5.0, tol=1e-9)
        final = traj[-1]
        assert abs(final.lnF.real - log_det(SINE, SINE_CFG)) <= 5e-8
        assert all(abs(s.lnF.imag) <= 1e-8 * (1.0 + abs(s.lnF.real)) for s in traj)

    def test_two_interval_flow_matches_determinant(self):
        cfg = Configuration(t=2.0, r=(-1.0, 0.0, 1.0), gamma=(0.4, 0.4))
        traj = _integrate_to(TWO_INT, cfg, 2.0, tol=1e-9)
        assert abs(traj[-1].lnF.real - log_det(TWO_INT, cfg)) <= 1e-6


class TestIdentityMonitors:
    def test_needs_nine_points(self):
        traj = _integrate_to(SINE, SINE_CFG, 5.0, tol=1e-7)
        with pytest.raises(DomainError):
            verify_identities(traj[:5], SINE, SINE_CFG)

    def test_zero_solution_residuals_vanish_exactly(self):
        params = KernelParams(alpha=0.25, beta_im=0.0)
        cfg = Configuration(t=5.0, r=(0.0, 1.0), gamma=(0.0,))
        traj = _integrate_to(params, cfg, 5.0, tol=1e-9)
        report = verify_identities(traj, params, cfg)
        assert report.residual_a == 0.0
        assert report.residual_b == 0.0
        # samples every 0.5 * 1e-11^(1/6) in t from 0.1 / max|r| = 0.1 to 5; the
        # three at each end are no stencil centre
        spacing = 0.5 * 1e-11 ** (1.0 / 6.0)
        assert report.points_used == math.floor((5.0 - 0.1) / spacing) + 1 - 6

    def test_samples_do_not_depend_on_the_steps(self):
        coarse, fine = (_integrate_to(SINE, SINE_CFG, 5.0, tol=tol) for tol in (1e-7, 1e-11))
        assert len(coarse) < len(fine)
        used = [verify_identities(traj, SINE, SINE_CFG).points_used for traj in (coarse, fine)]
        assert used[0] == used[1]

    def test_sine_residuals_small(self):
        traj = _integrate_to(SINE, SINE_CFG, 5.0, tol=1e-9)
        report = verify_identities(traj, SINE, SINE_CFG)
        assert report.residual_a <= 1e-9
        assert report.residual_b <= 1e-9

    def test_two_interval_residuals_small(self):
        traj = _integrate_to(TWO_INT, TWO_INT_CFG, 5.0, tol=1e-9)
        report = verify_identities(traj, TWO_INT, TWO_INT_CFG)
        assert report.residual_a <= 5e-8
        assert report.residual_b <= 5e-6

    def test_residuals_scale_linearly_with_tolerance(self):
        residuals = []
        for tol in (1e-7, 1e-9, 1e-11):
            traj = _integrate_to(SINE, SINE_CFG, 5.0, tol=tol)
            residuals.append(verify_identities(traj, SINE, SINE_CFG).residual_a)
        assert residuals[0] > residuals[1] > residuals[2]
        slope = (math.log(residuals[0]) - math.log(residuals[2])) / (
            math.log(1e-7) - math.log(1e-11)
        )
        assert 0.6 <= slope <= 1.4


class TestLargeTimePrediction:
    def test_requires_large_time(self):
        with pytest.raises(DomainError):
            cpv_large_t_prediction(SINE, SINE_CFG, 10.0)
        # a caller-supplied matching time relaxes the cutoff
        pred = cpv_large_t_prediction(SINE, SINE_CFG, 10.0, t_match=5.0)
        assert math.isfinite(pred.H.real)

    def test_zero_weights_prediction(self):
        params = KernelParams(alpha=0.3, beta_im=0.0)
        cfg = Configuration(t=20.0, r=(0.0, 1.0), gamma=(0.0,))
        pred = cpv_large_t_prediction(params, cfg, 20.0)
        assert pred.H == 0.0
        assert pred.u[0] == 0.0
        assert math.isnan(pred.v[0].real)
        assert pred.y == pytest.approx(1.0, abs=1e-15)

    def test_oscillation_envelope_is_time_independent(self):
        pred20 = cpv_large_t_prediction(TWO_INT, TWO_INT_CFG, 20.0)
        pred40 = cpv_large_t_prediction(TWO_INT, TWO_INT_CFG, 40.0)
        for k in range(len(TWO_INT_CFG.active_indices)):
            assert abs(pred20.u[k] * pred20.v[k]) == pytest.approx(
                abs(pred40.u[k] * pred40.v[k]), rel=1e-12
            )

    def test_envelope_matches_trajectory(self):
        params = KernelParams(alpha=-0.25, beta_im=0.4)
        cfg = Configuration(t=20.0, r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6))
        traj = _integrate_to(params, cfg, 20.0, tol=1e-8)
        pred = cpv_large_t_prediction(params, cfg, 20.0)
        tail = [s for s in traj if s.t >= 15.0]
        for k in range(len(cfg.active_indices)):
            observed = float(np.mean([abs(s.u[k] * s.v[k]) for s in tail]))
            expected = abs(pred.u[k] * pred.v[k])
            assert observed == pytest.approx(expected, rel=0.05)

    def test_hamiltonian_tail_matches_prediction(self):
        cfg = Configuration(t=20.0, r=(0.0, 1.0), gamma=(0.5,))
        traj = _integrate_to(SINE, cfg, 20.0, tol=1e-9)
        pred = cpv_large_t_prediction(SINE, cfg, 20.0)
        h_numeric = hamiltonian(traj[-1], SINE, cfg)
        # split the prediction into its constant part and its 1/t tail by
        # evaluating at a second, much larger time
        h_inf = cpv_large_t_prediction(SINE, cfg, 1e12).H
        subleading = (pred.H - h_inf).real
        residual = (h_numeric - h_inf).real
        assert residual == pytest.approx(subleading, rel=0.10)
