"""Tests for the closed-form expansion module."""

import cmath
import math

import numpy as np
import pytest

from chfdet import asymptotics
from chfdet.asymptotics import large_gap_lnF, moment_asymptotics
from chfdet.errors import DomainError
from chfdet.fredholm import log_det
from chfdet.kernel import Configuration, KernelParams
from chfdet.painleve import cpv_init
from chfdet.specialfn import log_barnes_g
from chfdet.stats import CountingStatistics

import _oracle_values as ov
from _references import (
    b_from_gamma,
    c_from_gamma,
    complex_large_gap_lnF,
    complex_moment_asymptotics,
    complex_small_t_lnF,
    log_barnes_g_d1,
    log_barnes_g_d2,
    symmetric_counting_asymptotics,
)


def _cfg(r, gamma, t):
    return Configuration(r=r, gamma=gamma, t=t)


class TestExponentMaps:
    def test_zero_weights_give_zero_b_and_side_c(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        cfg = _cfg((-1.0, 0.0, 1.0), (0.0, 0.0), 2.0)
        bs = b_from_gamma(cfg)
        assert all(b == 0.0 for b in bs)
        cs = c_from_gamma(cfg, params)
        assert cs[0] == 0.0 and cs[2] == 0.0
        # the middle coefficient couples the unit weights and stays nonzero
        a, b = params.alpha, params.beta
        expected_cm = cmath.exp((a + b) * math.pi * 1j) - cmath.exp(-(a + b) * math.pi * 1j)
        assert cs[1] == pytest.approx(expected_cm, abs=1e-15)

    def test_single_interval_b_telescopes(self):
        g = 0.37
        cfg = _cfg((0.0, 1.0), (g,), 1.0)
        bs = b_from_gamma(cfg)
        two_pi_i = 2j * math.pi
        assert bs[0] == pytest.approx(cmath.log(1.0 / (1.0 - g)) / two_pi_i, abs=1e-16)
        assert bs[1] == pytest.approx(cmath.log(1.0 - g) / two_pi_i, abs=1e-16)
        assert bs[0] + bs[1] == pytest.approx(0.0, abs=1e-16)

    def test_b_sum_vanishes_and_is_purely_imaginary(self):
        cfg = _cfg((-1.0, 0.0, 1.0), (0.3, 0.6), 2.0)
        bs = b_from_gamma(cfg)
        assert all(b.real == 0.0 for b in bs)
        assert abs(sum(bs)) <= 1e-15

    def test_unit_weight_rejected(self):
        cfg = _cfg((0.0, 1.0), (1.0,), 1.0)
        with pytest.raises(DomainError):
            b_from_gamma(cfg)
        with pytest.raises(DomainError):
            c_from_gamma(cfg, KernelParams(alpha=0.0, beta_im=0.0))

    def test_side_coefficients_match_weight_differences(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        b = params.beta
        cfg = _cfg((-1.0, 0.0, 1.0), (0.3, 0.6), 2.0)
        cs = c_from_gamma(cfg, params)
        two_pi_i = 2j * math.pi
        assert cs[0] == pytest.approx(
            (0.0 - 0.3) / two_pi_i * cmath.exp(b * math.pi * 1j), abs=1e-16
        )
        assert cs[2] == pytest.approx(
            (0.0 - 0.6) / two_pi_i * cmath.exp(-b * math.pi * 1j), abs=1e-16
        )
        assert cs[1] == pytest.approx(
            (1.0 - 0.3) * cmath.exp((0.25 + b) * math.pi * 1j)
            - (1.0 - 0.6) * cmath.exp(-(0.25 + b) * math.pi * 1j),
            abs=1e-15,
        )


def _corollary_closed_form(g, t, alpha, beta_im):
    c = -math.log(1.0 - g) / (2.0 * math.pi)
    barnes = log_barnes_g(1j * c) + log_barnes_g(-1j * c)
    return (
        -4.0 * c * t
        + 2.0 * c * c * math.log(4.0 * t)
        + 2.0 * alpha * math.pi * c
        + 2.0 * barnes.real
    )


class TestLargeGap:
    def test_zero_weights_give_zero_report(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        rep = large_gap_lnF(params, _cfg((-1.0, 0.0, 1.0), (0.0, 0.0), 5.0))
        assert rep.linear_term == 0.0
        assert rep.log_term == 0.0
        assert rep.constant_term == 0.0
        assert rep.total == 0.0
        assert all(v == 0.0 for _, v in rep.breakdown)

    def test_symmetric_two_interval_closed_form(self):
        rng = np.random.default_rng(20260815)
        for _ in range(50):
            g = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(1.0, 30.0))
            alpha = float(rng.uniform(-0.4, 1.5))
            beta_im = float(rng.uniform(-0.8, 0.8))
            params = KernelParams(alpha=alpha, beta_im=beta_im)
            rep = large_gap_lnF(params, _cfg((-1.0, 0.0, 1.0), (g, g), t))
            assert rep.total == pytest.approx(
                _corollary_closed_form(g, t, alpha, beta_im), abs=1e-12
            )

    def test_pure_sine_limit_closed_form(self):
        params = KernelParams(alpha=0.0, beta_im=0.0)
        t = 7.0
        cfg = _cfg((-1.0, 0.0, 1.0), (0.3, 0.5), t)
        rep = large_gap_lnF(params, cfg)
        bs = b_from_gamma(cfg)
        r = cfg.r
        expected = 0.0
        for k in (0, 2):
            expected += (2j * bs[k] * r[k] * t).real
            expected += (-2.0 * bs[k] * bs[k]).real * math.log(abs(2.0 * r[k] * t))
        expected += (-2.0 * bs[0] * bs[2]).real * math.log(
            abs(2.0 * r[0] * r[2] * t / (r[2] - r[0]))
        )
        for k in (0, 1, 2):
            expected += (log_barnes_g(bs[k]) + log_barnes_g(-bs[k])).real
        assert rep.total == pytest.approx(expected, abs=1e-12)

    def test_breakdown_sums_to_reported_terms(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        rep = large_gap_lnF(params, _cfg((-1.5, 0.0, 0.7, 2.0), (0.3, 0.6, 0.2), 9.0))
        total_breakdown = math.fsum(v for _, v in rep.breakdown)
        reported = math.fsum((rep.linear_term, rep.log_term, rep.constant_term))
        assert abs(total_breakdown - reported) <= 8.0 * math.ulp(max(1.0, abs(reported)))
        names = [name for name, _ in rep.breakdown]
        assert names == [
            "linear",
            "interval_log",
            "pair_log",
            "interval_const",
            "pair_const",
            "weight_factor",
            "barnes_center",
            "barnes_jumps",
        ]

    def test_fields_are_real_floats(self):
        params = KernelParams(alpha=-0.25, beta_im=0.4)
        rep = large_gap_lnF(params, _cfg((-2.0, -1.0, 0.0, 1.0), (0.2, 0.7, 0.4), 6.0))
        for value in (rep.linear_term, rep.log_term, rep.constant_term, rep.total):
            assert isinstance(value, float)
            assert math.isfinite(value)

    def test_narrow_gap_warns(self):
        params = KernelParams(alpha=0.0, beta_im=0.0)
        rep = large_gap_lnF(params, _cfg((-0.01, 0.0, 1.0), (0.3, 0.3), 5.0))
        assert rep.warnings and "gap" in rep.warnings[0]
        rep_wide = large_gap_lnF(params, _cfg((-1.0, 0.0, 1.0), (0.3, 0.3), 5.0))
        assert rep_wide.warnings == ()

    def test_zero_t_rejected(self):
        params = KernelParams(alpha=0.0, beta_im=0.0)
        with pytest.raises(DomainError):
            large_gap_lnF(params, _cfg((-1.0, 0.0, 1.0), (0.3, 0.3), 0.0))

    def test_residual_against_determinant_decays(self):
        params = KernelParams(alpha=0.0, beta_im=0.0)
        deltas = {}
        for t in (8.0, 16.0):
            cfg = _cfg((-1.0, 0.0, 1.0), (0.3, 0.3), t)
            pred = large_gap_lnF(params, cfg).total
            exact = log_det(params, cfg)
            deltas[t] = abs(exact - pred)
        assert deltas[8.0] <= 0.02
        assert deltas[16.0] <= 0.6 * deltas[8.0]


class TestSmallT:
    """The small-t closed form, which seeds every flow (``cpv_init``; see
    test_painleve), in its complex form as published."""

    def test_sine_single_interval_value(self):
        params = KernelParams(alpha=0.0, beta_im=0.0)
        cfg = _cfg((0.0, 1.0), (0.5,), 1.0)
        t = 0.01
        assert complex_small_t_lnF(params, cfg, t) == pytest.approx(-0.5 * t / math.pi, rel=1e-14)

    def test_matches_determinant_at_small_t(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        t = 1e-3
        cfg = _cfg((-1.0, 0.0, 1.0), (0.3, 0.6), t)
        predicted = complex_small_t_lnF(params, cfg, t)
        exact = log_det(params, cfg)
        assert predicted == pytest.approx(exact, rel=0.05)


class TestMoments:
    def test_plain_sine_mean_and_variance(self):
        params = KernelParams(alpha=0.0, beta_im=0.0)
        t, r1 = 10.0, 1.0
        mom = moment_asymptotics(params, t, r1, 2.0)
        assert mom.mean_right == pytest.approx(t * r1 / math.pi, abs=1e-14)
        assert mom.mean_left == pytest.approx(t * r1 / math.pi, abs=1e-14)
        expected_var = (math.log(2.0 * t * r1) + 1.0 + ov.EULER_GAMMA) / math.pi**2
        assert mom.var == pytest.approx(expected_var, rel=1e-14)

    def test_mean_sum_recovers_symmetric_count(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = float(rng.uniform(-0.4, 1.5))
            beta_im = float(rng.uniform(-0.8, 0.8))
            t = float(rng.uniform(2.0, 40.0))
            params = KernelParams(alpha=alpha, beta_im=beta_im)
            mom = moment_asymptotics(params, t, 1.0, 1.5)
            mean0, _ = symmetric_counting_asymptotics(params, t)
            assert mom.mean_right + mom.mean_left == pytest.approx(mean0, abs=1e-12)
            assert mean0 == pytest.approx(2.0 * t / math.pi - alpha, abs=1e-13)

    def test_variance_covariance_combination_is_parameter_free(self):
        t, r1, r2 = 12.0, 1.0, 1.7
        base = moment_asymptotics(KernelParams(alpha=0.0, beta_im=0.0), t, r1, r2)
        reference = base.var + base.var + 2.0 * base.cov_opposite
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = KernelParams(
                alpha=float(rng.uniform(-0.4, 1.5)), beta_im=float(rng.uniform(-0.8, 0.8))
            )
            mom = moment_asymptotics(params, t, r1, r2)
            combined = mom.var + mom.var + 2.0 * mom.cov_opposite
            assert combined == pytest.approx(reference, abs=1e-12)

    def test_covariance_sum_reflects_pair_distances(self):
        # same-side intervals sit |x - y| apart, opposite-side ones x + y
        # apart; the constant terms cancel in the sum, leaving the distance
        # ratio
        params = KernelParams(alpha=0.25, beta_im=0.3)
        t, r1, r2 = 8.0, 1.0, 2.0
        mom = moment_asymptotics(params, t, r1, r2)
        x, y = t * r1, t * r2
        expected = math.log((x + y) / (y - x)) / (2.0 * math.pi**2)
        assert mom.cov_same + mom.cov_opposite == pytest.approx(expected, rel=1e-14)
        assert mom.cov_same + mom.cov_opposite > 0.0

    def test_coincident_limit_recovers_symmetric_count_variance(self):
        # as r2 -> r1 the pair N(t r1) + N(-t r2) fills a symmetric interval;
        # variance plus opposite-side covariance must close onto the
        # symmetric-count variance with no singular remainder
        params = KernelParams(alpha=0.25, beta_im=0.3)
        t = 10.0
        mom = moment_asymptotics(params, t, 1.0, 1.0 + 1e-9)
        combined = 2.0 * mom.var + 2.0 * mom.cov_opposite
        _, var0 = symmetric_counting_asymptotics(params, t)
        assert combined == pytest.approx(var0, abs=1e-8)

    def test_symmetric_count_closed_form(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        t = 10.0
        mean, var = symmetric_counting_asymptotics(params, t)
        assert mean == pytest.approx(2.0 * t / math.pi - 0.25, abs=1e-14)
        assert var == pytest.approx(
            (math.log(4.0 * t) + 1.0 + ov.EULER_GAMMA) / math.pi**2, rel=1e-14
        )
        assert log_barnes_g_d2(0.0).real == pytest.approx(-1.0 - ov.EULER_GAMMA, abs=1e-14)

    def test_theta_pair_is_the_barnes_derivatives(self):
        # psi and psi' at 1+z, each once, in the closed forms of (ln G)' and
        # (ln G)''; the unit-argument curvature is the constant -1 - gamma_E
        rng = np.random.default_rng(5)
        for _ in range(200):
            params = KernelParams(
                alpha=float(rng.uniform(-0.45, 1.5)), beta_im=float(rng.uniform(-0.7, 0.7))
            )
            z = complex(params.alpha, params.beta_im)
            assert asymptotics._theta_pair(params) == (
                -log_barnes_g_d1(z).imag / math.pi,
                -log_barnes_g_d2(z).real / (2.0 * math.pi**2),
            )
        assert asymptotics._LOG_BARNES_G_D2_AT_ONE == -1.0 - ov.EULER_GAMMA

    def test_one_digamma_and_one_trigamma_call(self, monkeypatch):
        calls = []
        for name in ("digamma", "trigamma"):
            exact = getattr(asymptotics, name)

            def counting(z, name=name, exact=exact):
                calls.append(name)
                return exact(z)

            monkeypatch.setattr(asymptotics, name, counting)
        mom = moment_asymptotics(KernelParams(alpha=0.25, beta_im=0.3), 10.0, 1.0, 2.0)
        assert sorted(calls) == ["digamma", "trigamma"]
        assert isinstance(mom, CountingStatistics)

    def test_without_r2_the_covariances_are_none(self):
        # the means and the variance do not depend on r2
        params = KernelParams(alpha=0.25, beta_im=0.3)
        alone = moment_asymptotics(params, 10.0, 1.0)
        paired = moment_asymptotics(params, 10.0, 1.0, 2.0)
        assert alone.cov_same is None and alone.cov_opposite is None
        for name in ("mean_right", "mean_left", "var"):
            assert getattr(alone, name) == getattr(paired, name)
        assert complex_moment_asymptotics(params, 10.0, 1.0).cov_same is None

    def test_invalid_positions_rejected(self):
        params = KernelParams(alpha=0.0, beta_im=0.0)
        with pytest.raises(DomainError):
            moment_asymptotics(params, 5.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            moment_asymptotics(params, 5.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            moment_asymptotics(params, 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            moment_asymptotics(params, 5.0, 0.0)
        # non-finite positions and times would give NaN means and covariances
        for args in ((5.0, math.inf), (5.0, 1.0, math.inf), (math.inf, 1.0, 2.0), (5.0, math.nan)):
            with pytest.raises(DomainError):
                moment_asymptotics(params, *args)
        with pytest.raises(DomainError):
            symmetric_counting_asymptotics(params, 0.0)


def _random_case(rng):
    """A seeded expansion case: alpha in [-0.45, 1.5], |beta_im| <= 0.7,
    1-4 intervals of unequal lengths with the origin at any endpoint,
    weights in [0, 0.999] and t in [0.5, 100]."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, n + 1))
    r = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, size=n))])
    r = tuple(0.0 if k == m else float(v) for k, v in enumerate(r - r[m]))
    gamma = tuple(float(g) for g in rng.uniform(0.0, 0.999, size=n))
    t = float(np.exp(rng.uniform(math.log(0.5), math.log(100.0))))
    params = KernelParams(
        alpha=float(rng.uniform(-0.45, 1.5)), beta_im=float(rng.uniform(-0.7, 0.7))
    )
    return params, _cfg(r, gamma, t)


class TestRealForms:
    """The real-arithmetic expansions against their complex forms as
    published, which evaluate both members of every conjugate pair."""

    def test_match_complex_forms(self):
        rng = np.random.default_rng(20240613)

        def close(value, reference):
            return abs(value - reference) <= 1e-15 * max(1.0, abs(reference))

        seeded = 0
        for _ in range(500):
            params, cfg = _random_case(rng)
            rep, ref = large_gap_lnF(params, cfg), complex_large_gap_lnF(params, cfg)
            assert [name for name, _ in rep.breakdown] == [name for name, _ in ref.breakdown]
            for (name, value), (_, expected) in zip(rep.breakdown, ref.breakdown):
                assert close(value, expected), (name, params, cfg)
            assert close(rep.log_term, ref.log_term)
            assert close(rep.constant_term, ref.constant_term)
            # the real seed of every flow: lnF = W t0^(1 + 2 alpha), whose t-free
            # coefficient W = 2i sum_k r_k U0_k / (1 + 2 alpha)^2 comes from the
            # t -> 0 limits U0 of U (which a seed at t = 1e-200 holds to rounding)
            # and is the closed form at t = 1
            state = cpv_init(params, cfg.replace_t(1e-200))
            seed = cpv_init(params, cfg)
            twoa1 = 1.0 + 2.0 * params.alpha
            ru = sum(cfg.r[k] * u_k for k, u_k in zip(state.indices, state.y))
            coefficient = 2j * ru / (twoa1 * twoa1)
            assert state.lnF.imag == 0.0 and seed.lnF.imag == 0.0
            assert close(coefficient.real, complex_small_t_lnF(params, cfg, 1.0))
            assert close(seed.lnF / seed.t**twoa1, complex_small_t_lnF(params, cfg, 1.0))
            expected = complex_small_t_lnF(params, cfg, 1e-200)
            if abs(expected) > 1e-290:  # 1e-200^(1 + 2 alpha) underflows for alpha above ~0.27
                seeded += 1
                assert abs(state.lnF - expected) <= 1e-14 * abs(expected), (params, cfg)
            r1 = float(rng.uniform(0.1, 2.0))
            r2 = r1 + float(rng.uniform(0.01, 2.0))
            mom = moment_asymptotics(params, cfg.t, r1, r2)
            mom_ref = complex_moment_asymptotics(params, cfg.t, r1, r2)
            for name in ("mean_right", "mean_left", "var", "cov_same", "cov_opposite"):
                assert close(getattr(mom, name), getattr(mom_ref, name)), name
        assert seeded >= 100

    def test_one_barnes_g_per_conjugate_pair(self, monkeypatch):
        # two at the origin block and one per active endpoint
        calls = []
        exact = asymptotics.log_barnes_g

        def counting(z):
            calls.append(z)
            return exact(z)

        monkeypatch.setattr(asymptotics, "log_barnes_g", counting)
        params = KernelParams(alpha=0.25, beta_im=0.3)
        large_gap_lnF(params, _cfg((-1.0, 0.0, 1.0, 2.0), (0.3, 0.9, 0.5), 16.0))
        assert len(calls) == 2 + 3
