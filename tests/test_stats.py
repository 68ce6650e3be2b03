"""Tests for the trace-identity counting statistics."""

import math

import numpy as np
import pytest

from chfdet import stats
from chfdet.asymptotics import moment_asymptotics
from chfdet.errors import DomainError, NonConvergenceError
from chfdet.fredholm import log_det
from chfdet.kernel import Configuration, KernelParams
from chfdet.stats import (
    counting_statistics,
    numeric_covariance,
    numeric_mean,
    numeric_variance,
)

from _references import symmetric_counting_asymptotics

PLAIN = KernelParams(alpha=0.0, beta_im=0.0)
SHARED_PARAMS = [
    KernelParams(alpha=alpha, beta_im=beta_im)
    for alpha in (-0.45, 0.0, 1.5)
    for beta_im in (-0.7, 0.0, 0.7)
]


class TestMean:
    def test_small_interval_matches_kernel_trace(self):
        # the expected count is the integrated kernel diagonal: 0.1/pi on
        # (0, 0.1)
        est = numeric_mean(PLAIN, 0.1, 1.0)
        assert est == pytest.approx(0.1 / math.pi, abs=1e-6)

    def test_large_interval_matches_asymptotics(self):
        est = numeric_mean(PLAIN, 10.0, 1.0)
        asym = moment_asymptotics(PLAIN, 10.0, 1.0, 2.0)
        assert est == pytest.approx(asym.mean_right, abs=0.02)

    def test_jump_parameter_shifts_both_sides(self):
        params = KernelParams(alpha=0.0, beta_im=0.4)
        asym = moment_asymptotics(params, 10.0, 1.0, 2.0)
        right = numeric_mean(params, 10.0, 1.0)
        left = numeric_mean(params, 10.0, -1.0)
        assert right == pytest.approx(asym.mean_right, abs=0.02)
        assert left == pytest.approx(asym.mean_left, abs=0.02)
        assert right != pytest.approx(left, abs=0.1)

    def test_nonfinite_value_raises(self, monkeypatch):
        def nan_operator(params, t, r):
            return np.array([0.5]), np.full((1, 1), np.nan)

        monkeypatch.setattr(stats, "_operator", nan_operator)
        with pytest.raises(NonConvergenceError):
            numeric_mean(PLAIN, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            numeric_mean(PLAIN, 0.0, 1.0)
        with pytest.raises(DomainError):
            numeric_mean(PLAIN, 1.0, 0.0)


class TestVariance:
    def test_large_interval_matches_asymptotics(self):
        est = numeric_variance(PLAIN, 10.0, 1.0)
        asym = moment_asymptotics(PLAIN, 10.0, 1.0, 2.0)
        assert est == pytest.approx(asym.var, abs=0.05)

    def test_positive_across_scales(self):
        for t in (1.0, 4.0, 20.0):
            assert numeric_variance(PLAIN, t, 1.0) > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            numeric_variance(PLAIN, -1.0, 1.0)
        with pytest.raises(DomainError):
            numeric_variance(PLAIN, 1.0, 0.0)


class TestCovariance:
    def test_same_side_matches_asymptotics(self):
        est = numeric_covariance(PLAIN, 10.0, 1.0, 2.0, "+")
        asym = moment_asymptotics(PLAIN, 10.0, 1.0, 2.0)
        assert est == pytest.approx(asym.cov_same, abs=0.05)
        assert est > 0.0

    def test_opposite_side_matches_asymptotics(self):
        est = numeric_covariance(PLAIN, 10.0, 1.0, 2.0, "-")
        asym = moment_asymptotics(PLAIN, 10.0, 1.0, 2.0)
        assert est == pytest.approx(asym.cov_opposite, abs=0.05)
        assert est < 0.0

    def test_argument_order_is_irrelevant_bitwise(self):
        for sign in ("+", "-"):
            a = numeric_covariance(PLAIN, 2.0, 1.0, 2.0, sign)
            b = numeric_covariance(PLAIN, 2.0, 2.0, 1.0, sign)
            assert a == b

    def test_symmetric_count_variance_combination(self):
        # Var(N(t) + N(-t)) assembled from the one-sided pieces against the
        # symmetric-count closed form
        t = 10.0
        combined = (
            numeric_variance(PLAIN, t, 1.0)
            + numeric_variance(PLAIN, t, -1.0)
            + 2.0 * numeric_covariance(PLAIN, t, 1.0, 1.0 + 1e-12, "-")
        )
        _, var0 = symmetric_counting_asymptotics(PLAIN, t)
        assert combined == pytest.approx(var0, abs=0.05)

    def test_validation(self):
        with pytest.raises(DomainError):
            numeric_covariance(PLAIN, 1.0, 1.0, 1.0, "+")
        with pytest.raises(DomainError):
            numeric_covariance(PLAIN, 1.0, -1.0, 2.0, "+")
        with pytest.raises(DomainError):
            numeric_covariance(PLAIN, 1.0, 1.0, 2.0, "x")
        with pytest.raises(DomainError):
            numeric_covariance(PLAIN, 0.0, 1.0, 2.0, "+")


class TestGeneratingFunction:
    def test_one_sided_derivatives_match_traces(self):
        # ln E[e^{-lam N}] = log_det at weight 1 - e^{-lam}: its first two
        # derivatives at lam = 0 are -mean and +variance. Interpolate f(0) = 0
        # and f(k h), k = 1..4, by a quartic in u = lam / h.
        params = KernelParams(alpha=0.25, beta_im=0.3)
        t, h = 10.0, 0.01
        u = np.arange(5.0)
        f = [0.0] + [
            log_det(params, Configuration(r=(0.0, 1.0), gamma=(-math.expm1(-k * h),), t=t))
            for k in u[1:]
        ]
        c = np.linalg.solve(np.vander(u, increasing=True), f)
        assert -c[1] / h == pytest.approx(numeric_mean(params, t, 1.0), abs=1e-6)
        assert 2.0 * c[2] / h**2 == pytest.approx(numeric_variance(params, t, 1.0), abs=1e-6)


def _single_statistics(params, t, r1, r2):
    return (
        numeric_mean(params, t, r1),
        numeric_mean(params, t, -r1),
        numeric_variance(params, t, r1),
        numeric_covariance(params, t, r1, r2, "+"),
        numeric_covariance(params, t, r1, r2, "-"),
    )


def _fields(counts):
    return (counts.mean_right, counts.mean_left, counts.var, counts.cov_same, counts.cov_opposite)


class TestCountingStatistics:
    @pytest.mark.parametrize("params", SHARED_PARAMS, ids=repr)
    def test_shared_panels_give_the_single_statistics_bitwise(self, params):
        # at t = 10, r = (1, 2) every interval is one panel, and the means,
        # the variance and the same-side covariance read panels that the
        # shared grid and each statistic's own grid have in common
        counts = counting_statistics(params, 10.0, 1.0, 2.0)
        assert _fields(counts)[:4] == _single_statistics(params, 10.0, 1.0, 2.0)[:4]

    @pytest.mark.parametrize("params", SHARED_PARAMS, ids=repr)
    @pytest.mark.usefixtures("extended_long_double")
    def test_split_panels_agree_to_rounding(self, params):
        # the shared grid splits (-t r2, 0) at -t r1 into panels the
        # opposite-side covariance's own grid lacks
        for t, r1, r2 in ((7.3, 0.7, 2.9), (10.0, 1.0, 2.0)):
            counts = counting_statistics(params, t, r1, r2)
            for got, want in zip(_fields(counts), _single_statistics(params, t, r1, r2)):
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_without_second_radius_covariances_are_absent(self):
        params = KernelParams(alpha=0.25, beta_im=0.3)
        single = counting_statistics(params, 10.0, 1.0)
        pair = counting_statistics(params, 10.0, 1.0, 2.0)
        assert single.cov_same is None and single.cov_opposite is None
        assert (single.mean_right, single.mean_left, single.var) == (
            pair.mean_right,
            pair.mean_left,
            pair.var,
        )

    def test_order_is_not_an_argument(self):
        with pytest.raises(TypeError):
            counting_statistics(PLAIN, 10.0, 1.0, 2.0, 40)
        with pytest.raises(TypeError):
            counting_statistics(PLAIN, 10.0, 1.0, order=40)

    def test_nonfinite_value_raises(self, monkeypatch):
        def nan_operator(params, t, r):
            return np.array([-0.5, 0.5]), np.full((2, 2), np.nan)

        monkeypatch.setattr(stats, "_operator", nan_operator)
        with pytest.raises(NonConvergenceError, match="mean_right"):
            counting_statistics(PLAIN, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            counting_statistics(PLAIN, 0.0, 1.0)
        with pytest.raises(DomainError):
            counting_statistics(PLAIN, 1.0, -1.0)
        with pytest.raises(DomainError):
            counting_statistics(PLAIN, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            counting_statistics(PLAIN, 1.0, 1.0, math.inf)

    @pytest.mark.parametrize(
        "t, r1, r2, condition",
        [
            (0.0, 1.0, 2.0, "t > 0"),
            (math.inf, 1.0, None, "t > 0"),
            (1.0, -1.0, 2.0, "r1 > 0"),
            (1.0, math.nan, None, "r1 > 0"),
            (1.0, 2.0, 1.0, "r2 > r1"),
            (1.0, 1.0, math.inf, "r2 > r1"),
        ],
    )
    def test_both_routes_check_the_radii_alike(self, t, r1, r2, condition):
        for route in (counting_statistics, moment_asymptotics):
            message = f"^{route.__name__}: requires finite {condition}$"
            with pytest.raises(DomainError, match=message):
                route(PLAIN, t, r1, r2)
