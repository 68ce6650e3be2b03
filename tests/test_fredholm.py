"""Tests for the Nystrom determinant, checked against a trace-series oracle."""

import math
import time

import numpy as np
import pytest

from chfdet import fredholm
from chfdet.errors import DomainError, NonConvergenceError, RegimeError
from chfdet.fredholm import build_grid, log_det
from chfdet.kernel import Configuration, KernelParams
from chfdet.quadrules import gauss_jacobi

from _references import log_det_fixed_panels, log_det_series_oracle

SINE = KernelParams(0.0, 0.0)


def single_interval(gamma, t):
    return Configuration(r=(0.0, 1.0), gamma=(gamma,), t=t)


def orders_of(config, alpha):
    nodes, weights = build_grid(config, alpha)
    assert [x.size for x in nodes] == [w.size for w in weights]
    return [x.size for x in nodes]


class TestBuildGrid:
    def test_single_interval_no_grading(self):
        c = single_interval(0.5, 1.0)
        nodes, weights = build_grid(c, 0.0)
        assert len(nodes) == len(weights) == 1
        assert nodes[0].shape == weights[0].shape == (7,)
        assert np.all(nodes[0] > 0.0) and np.all(nodes[0] < 1.0)

    def test_graded_panel_layout(self):
        # intervals of length 1000, 1000 and 1500 get the fewest equal panels
        # whose rule orders stay below 512: two each, of orders 297 and 429
        c = Configuration(r=(-1.0, 0.0, 1.0, 2.5), gamma=(0.3, 0.3, 0.3), t=1000.0)
        alpha = -0.25
        assert orders_of(c, alpha) == [297, 297, 297, 297, 429, 429]
        nodes, weights = build_grid(c, alpha)
        spans = [(-1000.0, -500.0), (-500.0, 0.0), (0.0, 500.0), (500.0, 1000.0),
                 (1000.0, 1750.0), (1750.0, 2500.0)]
        assert len(nodes) == len(weights) == len(spans)
        # origin panels: Gauss-Jacobi for |x|^{2 alpha}, weights times |x|^{-2 alpha}
        xj, wj = gauss_jacobi(nodes[2].size, 2.0 * alpha)
        np.testing.assert_allclose(nodes[2], 500.0 * xj, rtol=1e-15)
        np.testing.assert_allclose(weights[2], 500.0 * wj * xj ** (-2.0 * alpha), rtol=1e-15)
        np.testing.assert_allclose(nodes[1], -nodes[2][::-1], rtol=1e-15)
        np.testing.assert_allclose(weights[1], weights[2][::-1], rtol=1e-15)
        # every other panel: Gauss-Legendre on its span
        for row in (0, 3, 4, 5):
            (lo, hi), xs = spans[row], nodes[row]
            xg, wg = gauss_jacobi(xs.size, 0.0)
            np.testing.assert_allclose(xs, lo + (hi - lo) * xg, rtol=1e-15)
            np.testing.assert_allclose(weights[row], (hi - lo) * wg, rtol=1e-15)
        for (lo, hi), xs in zip(spans, nodes):
            assert np.all(xs > lo) and np.all(xs < hi)

    def test_weights_sum_to_total_length(self):
        c = Configuration(r=(-2.0, 0.0, 1.0, 3.0), gamma=(0.1, 0.2, 0.3), t=1.5)
        _, weights = build_grid(c, 0.0)
        assert math.isclose(float(np.sum(np.concatenate(weights))), 5.0 * 1.5, rel_tol=1e-14)

    def test_nodes_strictly_inside_panels(self):
        # intervals of length 14 and 28 are one panel each; at t = 1000 the
        # intervals of length 1000 and 2000 get 2 and 3 panels
        layouts = {
            14.0: [(-14.0, 0.0), (0.0, 28.0)],
            1000.0: [(-1000.0, -500.0), (-500.0, 0.0), (0.0, 2000.0 / 3.0),
                     (2000.0 / 3.0, 4000.0 / 3.0), (4000.0 / 3.0, 2000.0)],
        }
        for t, spans in layouts.items():
            c = Configuration(r=(-1.0, 0.0, 2.0), gamma=(0.4, 0.4), t=t)
            for alpha in (0.0, -0.45):
                nodes, weights = build_grid(c, alpha)
                assert len(nodes) == len(spans)
                for (lo, hi), xs, ws in zip(spans, nodes, weights):
                    assert np.all(xs > lo) and np.all(xs < hi)
                    assert np.all(ws > 0.0)

    def test_panels_scale_with_t(self):
        for t in (1.0, 3.0):
            (xs,), _ = build_grid(single_interval(0.5, t), 0.0)
            np.testing.assert_allclose(xs, t * gauss_jacobi(xs.size, 0.0)[0], rtol=1e-15)
            assert 0.0 < xs.min() and xs.max() < t

    def test_empty_domain_rejected(self):
        c = single_interval(0.5, 0.0)
        with pytest.raises(DomainError):
            build_grid(c, 0.0)

    @pytest.mark.parametrize("t", [1e4, 1e12])
    def test_grid_too_large_to_factor_is_refused_at_once(self, t):
        # one panel per 905 of length: at t = 1e12 the count alone would
        # loop for hours before a matrix of 1e9 rows was asked for
        start = time.perf_counter()
        with pytest.raises(RegimeError, match="more than the 4096"):
            log_det(SINE, single_interval(0.5, t))
        assert time.perf_counter() - start < 1.0

    def test_largest_grid_in_use_is_laid(self):
        # t = 1000 on three intervals at alpha -0.45 takes 1786 nodes
        c = Configuration(r=(-1.0, 0.0, 1.0, 2.0), gamma=(0.3, 0.9, 0.5), t=1000.0)
        assert sum(orders_of(c, -0.45)) == 1786
        assert math.isfinite(log_det(KernelParams(-0.45, 0.7), c))


class TestPanelOrderRule:
    """Each panel's order comes from the Bernstein-ellipse bound of its own
    interval, and each interval takes the fewest equal panels whose orders
    stay below the largest rule order (see fredholm._panel_order)."""

    def test_order_grows_with_panel_width(self):
        for alpha in (-0.45, 0.0, 1.5):
            origin = [orders_of(single_interval(0.5, t), alpha)[0] for t in (0.5, 1, 2, 5, 12)]
            assert origin == sorted(origin) and origin[0] < origin[-1]
        # (t, 2 t) keeps its shape as it widens: the same ellipse cap, more width
        away = [orders_of(Configuration(r=(-1.0, 0.0, 1.0, 2.0), gamma=(0.3,) * 3, t=t), 0.0)[-1]
                for t in (0.5, 2, 5, 12)]
        assert away == sorted(away) and away[0] < away[-1]

    def test_order_grows_as_a_panel_nears_the_origin(self):
        # panels of width 1 at growing distance d from the origin
        orders = [orders_of(Configuration(r=(0.0, d, d + 1.0), gamma=(0.3, 0.3), t=1.0), 0.0)[1]
                  for d in (4.0, 1.0, 0.3, 0.1, 0.01)]
        assert orders == sorted(orders) and orders[0] < orders[-1]

    def test_origin_panels_are_not_capped(self):
        # a width-1 panel at the origin takes fewer nodes than the same panel
        # 0.01 away, whose ellipse is capped at the origin; its weight's
        # integral, larger as alpha falls, raises its bound
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.3), t=1.0)
        shifted = Configuration(r=(0.0, 0.01, 1.01), gamma=(0.3, 0.3), t=1.0)
        assert orders_of(c, 0.0) == [7, 7]
        assert orders_of(shifted, 0.0)[1] > 2 * orders_of(c, 0.0)[1]
        near_edge, plain, smooth = (orders_of(c, a)[0] for a in (-0.45, 0.0, 1.5))
        assert near_edge >= plain >= smooth

    def test_orders_depend_only_on_each_panel(self):
        # the shared panels of two layouts take the same orders
        left = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.3), t=7.3)
        right = Configuration(r=(-1.0, 0.0, 1.0, 2.9), gamma=(0.3, 0.3, 0.3), t=7.3)
        assert orders_of(right, 0.25)[:2] == orders_of(left, 0.25)

    def test_rule_orders(self):
        # t = 5: origin panels of width 5 and the panel (5, 10); t = 20 and
        # t = 100: one origin panel of width 20 and 100
        c5 = Configuration(r=(-1.0, 0.0, 1.0, 2.0), gamma=(0.3,) * 3, t=5.0)
        assert orders_of(c5, 0.0) == [13, 13, 14]
        c20 = Configuration(r=(0.0, 1.0), gamma=(0.3,), t=20.0)
        assert orders_of(c20, 0.0) == [26]
        c100 = Configuration(r=(0.0, 1.0), gamma=(0.3,), t=100.0)
        assert orders_of(c100, 0.0) == [77]

    @pytest.mark.parametrize("alpha", [-0.45, 0.0, 1.5])
    def test_fewest_panels_below_the_largest_order(self, alpha):
        # at t = 1000 every panel's order stays below 512, the one nearest
        # the origin on (10, 1500) included, and one panel fewer on any
        # interval would need 512 or more somewhere
        c = Configuration(r=(-1.0, 0.0, 0.01, 1.5), gamma=(0.3,) * 3, t=1000.0)
        nodes, _ = build_grid(c, alpha)
        assert max(x.size for x in nodes) < 512
        edges = c.scaled_endpoints()
        counts = [sum(1 for x in nodes if a < x[0] < b) for a, b in zip(edges, edges[1:])]
        assert sum(counts) == len(nodes) and max(counts) > 1
        for a, b, count in zip(edges, edges[1:], counts):
            if count > 1:
                fewer = [a + (b - a) * i / (count - 1) for i in range(count)]
                assert max(fredholm._panel_order(lo, hi, alpha)
                           for lo, hi in zip(fewer, fewer[1:])) >= 512

    def test_panels_near_the_origin_stay_few(self):
        # an interval that starts just off the origin is split by its length
        # alone; its panel nearest the origin takes the capped order 512
        for r1 in (1e-6, 1e-12, 1e-300):
            for t, sizes in ((1.0, [4, 512]), (1000.0, [4, 512, 297])):
                c = Configuration(r=(0.0, r1, 1.0), gamma=(0.3, 0.3), t=t)
                assert orders_of(c, 0.0) == sizes

    @pytest.mark.usefixtures("extended_long_double")
    def test_seeded_audit_against_order_40(self):
        # over 400 random points, log_det at the rule's orders stays within
        # 1e-14 of 40 nodes per panel on equal panels at most 12 wide,
        # relative to max(1, |lnF|)
        rng = np.random.default_rng(25)
        layouts = [(0.0, 1.0), (-1.0, 0.0), (-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 2.0),
                   (0.0, 0.3, 1.1)]
        alphas = np.concatenate(([-0.45, 1.5] * 10, rng.uniform(-0.45, 1.5, 380)))
        worst = 0.0
        for i, alpha in enumerate(alphas):
            r = layouts[i % len(layouts)]
            params = KernelParams(alpha, rng.uniform(-0.7, 0.7))
            t = math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
            config = Configuration(r=r, gamma=tuple(rng.uniform(0.05, 0.95, len(r) - 1)), t=t)
            want = log_det_fixed_panels(params, config, 40)
            worst = max(worst, abs(log_det(params, config) - want) / max(1.0, abs(want)))
        assert worst < 1e-14


class TestLogDet:
    def test_zero_weights_give_zero(self):
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.0, 0.0), t=2.0)
        assert log_det(SINE, c) == 0.0

    def test_zero_t_gives_zero(self):
        assert log_det(SINE, single_interval(0.7, 0.0)) == 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: build_grid(single_interval(0.7, 2.0), 0.0, 40),
            lambda: log_det(SINE, single_interval(0.7, 2.0), 40),
            lambda: log_det(SINE, single_interval(0.7, 0.0), order=40),
            lambda: log_det(SINE, Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.0, 0.0), t=2.0),
                            order=40),
        ],
        ids=["build_grid", "log_det", "log_det_empty_domain", "log_det_zero_weights"],
    )
    def test_order_is_not_an_argument(self, call):
        # the ellipse rule alone sets each panel's order; a stale order is
        # refused, also on the paths that return 0 without a grid
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("t", [1e-250, 1e-300, 5e-324])
    def test_tiny_t_with_negative_alpha_is_zero(self, t):
        # lnF is of order t^{2 alpha + 1} = 1e-100 here, so 0 to rounding; the
        # node values of A reach 1e112 and their density must not overflow.
        # At t = 5e-324 each interval is too short to hold a panel
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.4, 0.2), t=t)
        assert abs(log_det(KernelParams(-0.3, 0.0), c)) <= 1e-15

    def test_small_t_first_trace(self):
        c = single_interval(0.5, 0.01)
        expected = -0.5 * 0.01 / math.pi
        assert abs(log_det(SINE, c) - expected) < 2e-6

    def test_order_doubling_at_large_t(self):
        # at t = 10 the fixed-order reference cuts the rule's one panel
        c = single_interval(0.5, 10.0)
        v40 = log_det_fixed_panels(SINE, c, 40)
        v80 = log_det_fixed_panels(SINE, c, 80)
        assert abs(v40 - v80) < 1e-10
        assert abs(log_det(SINE, c) - v80) < 1e-10
        assert v80 < log_det(SINE, single_interval(0.5, 0.5)) < 0.0

    def test_self_convergence_geometric(self):
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=8.0)
        v8 = log_det_fixed_panels(SINE, c, 8)
        v16 = log_det_fixed_panels(SINE, c, 16)
        v32 = log_det_fixed_panels(SINE, c, 32)
        d1 = abs(v8 - v16)
        d2 = abs(v16 - v32)
        assert d1 < 1e-6
        assert d2 <= 0.25 * d1 + 1e-13

    def test_graded_self_convergence_negative_alpha(self):
        p = KernelParams(-0.25, 0.4)
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=5.0)
        vals = {q: log_det_fixed_panels(p, c, q) for q in (8, 16, 32)}
        d1 = abs(vals[8] - vals[16])
        d2 = abs(vals[16] - vals[32])
        assert d1 < 1e-6
        assert d2 <= 0.25 * d1

    @pytest.mark.parametrize("alpha", [-0.45, 1.5])
    def test_order_self_convergence_at_domain_edges(self, alpha):
        p = KernelParams(alpha, 0.7)
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=100.0)
        doubled = log_det_fixed_panels(p, c, 48)
        assert abs(log_det(p, c) - doubled) < 1e-10

    @pytest.mark.usefixtures("extended_long_double")
    def test_orders_agree_to_rounding_at_the_singular_edge(self):
        # at alpha -0.45 the origin panels' Gauss-Jacobi rule for |x|^-0.9
        # has nodes near 0; rules correct to the last bit keep every order
        # from 9 up within rounding of the rule's value
        p = KernelParams(-0.45, -0.329)
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.781, 0.498), t=1.83)
        values = [log_det_fixed_panels(p, c, q) for q in (9, 12, 20, 40, 56)] + [log_det(p, c)]
        assert max(values) - min(values) < 1e-14

    def test_nan_kernel_raises(self, monkeypatch):
        def nan_matrix(params, x):
            return np.full((x.size, x.size), np.nan)

        monkeypatch.setattr(fredholm, "chf_kernel_matrix", nan_matrix)
        # numpy warns on the NaN factorization; log_det still raises
        with pytest.raises(NonConvergenceError, match="not positive and finite"):
            with pytest.warns(RuntimeWarning, match="invalid value"):
                log_det(SINE, single_interval(0.5, 1.0))

    def test_eigenvalue_above_one_raises(self, monkeypatch):
        # a constant kernel 4 gives the rank-one B = 4 d d^T, whose eigenvalue
        # 4 sum(w sigma) = 4 * 0.5 puts det(I - B) at -1
        def constant_matrix(params, x):
            return np.full((x.size, x.size), 4.0)

        monkeypatch.setattr(fredholm, "chf_kernel_matrix", constant_matrix)
        with pytest.raises(NonConvergenceError, match="sign -1"):
            log_det(SINE, single_interval(0.5, 1.0))

    def test_monotone_in_gamma(self):
        vals = [log_det(SINE, single_interval(g, 1.0)) for g in (0.2, 0.5, 0.8)]
        assert vals[0] > vals[1] > vals[2]

    def test_gap_probability_reduction(self):
        p = KernelParams(0.5, 0.4)
        split = Configuration(r=(0.0, 1.0, 2.0), gamma=(0.4, 0.4), t=1.5)
        merged = Configuration(r=(0.0, 2.0), gamma=(0.4,), t=1.5)
        assert abs(log_det(p, split) - log_det(p, merged)) < 1e-10

    def test_translation_invariance_of_sine(self):
        centered = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.45, 0.45), t=2.0)
        shifted = Configuration(r=(0.0, 2.0), gamma=(0.45,), t=2.0)
        assert abs(log_det(SINE, centered) - log_det(SINE, shifted)) < 1e-10

    def test_translation_invariance_of_sine_at_large_t(self):
        centered = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.45, 0.45), t=100.0)
        shifted = Configuration(r=(0.0, 2.0), gamma=(0.45,), t=100.0)
        assert abs(log_det(SINE, centered) - log_det(SINE, shifted)) < 1e-10


class TestSeriesOracle:
    def test_zero_weights(self):
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.0, 0.0), t=1.0)
        assert log_det_series_oracle(SINE, c) == 0.0

    def test_one_term_is_diagonal_integral(self):
        c = single_interval(0.5, 0.7)
        v = log_det_series_oracle(SINE, c, terms=1)
        assert abs(v + 0.5 * 0.7 / math.pi) < 1e-13

    def test_terms_validation(self):
        c = single_interval(0.5, 0.1)
        with pytest.raises(DomainError):
            log_det_series_oracle(SINE, c, terms=0)
        with pytest.raises(DomainError):
            log_det_series_oracle(SINE, c, terms=9)

    @pytest.mark.parametrize(
        "params, config, terms",
        [
            (SINE, single_interval(0.3, 0.2), 4),
            (SINE, Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=0.3), 8),
            (KernelParams(0.5, 0.4), Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=0.2), 6),
            (SINE, single_interval(1.0, 0.2), 6),
        ],
    )
    def test_agrees_with_lu_within_bound(self, params, config, terms):
        value, bound = log_det_series_oracle(params, config, terms=terms, return_bound=True)
        lu = log_det(params, config)
        assert abs(value - lu) <= bound
        assert bound < 1e-8

    def test_agrees_with_lu_at_singular_edge(self):
        p = KernelParams(-0.45, 0.4)
        c = single_interval(0.5, 0.05)
        value, bound = log_det_series_oracle(p, c, terms=6, return_bound=True)
        assert abs(value - log_det(p, c)) <= bound

    @pytest.mark.parametrize("t", [0.01, 0.05])
    def test_power_map_resolves_singular_edge(self, t):
        # the density goes like |x|^{2 alpha}; the substitution must absorb
        # that, not |x|^alpha, or the midpoint sums converge too slowly
        p = KernelParams(-0.45, 0.3)
        c = single_interval(0.7, t)
        assert abs(log_det_series_oracle(p, c, terms=8) - log_det(p, c)) < 1e-3

    def test_cross_oracle_example(self):
        c = single_interval(0.3, 0.2)
        v = log_det_series_oracle(SINE, c, terms=4)
        assert abs(v - log_det(SINE, c)) < 1e-9

    def test_negative_alpha_bound_is_honest(self):
        p = KernelParams(-0.25, 0.4)
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=0.2)
        value, bound = log_det_series_oracle(p, c, terms=6, return_bound=True)
        accurate = log_det(p, c)
        assert abs(value - accurate) <= bound

    def test_norm_gate(self):
        c = single_interval(0.99, 6.0)
        with pytest.raises(RegimeError):
            log_det_series_oracle(SINE, c, terms=8)

    def test_tolerance_gate(self):
        c = single_interval(0.5, 0.3)
        with pytest.raises(RegimeError):
            log_det_series_oracle(SINE, c, terms=3, tol=1e-15)
        value = log_det_series_oracle(SINE, c, terms=5, tol=1e-6)
        assert math.isfinite(value)
