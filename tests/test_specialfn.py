"""Special-function layer: frozen high-precision anchors plus identities.

Anchor values in _oracle_values.py were generated once at 50-digit working
precision and pasted as 25-digit literals; the tests here compare against
them at tolerances that reflect each evaluation branch, then exercise the
classical identities (recurrences, reflection, the Kummer transformation,
Barnes recursion, derivative consistency) on randomized points.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from chfdet import specialfn as sf
from chfdet.errors import DomainError, NonConvergenceError, RegimeError
from chfdet.quadrules import gauss_jacobi

import _oracle_values as ov
from _references import gauss_legendre, kummer_taylor_march


def rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


def loop_optimal_sum(r1, r2, dz):
    """Term-by-term reference for specialfn._optimal_sum: (sum, k-weighted
    sum, bound)."""
    total, ktotal, term, last = 1.0 + 0.0j, 0.0j, 1.0 + 0.0j, 1.0
    for n in range(64):
        term = term * (r1 + n) * (r2 + n) / ((n + 1) * dz)
        if abs(term) >= last:
            return total, ktotal, last
        total += term
        ktotal += (n + 1) * term
        last = abs(term)
        if last < 1e-20 * abs(total):
            return total, ktotal, last
    return total, ktotal, last


class TestLogGamma:
    @pytest.mark.parametrize("z,want", ov.LOG_GAMMA)
    def test_anchors(self, z, want):
        assert rel(sf.log_gamma(z), complex(want)) < 1e-13

    def test_half_integer_values(self):
        assert abs(sf.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
        # on the cut the limit from above applies: Gamma(-1/2) = -2 sqrt(pi)
        want = math.log(2.0 * math.sqrt(math.pi)) - 1j * math.pi
        assert abs(sf.log_gamma(-0.5) - want) < 1e-14

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-8, 8, 200) + 1j * rng.uniform(-40, 40, 200)
        z = z[np.abs(z.imag) > 1e-3]
        lhs = sf.log_gamma(z + 1.0)
        rhs = sf.log_gamma(z) + np.log(z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_reflection_mod_2pi(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-6, 6, 100) + 1j * rng.uniform(-10, 10, 100)
        z = z[np.abs(z.imag) > 1e-3]
        total = sf.log_gamma(z) + sf.log_gamma(1.0 - z)
        direct = np.log(math.pi / np.sin(math.pi * z))
        winding = (total - direct) / (2j * math.pi)
        assert np.max(np.abs(winding - np.round(winding.real))) < 1e-11

    def test_conjugate_symmetry(self):
        for z in (1.3 + 2.7j, -2.2 + 0.4j, 0.6 - 5j):
            assert abs(sf.log_gamma(np.conj(z)) - np.conj(sf.log_gamma(z))) < 1e-13

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            sf.log_gamma(-3.0)
        with pytest.raises(DomainError):
            sf.log_gamma(0.0 + 0j)

    @pytest.mark.parametrize("name", ["log_gamma", "digamma", "trigamma", "rgamma"])
    def test_array_input_matches_scalar(self, name):
        # one path for every point: a value must not depend on its batch
        fn = getattr(sf, name)
        zs = np.array([0.5, 0.7 - 0.2j, 1.3 + 0.2j, 9.6 + 0j, 12.0 - 3.0j, 1.25 - 40.0j,
                       -3.2 + 0.7j, -0.5 - 2.0j, 0.1 + 4.0j, 0.55 + 0.7j, 0.1])
        batch = fn(zs)
        one = np.array([fn(z) for z in zs])
        assert np.array_equal(batch, one)
        grid = fn(zs[:10].reshape(2, 5))
        assert grid.shape == (2, 5) and np.array_equal(grid.ravel(), one[:10])

    def test_rgamma_zero_at_poles(self):
        assert sf.rgamma(-2.0) == 0.0
        assert rel(sf.rgamma(0.5 + 0.5j), np.exp(-sf.log_gamma(0.5 + 0.5j))) < 1e-13

    def test_rgamma_overflow_is_inf_without_warning(self):
        # 1/Gamma(-180.5) is about -8.6e329; callers check finiteness
        assert not np.isfinite(sf.rgamma(-180.5))
        assert np.isfinite(sf.rgamma([2.0, -180.5])).tolist() == [True, False]


class TestDigammaTrigamma:
    @pytest.mark.parametrize("z,want", ov.DIGAMMA)
    def test_digamma_anchors(self, z, want):
        assert rel(sf.digamma(z), complex(want)) < 1e-13

    @pytest.mark.parametrize("z,want", ov.TRIGAMMA)
    def test_trigamma_anchors(self, z, want):
        assert rel(sf.trigamma(z), complex(want)) < 1e-13

    def test_digamma_recurrence(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-5, 5, 100) + 1j * rng.uniform(-8, 8, 100)
        z = z[np.abs(z.imag) > 1e-3]
        assert np.max(np.abs(sf.digamma(z + 1.0) - sf.digamma(z) - 1.0 / z)) < 1e-12

    def test_derivatives_match_finite_differences(self):
        h = 1e-5
        for z in (1.7 + 0.9j, 3.1 - 2.2j, 0.8 + 0.1j):
            fd1 = (sf.log_gamma(z + h) - sf.log_gamma(z - h)) / (2 * h)
            assert abs(fd1 - sf.digamma(z)) < 1e-8
            fd2 = (sf.digamma(z + h) - sf.digamma(z - h)) / (2 * h)
            assert abs(fd2 - sf.trigamma(z)) < 1e-8

    def test_psi_one(self):
        assert abs(sf.digamma(1.0) + ov.EULER_GAMMA) < 1e-14
        assert abs(sf.trigamma(1.0) - math.pi**2 / 6.0) < 1e-13


class TestKummer:
    @pytest.mark.parametrize("a,b,z,want", ov.KUMMER)
    def test_anchors(self, a, b, z, want):
        assert rel(sf.kummer_phi(a, b, z), complex(want)) < 1e-11

    @pytest.mark.parametrize("a,b,z,want", ov.KUMMER_KERNEL)
    def test_kernel_anchors_on_asymptotic_branch(self, a, b, z, want):
        want = complex(want)
        assert abs(sf.kummer_phi(a, b, z) - want) / abs(want) < 1e-13

    @pytest.mark.parametrize(
        "r1,r2,dz",
        [
            # both sums of the kernel's expansion, on both rays and off axis
            (1.25 + 0.4j, 0.75 + 0.4j, 2j * np.linspace(15.1, 300.0, 57)),
            (0.25 - 0.4j, -0.25 - 0.4j, -2j * np.linspace(15.1, 300.0, 57)),
            (0.5, 0.5, np.array([2.0 + 35.0j, -31.0 + 0.0j, 45.0 + 5.0j])),
            # grows from the first term; never stops within 64 terms
            (10.0, 10.0, np.array([31.0 + 0.0j])),
            (40.0, 1.0, np.array([110.0 + 0.0j])),
        ],
    )
    def test_optimal_truncation_matches_term_by_term_loop(self, r1, r2, dz):
        total, ktotal, bound = sf._optimal_sum(r1, r2, dz)
        for got_t, got_k, got_b, d in zip(total, ktotal, bound, dz):
            want_t, want_k, want_b = loop_optimal_sum(r1, r2, complex(d))
            assert abs(got_t - want_t) <= 1e-14 * abs(want_t)
            assert abs(got_k - want_k) <= 1e-14 * abs(want_k)
            assert abs(got_b - want_b) <= 1e-12 * want_b

    def test_asymptotic_branch_sums_two_series(self, monkeypatch):
        # phi and phi' come from the same decaying and growing series
        calls = []
        exact = sf._optimal_sum

        def counting(r1, r2, dz):
            calls.append(dz.size)
            return exact(r1, r2, dz)

        monkeypatch.setattr(sf, "_optimal_sum", counting)
        sf._kummer_pair(1.25 + 0.3j, 1.5, np.array([40.0j, -75.0j, 35.0 + 3.0j, 600.0j]))
        assert calls == [4, 4]

    def test_kummer_transformation(self):
        # phi(a, b, z) = e^z phi(b - a, b, -z), across both branches
        params = [
            (1.5 + 0.4j, 2.0),
            (0.75 - 0.4j, 0.5),
            (1.9 + 0.0j, 3.0),
            (0.25 + 0.25j, 1.0),
        ]
        zs = np.array([0.3j, 4j, -9j, 22j, 29j, 33j, 41j, 2.0 + 35j, -13.0 + 0j])
        for a, b in params:
            lhs = sf.kummer_phi(a, b, zs)
            rhs = np.exp(zs) * sf.kummer_phi(b - a, b, -zs)
            assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-11

    @pytest.mark.parametrize("b,z", [(1.0, 17.0j), (1.0, -30.0), (2.0, -25.0), (1.2, -15.0 - 15.0j)])
    def test_exponential_special_case(self, b, z):
        # phi(b, b, z) = phi'(b, b, z) = e^z, recessive left of the imaginary
        # axis, where it must keep its relative accuracy
        phi, dphi = sf._kummer_pair(b, b, z)
        want = np.exp(z)
        assert abs(phi - want) < 1e-13 * abs(want)
        assert abs(dphi - want) < 1e-13 * abs(want)

    @pytest.mark.parametrize("a,b,z,want,dwant", ov.KUMMER_LEFT)
    def test_oracle_left_of_the_imaginary_axis(self, a, b, z, want, dwant):
        # recessive (b - a at or near 0) and dominant phi at Re z < 0, |z| <= 34
        phi, dphi = sf._kummer_pair(a, b, z)
        assert abs(phi - complex(want)) <= 1e-14 * abs(complex(want))
        assert abs(dphi - complex(dwant)) <= 1e-14 * abs(complex(dwant))

    def test_polynomial_termination(self):
        # a a non-positive integer truncates the series exactly
        a, b, z = -2.0, 1.5, 5.0j
        want = 1.0 + a / b * z + a * (a + 1) / (b * (b + 1)) * z * z / 2.0
        assert rel(sf.kummer_phi(a, b, z), want) < 1e-13

    def test_derivative_matches_finite_differences(self):
        a, b = 1.25 + 0.4j, 1.5
        for z in (3.0j, 19.0j, -7.5j):
            h = 1e-5
            fd = (sf.kummer_phi(a, b, z + h) - sf.kummer_phi(a, b, z - h)) / (2 * h)
            assert abs(fd - sf.kummer_phi_prime(a, b, z)) / abs(fd) < 1e-8

    @pytest.mark.parametrize("alpha", [-0.45, -0.2, 0.25, 1.5])
    @pytest.mark.parametrize("beta_im", [-0.7, 0.3, 0.7])
    def test_derivative_matches_contiguous_relation(self, alpha, beta_im):
        # phi' comes from phi's own terms (the ODE pass, or the asymptotic
        # series differentiated term by term); the reference is
        # d/dz phi(a, b, z) = (a/b) phi(a+1, b+1, z), a separate evaluation,
        # on both branches and both kernel rays
        a, b = 1.0 + alpha + 1j * beta_im, 1.0 + 2.0 * alpha
        x = np.concatenate([np.linspace(0.0, 15.0, 61), np.linspace(17.25, 300.0, 80)])
        zs = 2j * np.concatenate([-x[:0:-1], x])
        want = (a / b) * sf.kummer_phi(a + 1.0, b + 1.0, zs)
        got = sf.kummer_phi_prime(a, b, zs)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    def test_value_and_derivative_at_origin_are_exact(self):
        a, b = 0.55 + 0.7j, 0.1
        assert sf.kummer_phi(a, b, 0.0) == 1.0
        assert sf.kummer_phi_prime(a, b, 0.0) == a / b

    def test_b_pole_raises(self):
        with pytest.raises(DomainError):
            sf.kummer_phi(0.5, 0.0, 1.0j)
        with pytest.raises(DomainError):
            sf.kummer_phi(0.5, -2.0, 1.0j)

    def test_array_input_matches_scalar(self):
        # the origin, the series, radii the march stops at (1.5, 2.25), both
        # kernel rays, two off-axis rays and the asymptotic branch
        a, b = 0.9 + 0.2j, 1.8
        zs = np.array([0.0, 0.5j, 1.0j, 1.5j, 2.25j, -2.25j, 7.3j, -7.3j, 28.0j, -29.5j,
                       3.0 + 4.0j, 6.0 + 8.0j, 2.0 + 35.0j, 36.0j])
        batch = sf.kummer_phi(a, b, zs)
        one = np.array([sf.kummer_phi(a, b, z) for z in zs])
        assert np.max(np.abs(batch - one)) == 0.0
        batch = sf.kummer_phi_prime(a, b, zs)
        one = np.array([sf.kummer_phi_prime(a, b, z) for z in zs])
        assert np.max(np.abs(batch - one)) == 0.0

    @pytest.mark.parametrize("a,b", sorted({(a, b) for a, b, *_ in ov.KUMMER_RAYS}, key=repr))
    def test_oracle_on_kernel_rays(self, a, b):
        # phi and phi' at kernel parameters on z = +-2ix, |z| <= 300, on
        # both sides of the switch at |z| = 34
        rows = [row[2:] for row in ov.KUMMER_RAYS if row[:2] == (a, b)]
        z = np.array([row[0] for row in rows])
        phi, dphi = sf._kummer_pair(a, b, z)
        for got, col in ((phi, 1), (dphi, 2)):
            want = np.array([complex(row[col]) for row in rows])
            err = np.abs(got - want) / np.abs(want)
            assert np.max(err) < 1e-14

    @pytest.mark.parametrize(
        "a,b,z", [(-1.0, 1.5, 40.0j), (-2.0, 0.5, 35.0 + 3.0j), (0.0, 1.5, -45.0j), (-2.0, 1.25 - 0.5j, -35.0j)]
    )
    def test_asymptotic_branch_at_poles_of_a(self, a, b, z):
        # a = 0, -1, -2 terminate the series: phi is the polynomial
        # sum_k (a)_k z^k / ((b)_k k!), which the expansion must give with
        # its gamma factors at the poles mapped to 0
        term, want, dwant = 1.0 + 0.0j, 0.0j, 0.0j
        for k in range(int(-a) + 1):
            want += term
            dwant += k * term / z
            term *= (a + k) / (b + k) * z / (k + 1)
        assert rel(sf.kummer_phi(a, b, z), want) < 1e-13
        dphi = sf.kummer_phi_prime(a, b, z)
        assert abs(dphi - dwant) <= 1e-13 * max(abs(dwant), 1e-300)

    def test_taylor_steps_converge_in_documented_range(self):
        # |Re a|, |Im a| <= 5 and Re b in [0.3, 5], half of the cases with
        # |Im b| <= 1 and a third on the kernel rays: no local series may
        # fail its tail test
        rng = np.random.default_rng(11)
        radii = np.array([3.0, 10.0, 20.0, 29.5, 33.5])
        for i in range(200):
            a = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
            b = complex(rng.uniform(0.3, 5.0), rng.uniform(-1.0, 1.0) if i % 2 else 0.0)
            ray = (1j if rng.uniform() < 0.5 else -1j) if i % 3 == 0 else np.exp(2j * math.pi * rng.uniform())
            phi, dphi = sf._kummer_pair(a, b, ray * radii)
            assert np.all(np.isfinite(phi)) and np.all(np.isfinite(dphi))

    def test_taylor_branch_matches_point_by_point_march(self):
        # the one-pass step matrices against stepping each point on its own;
        # radii the march stops at, points between them, both kernel rays
        # and two off-axis rays, at random parameters in the documented range
        rng = np.random.default_rng(5)
        radii = np.array([0.4, 1.0, 1.2, 2.25, 3.1, 9.0, 17.5, 27.0625, 29.0625, 29.99])
        rays = np.array([1j, -1j, np.exp(0.7j), np.exp(-2.2j)])
        z = (rays[:, None] * radii).ravel()
        for _ in range(6):
            a = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
            b = complex(rng.uniform(0.3, 5.0), rng.uniform(-1.0, 1.0))
            phi, dphi = sf._kummer_pair(a, b, z)
            for p, d, zi in zip(phi, dphi, z):
                want_p, want_d = kummer_taylor_march(a, b, zi)
                assert abs(p - want_p) <= 1e-13 * abs(want_p)
                assert abs(d - want_d) <= 1e-13 * abs(want_d)

    def test_taylor_tail_test_fires(self):
        with pytest.raises(NonConvergenceError, match="Taylor step"):
            sf.kummer_phi(20.0, 1.5, 10.0j)

    @pytest.mark.parametrize("z", [800.0, 720.0])
    def test_overflow_raises_instead_of_nan(self, z):
        # e^z overflows in the asymptotic branch; no warning may escape
        with pytest.raises(RegimeError):
            sf.kummer_phi(1.3 + 0.2j, 1.5, z)

    def test_gamma_overflow_raises_instead_of_nan(self):
        # Gamma(b) overflows in the asymptotic branch past b of about 171
        with pytest.raises(RegimeError):
            sf.kummer_phi(1.3, 200.0, 40.0j)


class TestBarnesG:
    @pytest.mark.parametrize("z,want", ov.LOG_BARNES_G)
    def test_integral_representation_anchors(self, z, want):
        assert rel(sf.log_barnes_g(z), complex(want)) < 1e-12

    def test_two_representations_agree(self):
        # the integral representation against mpmath's barnesg at 25 random
        # points, its log continued along 0 -> z (make_oracle_values.py)
        for z, want in ov.LOG_BARNES_G_CONTINUED:
            assert abs(sf.log_barnes_g(z) - want) < 1e-12

    def test_recursion(self):
        # log G(2+z) = log G(1+z) + log Gamma(1+z)
        for z in (0.4, 1.3 + 0.8j, -0.2 - 1.1j, 2.5j):
            lhs = sf.log_barnes_g(z + 1.0)
            rhs = sf.log_barnes_g(z) + sf.log_gamma(1.0 + z)
            assert abs(lhs - rhs) < 1e-12

    def test_known_values(self):
        # G(1) = G(2) = 1
        assert abs(sf.log_barnes_g(0.0)) < 1e-14
        assert abs(sf.log_barnes_g(1.0)) < 1e-13

    @pytest.mark.parametrize("c,want", ov.BARNES_CONJ_PAIR)
    def test_conjugate_pair_sum_is_real(self, c, want):
        got = sf.log_barnes_g(1j * c) + sf.log_barnes_g(-1j * c)
        assert rel(got, complex(want)) < 1e-12
        assert abs(got.imag) < 1e-13

    def test_derivatives_match_finite_differences(self):
        h = 1e-5
        for z in (0.7, 1.9 + 1.2j, -0.3 + 0.5j):
            fd1 = (sf.log_barnes_g(z + h) - sf.log_barnes_g(z - h)) / (2 * h)
            assert abs(fd1 - sf.log_barnes_g_d1(z)) < 1e-8
            fd2 = (sf.log_barnes_g_d1(z + h) - sf.log_barnes_g_d1(z - h)) / (2 * h)
            assert abs(fd2 - sf.log_barnes_g_d2(z)) < 1e-8

    def test_second_derivative_at_one(self):
        want = -1.0 - ov.EULER_GAMMA
        assert abs(sf.log_barnes_g_d2(0.0) - want) < 1e-14

    def test_one_log_gamma_call(self, monkeypatch):
        # every panel node and 1 + z go to log_gamma as one batch
        exact, calls = sf.log_gamma, []

        def counting(z):
            calls.append(np.size(z))
            return exact(z)

        monkeypatch.setattr(sf, "log_gamma", counting)
        sf.log_barnes_g(2.4 + 3.2j)  # |z| = 4: three panels of 32 nodes
        assert calls == [3 * 32 + 1]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sf.log_barnes_g(-1.0)
        with pytest.raises(DomainError):
            sf.log_barnes_g(-1.5 + 1j)


class TestQuadrature:
    # exponent 0 is the Gauss-Legendre rule, carried to [0, 1]

    def test_polynomial_exactness(self):
        x, w = gauss_jacobi(12, 0.0)
        # exact for degree <= 23: with u = 2x - 1, int_{-1}^{1} u^22 du = 2/23
        got = 2.0 * float(np.sum(w * (2.0 * x - 1.0) ** 22))
        assert abs(got - 2.0 / 23.0) < 1e-14

    def test_smooth_integral(self):
        # with u = 2x - 1, int_{-1}^{1} cos(u) du = 2 sin(1)
        x, w = gauss_jacobi(20, 0.0)
        got = 2.0 * float(np.sum(w * np.cos(2.0 * x - 1.0)))
        assert abs(got - 2.0 * math.sin(1.0)) < 1e-15

    def test_node_symmetry_and_weight_sum(self):
        # Golub-Welsch nodes are symmetric about 1/2 to rounding, not exactly
        for order in (2, 7, 48, 96):
            x, w = gauss_jacobi(order, 0.0)
            assert np.all(np.diff(x) > 0)
            assert np.max(np.abs(x + x[::-1] - 1.0)) <= np.finfo(float).eps
            assert np.all(w > 0)
            assert abs(float(np.sum(w)) - 1.0) < 5e-14

    def test_interval_map(self):
        # build_grid carries the [0, 1] rule to a panel by lo + (hi - lo) x
        x, w = gauss_jacobi(16, 0.0)
        xs, ws = math.pi * x, math.pi * w
        assert abs(float(np.sum(ws * np.sin(xs))) - 2.0) < 1e-14

    def test_order_one(self):
        x, w = gauss_jacobi(1, 0.0)
        assert x[0] == 0.5 and w[0] == 1.0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            gauss_jacobi(0, 0.0)
        with pytest.raises(DomainError):
            gauss_jacobi(1000, 0.0)

    @pytest.mark.parametrize("alpha", [-0.45, 0.0, 0.25, 1.5])
    def test_jacobi_exactness(self, alpha):
        # int_0^1 x^{2 alpha + k} dx = 1 / (2 alpha + k + 1) for k < 2q
        q = 24
        x, w = gauss_jacobi(q, 2.0 * alpha)
        assert np.all(np.diff(x) > 0) and x[0] > 0.0 and x[-1] < 1.0
        assert np.all(w > 0)
        for k in range(2 * q):
            want = 1.0 / (2.0 * alpha + k + 1.0)
            assert abs(float(np.sum(w * x**k)) - want) <= 1e-13 * want

    def test_jacobi_zero_exponent_is_legendre(self):
        for order in (1, 2, 7, 8, 24, 48, 96):
            x, w = gauss_jacobi(order, 0.0)
            xg, wg = gauss_legendre(order, 0.0, 1.0)
            assert np.max(np.abs(x - xg)) <= 1e-15
            assert np.max(np.abs(w - wg)) <= 1e-15

    def test_jacobi_validation(self):
        with pytest.raises(DomainError):
            gauss_jacobi(0, 0.5)
        with pytest.raises(DomainError):
            gauss_jacobi(8, -1.0)
