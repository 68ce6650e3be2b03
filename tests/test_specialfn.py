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
from chfdet.errors import DomainError
from chfdet.quadrules import gauss_jacobi, gauss_legendre, map_to_interval

import _oracle_values as ov


def rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


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

    def test_rgamma_zero_at_poles(self):
        assert sf.rgamma(-2.0) == 0.0
        assert rel(sf.rgamma(0.5 + 0.5j), np.exp(-sf.log_gamma(0.5 + 0.5j))) < 1e-13


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

    def test_exponential_special_case(self):
        z = 17.0j
        assert rel(sf.kummer_phi(1.0, 1.0, z), np.exp(z)) < 1e-13

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

    @pytest.mark.parametrize("alpha", [-0.45, 0.25, 1.5])
    @pytest.mark.parametrize("beta_im", [-0.7, 0.7])
    def test_derivative_matches_contiguous_relation(self, alpha, beta_im):
        # phi' comes from the same ODE pass as phi; the reference is
        # d/dz phi(a, b, z) = (a/b) phi(a+1, b+1, z), a separate evaluation
        a, b = 1.0 + alpha + 1j * beta_im, 1.0 + 2.0 * alpha
        zs = 2j * np.linspace(-15.0, 15.0, 121)
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
        a, b = 0.9 + 0.2j, 1.8
        zs = np.array([1.0j, 28.0j, 29.5j, 36.0j])
        batch = sf.kummer_phi(a, b, zs)
        one = np.array([sf.kummer_phi(a, b, z) for z in zs])
        assert np.max(np.abs(batch - one)) == 0.0


class TestBarnesG:
    @pytest.mark.parametrize("z,want", ov.LOG_BARNES_G)
    def test_integral_representation_anchors(self, z, want):
        assert rel(sf.log_barnes_g(z), complex(want)) < 1e-12

    @pytest.mark.parametrize("z,want", ov.LOG_BARNES_G)
    def test_product_representation_anchors(self, z, want):
        assert rel(sf.log_barnes_g_product(z), complex(want)) < 1e-12

    def test_two_representations_agree(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.9, 4.0, 25) + 1j * rng.uniform(-3.0, 3.0, 25)
        for z in pts:
            assert abs(sf.log_barnes_g(z) - sf.log_barnes_g_product(z)) < 1e-12

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

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sf.log_barnes_g(-1.0)
        with pytest.raises(DomainError):
            sf.log_barnes_g_product(-1.5 + 1j)


class TestBesselJ:
    @pytest.mark.parametrize("nu,x,want", ov.BESSEL_J)
    def test_anchors(self, nu, x, want):
        assert abs(sf.bessel_j(nu, x) - want) / max(1e-12, abs(want)) < 1e-11

    def test_three_term_recurrence(self):
        # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
        for nu in (0.5, 0.75, 1.25):
            for x in (0.7, 6.0, 11.5, 14.0, 30.0):
                lhs = sf.bessel_j(nu - 1.0, x) + sf.bessel_j(nu + 1.0, x)
                rhs = 2.0 * nu / x * sf.bessel_j(nu, x)
                assert abs(lhs - rhs) < 2e-11

    def test_half_order_closed_form(self):
        x = np.array([0.5, 3.0, 13.0, 40.0])
        want = np.sqrt(2.0 / (math.pi * x)) * np.sin(x)
        got = sf.bessel_j(0.5, x)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_negative_argument_raises(self):
        with pytest.raises(DomainError):
            sf.bessel_j(0.5, -1.0)

    def test_zero_argument(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0
        assert sf.bessel_j(0.75, 0.0) == 0.0


class TestQuadrature:
    def test_polynomial_exactness(self):
        x, w = gauss_legendre(12)
        # exact for degree <= 23
        got = float(np.sum(w * x**22))
        assert abs(got - 2.0 / 23.0) < 1e-14

    def test_smooth_integral(self):
        x, w = gauss_legendre(20)
        assert abs(float(np.sum(w * np.cos(x))) - 2.0 * math.sin(1.0)) < 1e-15

    def test_node_symmetry_and_weight_sum(self):
        for order in (2, 7, 48, 96):
            x, w = gauss_legendre(order)
            assert np.all(np.diff(x) > 0)
            assert np.max(np.abs(x + x[::-1])) == 0.0
            assert np.all(w > 0)
            assert abs(float(np.sum(w)) - 2.0) < 1e-13

    def test_interval_map(self):
        x, w = gauss_legendre(16)
        xs, ws = map_to_interval(x, w, 0.0, math.pi)
        assert abs(float(np.sum(ws * np.sin(xs))) - 2.0) < 1e-14

    def test_order_one(self):
        x, w = gauss_legendre(1)
        assert x[0] == 0.0 and w[0] == 2.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(1000)

    @pytest.mark.parametrize("alpha", [-0.45, 0.25, 1.5])
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
        for order in (1, 8, 24, 48):
            x, w = gauss_jacobi(order, 0.0)
            xg, wg = map_to_interval(*gauss_legendre(order), 0.0, 1.0)
            assert np.max(np.abs(x - xg)) <= 1e-15
            assert np.max(np.abs(w - wg)) <= 1e-15

    def test_jacobi_validation(self):
        with pytest.raises(ValueError):
            gauss_jacobi(0, 0.5)
        with pytest.raises(ValueError):
            gauss_jacobi(8, -1.0)


def test_euler_gamma_constant():
    assert abs(sf.EULER_GAMMA - ov.EULER_GAMMA) < 1e-16
