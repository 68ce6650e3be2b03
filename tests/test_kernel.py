"""Kernel layer: parameter validation, reductions, realness, symmetry.

The sine reduction is checked against numpy's sinc and the Bessel reduction
against scipy's Bessel J (tests/_references.py) and against frozen mpmath
values (tests/_oracle_values.py)."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from chfdet import kernel
from chfdet.errors import DomainError
from chfdet.kernel import (
    Configuration,
    KernelParams,
    cap_A,
    chf_kernel,
    chf_kernel_diagonal,
    chf_kernel_matrix,
    sigma_step,
)

import _oracle_values as ov
from _references import bessel_kernel


class TestParams:
    def test_alpha_domain(self):
        KernelParams(-0.49, 0.0)
        with pytest.raises(DomainError):
            KernelParams(-0.5, 0.0)
        with pytest.raises(DomainError):
            KernelParams(-1.0, 0.2)

    def test_beta_is_imaginary(self):
        p = KernelParams(0.3, 0.7)
        assert p.beta == 0.7j
        assert (p.beta + np.conj(p.beta)) == 0.0


class TestConfiguration:
    def test_valid(self):
        c = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=2.0)
        assert c.m == 1
        assert c.n == 2
        assert c.active_indices == (0, 2)
        assert c.scaled_endpoints() == (-2.0, 0.0, 2.0)

    def test_requires_zero_endpoint(self):
        with pytest.raises(DomainError):
            Configuration(r=(0.5, 1.0), gamma=(0.3,), t=1.0)
        with pytest.raises(DomainError):
            Configuration(r=(-1.0, 1.0), gamma=(0.3,), t=1.0)

    def test_requires_monotone_endpoints(self):
        with pytest.raises(DomainError):
            Configuration(r=(0.0, 1.0, 0.5), gamma=(0.3, 0.3), t=1.0)

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            Configuration(r=(0.0, 1.0), gamma=(0.3,), t=-1.0)

    @pytest.mark.parametrize("stop, t", [(math.inf, 1.0), (math.nan, 1.0), (1e300, 1e10)])
    def test_endpoints_and_scaled_endpoints_must_be_finite(self, stop, t):
        with pytest.raises(DomainError, match="r_k and r_k t must be finite"):
            Configuration(r=(0.0, stop), gamma=(0.5,), t=t)

    def test_zero_t_is_empty_domain(self):
        c = Configuration(r=(0.0, 1.0), gamma=(0.3,), t=0.0)
        assert c.scaled_endpoints() == (0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            Configuration(r=(0.0, 1.0), gamma=(0.3, 0.4), t=1.0)

    def test_out_of_range_weights_rejected(self):
        for g in (-0.2, 1.5, math.nan):
            with pytest.raises(DomainError):
                Configuration(r=(0.0, 1.0), gamma=(g,), t=1.0)
        # a hard gap is a valid weight
        Configuration(r=(0.0, 1.0), gamma=(1.0,), t=1.0)


class TestCapA:
    def test_sine_case_is_plane_wave(self):
        p = KernelParams(0.0, 0.0)
        # A(x) = e^{-ix} phi(1,1,2ix) = e^{ix}
        for x in (1.0, -2.3, 0.4):
            assert abs(cap_A(p, x) - np.exp(1j * x)) < 1e-13

    def test_vanishes_at_zero_for_positive_alpha(self):
        assert cap_A(KernelParams(0.5, 0.0), 0.0) == 0.0

    def test_zero_raises_for_negative_alpha(self):
        with pytest.raises(DomainError):
            cap_A(KernelParams(-0.25, 0.0), 0.0)

    def test_reflection_conjugates(self):
        # A(-x) at -beta is the conjugate of A(x) at beta
        x = np.array([-1.7, 0.4, 2.2, 5.0, -20.0, 40.0])
        for alpha, beta_im in ((0.25, 0.3), (-0.45, 0.7), (1.5, -0.7)):
            p, q = KernelParams(alpha, beta_im), KernelParams(alpha, -beta_im)
            assert np.max(np.abs(cap_A(q, -x) - np.conj(cap_A(p, x)))) <= 1e-15 * np.max(np.abs(cap_A(p, x)))

    def test_jump_factor_modulus(self):
        # |A(x)|^2 has the e^{-+ beta_im pi} jump factor across 0
        p = KernelParams(0.0, 0.4)
        left = abs(cap_A(p, -1e-8)) ** 2
        right = abs(cap_A(p, 1e-8)) ** 2
        assert abs(left / right - math.exp(-0.4 * math.pi) / math.exp(0.4 * math.pi)) < 1e-6


class TestChfKernel:
    def test_sine_value(self):
        p = KernelParams(0.0, 0.0)
        got = chf_kernel(p, math.pi / 2.0, 0.0)
        assert abs(got - 2.0 / math.pi**2) < 1e-14

    def test_sine_reduction_grid(self):
        p = KernelParams(0.0, 0.0)
        xs = np.linspace(-3.0, 3.0, 50)
        ys = np.linspace(-2.5, 3.5, 50) + 0.0123
        sine = np.sinc((xs[:, None] - ys[None, :]) / np.pi) / np.pi
        diff = chf_kernel(p, xs[:, None], ys[None, :]) - sine
        assert np.max(np.abs(diff)) < 1e-11

    @pytest.mark.parametrize("alpha", [-0.45, 0.25, 0.5, 1.0, 1.5])
    def test_bessel_reduction_grid(self, alpha):
        p = KernelParams(alpha, 0.0)
        xs = np.linspace(-3.0, 3.0, 50)
        xs = xs[xs != 0.0]
        ys = xs + 0.0567
        diff = chf_kernel(p, xs[:, None], ys[None, :]) - bessel_kernel(alpha, xs[:, None], ys[None, :])
        assert np.max(np.abs(diff)) < 1e-9

    @pytest.mark.parametrize("alpha,x,y,want", ov.BESSEL_KERNEL)
    def test_bessel_reduction_anchors(self, alpha, x, y, want):
        # mpmath's Bessel J, both Kummer branches, out to |x| = 100
        got = chf_kernel(KernelParams(alpha, 0.0), x, y)
        assert abs(got - want) / abs(want) < 1e-11

    @pytest.mark.parametrize("x,y", [(1.0, 0.5), (-1.0, 0.5), (1.0, -0.5), (-1.0, -0.5), (-2.0, -3.5)])
    def test_bessel_reduction_sign_combinations(self, x, y):
        got = chf_kernel(KernelParams(0.35, 0.0), x, y)
        assert abs(got - bessel_kernel(0.35, x, y)) < 1e-9

    def test_sine_near_diagonal_limit(self):
        p = KernelParams(0.0, 0.0)
        assert abs(chf_kernel(p, 1.0, 1.0 + 1e-9) - 1.0 / math.pi) < 1e-9

    def test_reflection_flips_beta(self):
        # K(x, y) at beta equals K(-x, -y) at -beta
        rng = np.random.default_rng(6)
        x = rng.uniform(-40, 40, 200)
        y = rng.uniform(-40, 40, 200)
        for alpha, beta_im in ((0.25, 0.3), (-0.45, 0.7), (1.5, -0.7)):
            k = chf_kernel(KernelParams(alpha, beta_im), x, y)
            k_reflected = chf_kernel(KernelParams(alpha, -beta_im), -x, -y)
            assert np.max(np.abs(k - k_reflected)) < 1e-14

    def test_symmetry_is_exact(self):
        p = KernelParams(0.25, 0.3)
        rng = np.random.default_rng(2)
        x = rng.uniform(-4, 4, 200)
        y = rng.uniform(-4, 4, 200)
        assert np.all(chf_kernel(p, x, y) == chf_kernel(p, y, x))

    def test_realness_monitor_over_random_pairs(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-5, 5, 10_000)
        y = rng.uniform(-5, 5, 10_000)
        for p in (KernelParams(0.6, -0.45), KernelParams(-0.3, 0.49), KernelParams(1.5, 0.0)):
            xs, ys = (x, y) if p.alpha >= 0 else (np.where(x == 0, 0.5, x), np.where(y == 0, 0.5, y))
            vals = chf_kernel(p, xs, ys)
            assert np.all(np.isfinite(vals))

    def test_near_diagonal_continuity(self):
        p = KernelParams(0.25, 0.3)
        far = chf_kernel(p, 1.0, 1.0 + 2e-6)
        near = chf_kernel(p, 1.0, 1.0 + 1e-9)
        diag = chf_kernel_diagonal(p, 1.0)
        assert abs(near - diag) < 1e-8
        assert abs(far - diag) < 1e-5

    def test_zero_raises_for_negative_alpha(self):
        with pytest.raises(DomainError, match="chf_kernel: x = 0 diverges for alpha < 0"):
            chf_kernel(KernelParams(-0.25, 0.0), 0.0, 1.0)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0])
    def test_near_pair_at_zero_raises_for_nonpositive_alpha(self, alpha):
        # the midpoint of (-1e-9, 1e-9) is the origin, where the diagonal
        # form needs alpha > 0
        with pytest.raises(DomainError, match="chf_kernel_diagonal: x = 0 requires alpha > 0"):
            chf_kernel(KernelParams(alpha, 0.3), np.array([2.0, -1e-9]), np.array([1.0, 1e-9]))

    def test_one_cap_A_and_density_call(self, monkeypatch):
        # far pairs' ends and near pairs' midpoints share one phi evaluation
        calls = []
        exact = kernel._cap_A_and_density

        def counting(params, x):
            calls.append(np.size(x))
            return exact(params, x)

        monkeypatch.setattr(kernel, "_cap_A_and_density", counting)
        x = np.array([1.0, 2.0, 3.0])
        chf_kernel(KernelParams(0.25, 0.3), x, np.array([1.5, 2.0 + 1e-9, -4.0]))
        assert calls == [2 + 2 + 1]

    @pytest.mark.parametrize("alpha", [-0.45, 0.25, 1.5])
    def test_log_gamma_conjugation_is_exact(self, alpha):
        # the gamma prefactor takes 2 Re log_gamma(1 + a + b) for its two
        # conjugate numerator gammas; that needs log_gamma to map conjugate
        # arguments to bitwise conjugate values
        z = np.array([1.0 + alpha + 0.7j, 1.0 + alpha - 0.7j])
        assert np.array_equal(kernel.log_gamma(np.conj(z)), np.conj(kernel.log_gamma(z)))


class TestKernelMatrix:
    NODES = np.sort(np.random.default_rng(5).uniform(-8.0, 8.0, 120))

    @pytest.mark.parametrize("alpha", [-0.45, 0.25, 1.5])
    def test_exactly_symmetric(self, alpha):
        m = chf_kernel_matrix(KernelParams(alpha, 0.3), self.NODES)
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("alpha", [-0.45, 0.25, 1.5])
    def test_matches_pointwise_kernel(self, alpha):
        p = KernelParams(alpha, 0.3)
        x = self.NODES
        m = chf_kernel_matrix(p, x)
        off = ~np.eye(x.size, dtype=bool)
        k = chf_kernel(p, x[:, None], x[None, :])
        assert np.array_equal(m[off], k[off])
        assert np.array_equal(np.diag(m), chf_kernel_diagonal(p, x))


class TestDiagonal:
    def test_sine_diagonal(self):
        p = KernelParams(0.0, 0.0)
        for x in (0.3, -1.7, 12.0):
            assert abs(chf_kernel_diagonal(p, x) - 1.0 / math.pi) < 1e-13

    def test_matches_off_diagonal_extrapolation(self):
        p = KernelParams(0.25, 0.3)
        x = 1.3
        # second-order Richardson on K(x, x+h) = K_diag + c1 h + c2 h^2 + ...
        h = 1e-3
        f1 = chf_kernel(p, x, x + h)
        f2 = chf_kernel(p, x, x + h / 2.0)
        f4 = chf_kernel(p, x, x + h / 4.0)
        extrap = (8.0 * f4 - 6.0 * f2 + f1) / 3.0
        assert abs(chf_kernel_diagonal(p, x) - extrap) < 1e-8

    def test_vanishes_at_zero_for_positive_alpha(self):
        assert chf_kernel_diagonal(KernelParams(0.5, 0.0), 0.0) == 0.0

    def test_zero_raises_for_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            chf_kernel_diagonal(KernelParams(-0.25, 0.0), 0.0)
        with pytest.raises(DomainError):
            chf_kernel_diagonal(KernelParams(0.0, 0.3), 0.0)

    @pytest.mark.parametrize("beta_im", [-0.7, 0.3])
    @pytest.mark.parametrize("alpha", [-0.45, -0.3, 0.25])
    def test_tiny_x_matches_leading_form(self, alpha, beta_im):
        # K(x, x) -> G/pi chi(x) |2x|^{2 alpha} / (1 + 2 alpha) as x -> 0, with
        # chi = e^{-+ beta_im pi} left/right of 0; the relative correction is
        # O(x). G is the kernel's own prefactor, whose log_gamma rounding
        # (about 1e-14 relative) would hide the density's.
        p = KernelParams(alpha, beta_im)
        g = kernel._gamma_prefactor(p)
        for x in (1e-250, -1e-250, 1e-300):
            with mp.workdps(30):
                chi = mp.exp(mp.sign(x) * beta_im * mp.pi)
                want = g / mp.pi * chi * abs(2 * mp.mpf(x)) ** (2 * alpha) / (1 + 2 * alpha)
            assert abs(chf_kernel_diagonal(p, x) - want) <= 1e-14 * want

    def test_positive_off_origin(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.01, 6.0, 200) * rng.choice([-1.0, 1.0], 200)
        for p in (KernelParams(0.25, 0.3), KernelParams(-0.2, 0.0), KernelParams(1.0, -0.4)):
            assert np.all(chf_kernel_diagonal(p, x) > 0.0)


class TestSigmaStep:
    def test_basic_values(self):
        c = Configuration(r=(-1.0, 0.0, 2.0), gamma=(0.3, 0.8), t=1.0)
        assert sigma_step(c, 1.0) == 0.8
        assert sigma_step(c, -0.5) == 0.3
        assert sigma_step(c, 2.5) == 0.0
        assert sigma_step(c, -3.0) == 0.0

    def test_scaling_by_t(self):
        c = Configuration(r=(0.0, 1.0), gamma=(0.5,), t=3.0)
        assert sigma_step(c, 2.9) == 0.5
        assert sigma_step(c, 3.1) == 0.0

    def test_vectorized(self):
        c = Configuration(r=(-1.0, 0.0, 2.0), gamma=(0.3, 0.8), t=1.0)
        got = sigma_step(c, np.array([-2.0, -0.5, 1.0, 3.0]))
        assert np.all(got == np.array([0.0, 0.3, 0.8, 0.0]))


class TestReferenceKernels:
    def test_bessel_zero_order_equals_sine(self):
        # the scipy reference itself, at the order where it is elementary
        got = bessel_kernel(0.0, 1.0, 2.0)
        want = math.sin(-1.0) / (-math.pi)
        assert abs(got - want) < 1e-12
