"""Hermite polynomials, Wick powers, and the binomial expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknlw import (
    WickContext,
    engine,
    grid_from_half,
    half_from_grid,
    hermite,
    hermite_values,
    point_variance,
    project,
    wick_binomial,
    wick_power,
)
from wicknlw.fields import full_from_half
from conftest import half_from_full, half_modes, random_field, zeros_half


def zero_mode_only(spectrum: np.ndarray, value: float) -> np.ndarray:
    """A half spectrum of the same cutoff holding value at n = 0 only."""
    want = np.zeros_like(spectrum)
    want[(spectrum.shape[-2] - 1) // 2, 0] = value
    return want

xs = st.floats(min_value=-5.0, max_value=5.0)
sigmas = st.floats(min_value=0.5, max_value=5.0)


def closed_form(k, x, sigma):
    return {
        0: 1.0,
        1: x,
        2: x**2 - sigma,
        3: x**3 - 3 * sigma * x,
        4: x**4 - 6 * sigma * x**2 + 3 * sigma**2,
    }[k]


class TestHermite:
    @given(xs, sigmas)
    @settings(max_examples=60, deadline=None)
    def test_closed_forms(self, x, sigma):
        for k in range(5):
            assert hermite(k, x, sigma) == pytest.approx(
                closed_form(k, x, sigma), rel=1e-12, abs=1e-12)

    def test_fixed_values(self):
        assert hermite(3, 1.0, 1.0) == pytest.approx(-2.0)
        assert hermite(4, 2.0, 3.0) == pytest.approx(-29.0)

    @staticmethod
    def _scaling_identity_holds(k, x, sigma):
        # H_k(x; sigma) = sigma^{k/2} H_k(x / sqrt(sigma); 1)
        lhs = hermite(k, x, sigma)
        rhs = sigma ** (k / 2.0) * hermite(k, x / np.sqrt(sigma), 1.0)
        return abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    @given(st.integers(0, 8), xs, sigmas)
    @settings(max_examples=60, deadline=None)
    def test_scaling_identity(self, k, x, sigma):
        assert self._scaling_identity_holds(k, x, sigma)

    def test_scaling_identity_desk_values(self):
        assert self._scaling_identity_holds(2, 2.0, 4.0)
        assert self._scaling_identity_holds(3, 1.0, 1.0)
        assert self._scaling_identity_holds(5, 1.7, 2.3)

    def test_derivative_identity_richardson(self):
        # (H_k(x+h) - H_k(x-h)) / 2h -> k H_{k-1}(x), error O(h^2)
        x, sigma = 1.3, 2.1
        for k in range(3, 7):
            exact = k * hermite(k - 1, x, sigma)
            def err(h):
                fd = (hermite(k, x + h, sigma) - hermite(k, x - h, sigma)) / (2 * h)
                return abs(fd - exact)
            e1, e2 = err(1e-3), err(5e-4)
            assert e1 / e2 == pytest.approx(4.0, rel=0.15)

    def test_odd_vanish_at_zero(self):
        for k in (1, 3, 5, 7):
            assert hermite(k, 0.0, 2.7) == 0.0

    def test_degree_one_is_a_copy(self):
        x = np.linspace(-3, 3, 11)
        h = hermite_values(1, x, 1.5)
        np.testing.assert_array_equal(h, x)
        assert not np.shares_memory(h, x)

    def test_vectorized_matches_scalar(self):
        x = np.linspace(-3, 3, 11)
        vals = hermite_values(4, x, 1.5)
        for xi, vi in zip(x, vals):
            assert vi == pytest.approx(hermite(4, float(xi), 1.5))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hermite(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            hermite(2, 0.0, 0.0)

    def test_moment_growth_single_mode(self):
        # L^p norms of a degree-k polynomial of one Gaussian grow at most
        # like (p-1)^{k/2} of the L^2 norm; checked by exact quadrature
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        weights = weights / weights.sum()
        for k in range(1, 5):
            vals = hermite_values(k, nodes, 1.0)
            l2 = np.sqrt(np.sum(weights * vals**2))
            for p in (4, 6, 8):
                lp = np.sum(weights * np.abs(vals) ** p) ** (1.0 / p)
                assert lp <= (p - 1) ** (k / 2.0) * l2 * (1 + 1e-12)


class TestWickContext:
    def test_sigma_must_be_exact(self):
        with pytest.raises(ValueError, match="sigma"):
            WickContext(4, 1.0, 1, 3.14)

    def test_create_covers_potential_degree(self):
        # the force grid 4N + 1 also resolves the quartic potential's mean
        ctx = WickContext.create(8, 1.0, 1)
        assert ctx.m_grid == 33
        assert ctx.m_grid > (2 * ctx.m + 2) * ctx.n_max


class TestWickPower:
    def test_zero_field_even_degree(self):
        sigma = point_variance(3, 1.0)
        got = wick_power(zeros_half(3), 4, sigma)
        np.testing.assert_allclose(got, zero_mode_only(got, 3 * sigma**2),
                                   rtol=0, atol=1e-12 * sigma**2)

    def test_zero_field_odd_degree(self):
        got = wick_power(zeros_half(3), 3, point_variance(3, 1.0))
        np.testing.assert_allclose(got, 0.0, rtol=0, atol=0)

    def test_constant_field_degree_two(self):
        sigma, c = point_variance(2, 1.0), 1.7
        got = wick_power(half_modes(2, {(0, 0): c}), 2, sigma)
        np.testing.assert_allclose(got, zero_mode_only(got, c * c - sigma),
                                   rtol=0, atol=1e-12 * sigma)

    def test_rejects_degree_below_one(self):
        with pytest.raises(ValueError, match="degree"):
            wick_power(zeros_half(2), 0, 1.0)

    def test_cutoff_guard(self):
        # the binomial expansion needs z and w at one cutoff
        with pytest.raises(ValueError, match="cutoff"):
            wick_binomial(zeros_half(2), zeros_half(3), 2, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_output_cutoff_is_k_n(self, k):
        # the complete spectrum of a degree-k power of a cutoff-8 field,
        # with the batch axes carried through
        u = np.stack([half_from_full(random_field(8, 1)), half_from_full(random_field(8, 2))])
        assert wick_power(u, k, 1.0).shape == (2, 16 * k + 1, 8 * k + 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_workspace_is_bit_equal_to_fresh_calls(self, k):
        # one workspace across cutoffs 8 -> 2 -> 8: the cutoff-2 call runs
        # on views of the cutoff-8 buffers, and the last call reuses them
        work = {}
        for n_cut, seed in ((8, 3), (2, 4), (8, 5)):
            z = np.stack([half_from_full(random_field(n_cut, seed + j))
                          for j in range(3)])
            sigma = point_variance(n_cut, 1.0)
            got = wick_power(z, k, sigma, work)
            np.testing.assert_array_equal(got, wick_power(z, k, sigma))
            assert np.shares_memory(got, work["half"])

    @pytest.mark.parametrize("m", [1, 2])
    def test_force_degree_matches_engine_force(self, m):
        ctx = WickContext.create(4, 1.0, m)
        u = half_from_full(random_field(4, 9))
        got = project(wick_power(u, 2 * m + 1, ctx.sigma), 4)
        want = engine.wick_force(u, ctx)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestWickSpectrum:
    def test_cube_spectrum_matches_convolution_oracle(self):
        # algebraic identity per field: coefficients of H_3(u; s) equal the
        # threefold self-convolution of u's coefficients minus 3 s u_hat
        from scipy.signal import convolve2d

        n = 2
        f = random_field(n, 33)
        sig = point_variance(n, 1.0)
        got = full_from_half(wick_power(half_from_full(f)[None], 3, sig))[0]
        conv3 = convolve2d(convolve2d(f, f), f)
        lo = 3 * n - n
        conv3[lo : lo + 2 * n + 1, lo : lo + 2 * n + 1] -= 3.0 * sig * f
        scale = np.max(np.abs(conv3))
        assert np.max(np.abs(got - conv3)) < 1e-12 * scale


class TestWickBinomial:
    def test_w_zero_reduces_to_wick_power(self):
        sigma = point_variance(3, 1.0)
        z = half_from_full(random_field(3, 4))
        got = wick_binomial(z, zeros_half(3), 3, sigma)
        want = wick_power(z, 3, sigma)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_z_zero_gives_wick_constants(self):
        # H_l(0) kills odd l; even l contributes binomial * Hermite constant
        sigma = point_variance(3, 1.0)
        w = half_from_full(random_field(3, 5))
        got = wick_binomial(zeros_half(3), w, 3, sigma)
        wg = grid_from_half(w, 2 * 3 * 3 + 1)
        want = half_from_grid(wg**3 + 3 * (-sigma) * wg, 9)  # C(3,2) H_2(0) w
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_wick_power_of_sum(self, k):
        sigma = point_variance(4, 1.0)
        z = np.stack([half_from_full(random_field(4, 6 + 10 * i)) for i in range(3)])
        w = np.stack([half_from_full(random_field(4, 7 + 10 * i)) for i in range(3)])
        got = wick_binomial(z, w, k, sigma)
        want = wick_power(z + w, k, sigma)
        assert got.shape == want.shape == (3, 8 * k + 1, 4 * k + 1)
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(got - want)) < 1e-10 * scale
