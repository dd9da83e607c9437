"""Hermite polynomials, Wick powers, and the binomial expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknlw import (
    SpectralField,
    WickContext,
    engine,
    from_grid,
    hermite,
    hermite_values,
    scaling_identity_check,
    to_grid,
    wick_binomial,
    wick_power,
)
from wicknlw.fields import half_from_full
from conftest import random_field

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

    @given(st.integers(0, 8), xs, sigmas)
    @settings(max_examples=60, deadline=None)
    def test_scaling_identity(self, k, x, sigma):
        assert scaling_identity_check(k, x, sigma)

    def test_scaling_identity_desk_values(self):
        assert scaling_identity_check(2, 2.0, 4.0)
        assert scaling_identity_check(3, 1.0, 1.0)
        assert scaling_identity_check(5, 1.7, 2.3)

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
        ctx = WickContext.create(3, 1.0, 1)
        g = wick_power(SpectralField.zeros(3), 4, ctx)
        np.testing.assert_allclose(g.values, 3 * ctx.sigma**2)

    def test_zero_field_odd_degree(self):
        ctx = WickContext.create(3, 1.0, 1)
        g = wick_power(SpectralField.zeros(3), 3, ctx)
        np.testing.assert_allclose(g.values, 0.0)

    def test_constant_field_degree_two(self):
        ctx = WickContext.create(2, 1.0, 1)
        c = 1.7
        g = wick_power(SpectralField.from_modes(2, {(0, 0): c}), 2, ctx)
        np.testing.assert_allclose(g.values, c * c - ctx.sigma)

    def test_cutoff_guard(self):
        ctx = WickContext.create(2, 1.0, 1)
        with pytest.raises(ValueError):
            wick_power(random_field(3, 0), 2, ctx)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_grid_is_smallest_alias_free(self, k):
        ctx = WickContext.create(8, 1.0, 1)
        assert wick_power(random_field(8, 1), k, ctx).m_grid == (k + 1) * 8 + 1

    @pytest.mark.parametrize("m", [1, 2])
    def test_force_degree_matches_engine_force(self, m):
        ctx = WickContext.create(4, 1.0, m)
        u = random_field(4, 9)
        got = half_from_full(from_grid(wick_power(u, 2 * m + 1, ctx), 4).coeffs)
        want = engine.wick_force(half_from_full(u.coeffs), ctx)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestWickBinomial:
    def test_w_zero_reduces_to_wick_power(self):
        ctx = WickContext.create(3, 1.0, 1)
        z = random_field(3, 4)
        got = wick_binomial(z, SpectralField.zeros(3), 3, ctx)
        want = wick_power(z, 3, ctx)
        np.testing.assert_allclose(got.values, want.values, atol=1e-12)

    def test_z_zero_gives_wick_constants(self):
        # H_l(0) kills odd l; even l contributes binomial * Hermite constant
        ctx = WickContext.create(3, 1.0, 1)
        w = random_field(3, 5)
        got = wick_binomial(SpectralField.zeros(3), w, 3, ctx)
        wg = to_grid(w, got.m_grid).values
        want = wg**3 + 3 * (-ctx.sigma) * wg  # C(3,2) H_2(0) w = 3(-sigma)w
        np.testing.assert_allclose(got.values, want, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_wick_power_of_sum(self, k):
        ctx = WickContext.create(4, 1.0, 1)
        z, w = random_field(4, 6), random_field(4, 7)
        got = wick_binomial(z, w, k, ctx).values
        want = wick_power(z + w, k, ctx).values
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(got - want)) < 1e-10 * scale
