"""Spectral/grid representation: transforms, projection, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wicknlw import (
    SobolevNormSpec,
    SpectralField,
    from_grid,
    project,
    sobolev_norm,
    to_grid,
)
from wicknlw.fields import alias_free_grid
from wicknlw.reporting import read_field_csv, write_field_csv

from conftest import random_field


cutoffs = st.integers(min_value=0, max_value=6)


class TestSpectralField:
    def test_hermitian_violation_rejected(self):
        c = np.zeros((3, 3), dtype=complex)
        c[2, 1] = 1.0 + 1.0j  # mode (1,0) without its mirror
        with pytest.raises(ValueError, match="Hermitian"):
            SpectralField(1, c)

    def test_ball_violation_rejected(self):
        c = np.zeros((3, 3), dtype=complex)
        c[2, 2] = 1.0  # mode (1,1), |n|^2 = 2 > 1
        c[0, 0] = 1.0
        with pytest.raises(ValueError, match="ball"):
            SpectralField(1, c)

    def test_zero_mode_real(self):
        f = SpectralField.from_modes(2, {(0, 0): 1.5})
        assert f.coeff(0, 0) == 1.5 + 0j

    def test_from_modes_mirrors(self):
        f = SpectralField.from_modes(2, {(1, 0): 0.5 + 0.25j})
        assert f.coeff(-1, 0) == np.conj(f.coeff(1, 0))

    def test_arithmetic(self):
        f = random_field(3, 0)
        g = random_field(3, 1)
        h = f + g - f
        np.testing.assert_allclose(h.coeffs, g.coeffs, atol=1e-15)
        np.testing.assert_allclose((2.0 * f).coeffs, 2 * f.coeffs)

    def test_coeffs_immutable(self):
        f = random_field(2, 0)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0

    def test_csv_round_trip(self, tmp_path):
        f = random_field(3, 5)
        write_field_csv(f, tmp_path / "f.csv")
        g = read_field_csv(tmp_path / "f.csv")
        assert g.n_max == f.n_max
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-15)


class TestProject:
    def test_identity_at_own_cutoff(self):
        f = random_field(4, 2)
        assert project(f, 4) is f
        assert project(f, 7) is f

    def test_idempotent(self):
        f = random_field(5, 3)
        p1 = project(f, 3)
        p2 = project(p1, 3)
        np.testing.assert_array_equal(p1.coeffs, p2.coeffs)

    def test_all_modes_above_cutoff(self):
        f = SpectralField.from_modes(3, {(3, 0): 1.0})
        p = project(f, 2)
        assert p.n_max == 2
        assert np.all(p.coeffs == 0)

    def test_euclidean_ball(self):
        # (2,2) has |n| = sqrt(8) > 2, so projecting to 2 drops it
        f = SpectralField.from_modes(3, {(2, 2): 1.0, (1, 1): 2.0})
        p = project(f, 2)
        assert p.coeff(2, 2) == 0
        assert p.coeff(1, 1) == 2.0

    @given(cutoffs, st.integers(min_value=0, max_value=6), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_self_adjoint(self, n_max, n_cut, seed):
        f = random_field(n_max, seed)
        h = random_field(n_max, seed + 1)
        pf, ph = project(f, n_cut), project(h, n_cut)
        k = min(n_cut, n_max)
        lo, hi = n_max - k, n_max + k + 1
        lhs = np.sum(pf.coeffs * np.conj(h.coeffs[lo:hi, lo:hi]))
        rhs = np.sum(f.coeffs[lo:hi, lo:hi] * np.conj(ph.coeffs))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


class TestTransforms:
    def test_zero_field(self):
        g = to_grid(SpectralField.zeros(2), 8)
        assert np.all(g.values == 0)

    def test_constant_mode(self):
        g = to_grid(SpectralField.from_modes(2, {(0, 0): 2.5}), 8)
        np.testing.assert_allclose(g.values, 2.5)
        f = from_grid(g, 0)
        assert f.coeff(0, 0) == pytest.approx(2.5)

    def test_matches_direct_summation(self):
        # independent oracle: evaluate the Fourier sum termwise
        f = random_field(2, 7)
        m = 7
        x = 2 * np.pi * np.arange(m) / m
        direct = np.zeros((m, m), dtype=complex)
        for n1 in range(-2, 3):
            for n2 in range(-2, 3):
                phase = np.exp(1j * (n1 * x[:, None] + n2 * x[None, :]))
                direct += f.coeff(n1, n2) * phase
        assert np.max(np.abs(direct.imag)) < 1e-13
        np.testing.assert_allclose(to_grid(f, m).values, direct.real,
                                   atol=1e-12)

    def test_single_cosine(self):
        f = SpectralField.from_modes(1, {(1, 0): 0.5})
        g = to_grid(f, 8)
        x = 2 * np.pi * np.arange(8) / 8
        expected = np.broadcast_to(np.cos(x)[:, None], (8, 8))
        np.testing.assert_allclose(g.values, expected, atol=1e-14)
        back = from_grid(g, 1)
        assert back.coeff(1, 0) == pytest.approx(0.5)
        assert back.coeff(-1, 0) == pytest.approx(0.5)

    @given(cutoffs, st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, n_max, seed):
        f = random_field(n_max, seed)
        m = 2 * n_max + 1
        g = to_grid(f, m)
        back = from_grid(g, n_max)
        scale = max(np.max(np.abs(f.coeffs)), 1e-30)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * scale

    @given(cutoffs, st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, n_max, seed):
        f = random_field(n_max, seed)
        g = to_grid(f, 2 * n_max + 1)
        coeff_side = np.sum(np.abs(f.coeffs) ** 2)
        grid_side = np.mean(g.values**2)
        assert grid_side == pytest.approx(coeff_side, rel=1e-12, abs=1e-12)

    def test_alias_guards(self):
        f = random_field(4, 0)
        with pytest.raises(ValueError, match="alias"):
            to_grid(f, 8)
        g = to_grid(f, 16)
        with pytest.raises(ValueError):
            from_grid(g, 8)

    def test_alias_free_grid_rule(self):
        m = alias_free_grid(8, 3)
        assert m > 4 * 8
        # products of degree 3 at cutoff 8 are exact on this grid
        f = random_field(8, 1)
        g = to_grid(f, m)
        cube = from_grid(
            type(g)(m, g.values**3), 8
        )
        big = to_grid(f, 64)
        cube_ref = from_grid(type(big)(64, big.values**3), 8)
        np.testing.assert_allclose(cube.coeffs, cube_ref.coeffs, atol=1e-12)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_alias_free_grid_is_smallest(self, degree):
        # the bound M > (p + 1) N is tight, with a floor of 4 nodes
        for n_max in range(65):
            assert alias_free_grid(n_max, degree) == max((degree + 1) * n_max + 1, 4)


class TestSobolevNorm:
    def test_zero(self):
        assert sobolev_norm(SpectralField.zeros(3), SobolevNormSpec(s=-0.5)) == 0.0

    def test_constant(self):
        f = SpectralField.from_modes(2, {(0, 0): 3.0})
        assert sobolev_norm(f, SobolevNormSpec(s=4.2)) == pytest.approx(3.0)

    def test_pair_of_modes_weighted(self):
        # independent summation oracle for the s = -1 case
        f = SpectralField.from_modes(1, {(1, 0): 0.5})
        expected = np.sqrt(sum(
            (1 + n1 * n1 + n2 * n2) ** (-1.0) * abs(f.coeff(n1, n2)) ** 2
            for n1 in (-1, 0, 1) for n2 in (-1, 0, 1)
        ))
        got = sobolev_norm(f, SobolevNormSpec(s=-1.0))
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.5)

    def test_brute_force_oracle_random(self):
        f = random_field(3, 9)
        s = -0.7
        acc = 0.0
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                acc += (1 + n1 * n1 + n2 * n2) ** s * abs(f.coeff(n1, n2)) ** 2
        assert sobolev_norm(f, SobolevNormSpec(s=s)) == pytest.approx(np.sqrt(acc))

    def test_l4_of_cosine(self):
        # mean of cos^4 is 3/8; the L^4 norm is (3/8)^{1/4}
        f = SpectralField.from_modes(1, {(1, 0): 0.5})
        got = sobolev_norm(f, SobolevNormSpec(s=0.0, r=4.0))
        assert got == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SobolevNormSpec(s=0.0, r=1.5)
