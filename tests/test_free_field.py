"""Free-measure sampling, point variance, covariance, chaos oracle."""

import math

import numpy as np
import pytest

from wicknlw import (
    MuParams,
    chaos_second_moment,
    chaos_spectrum,
    covariance_field,
    grid_from_half,
    point_variance,
    sample_free_field,
)
from wicknlw import free_field
from wicknlw.free_field import sample_pair_half
from wicknlw.engine import l2_norm_sq
from wicknlw.fields import ball_mask

from conftest import half_from_full, reference_free_halves


class TestPointVariance:
    def test_single_mode(self):
        assert point_variance(0, 1.0) == 1.0
        assert point_variance(0, 4.0) == 0.25

    def test_five_modes(self):
        assert point_variance(1, 1.0) == pytest.approx(3.0)

    def test_thirteen_modes(self):
        assert point_variance(2, 1.0) == pytest.approx(77.0 / 15.0)

    def test_monotone_in_cutoff_and_mass(self):
        vals = [point_variance(n, 1.0) for n in range(0, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert point_variance(8, 0.5) > point_variance(8, 1.0)

    def test_log_growth(self):
        # increments over dyadic cutoffs approach a constant (log growth)
        sig = {n: point_variance(n, 1.0) for n in (16, 32, 64, 128, 256)}
        incr = [sig[2 * n] - sig[n] for n in (16, 32, 64, 128)]
        ratios = [b / a for a, b in zip(incr, incr[1:])]
        assert all(0.9 < r < 1.1 for r in ratios)

    def test_validation(self):
        with pytest.raises(ValueError):
            point_variance(4, 0.0)
        with pytest.raises(ValueError):
            point_variance(-1, 1.0)


class TestCovarianceField:
    def test_single_mode(self):
        g = covariance_field(0, 2.0)
        assert g[0, 0] == pytest.approx(0.5)

    def test_unit_mode(self):
        # entry [i, j] is the mode (i - N, j - N); (1, 0) at N = 1
        assert covariance_field(1, 1.0)[2, 1] == pytest.approx(0.5)

    def test_value_at_origin_is_point_variance(self):
        for n, rho in ((1, 1.0), (4, 0.7), (8, 2.0)):
            g = covariance_field(n, rho)
            vals = grid_from_half(half_from_full(g), 2 * n + 1)
            assert vals[0, 0] == pytest.approx(point_variance(n, rho), rel=1e-12)

    def test_real_even(self):
        g = covariance_field(3, 1.3)
        assert g.shape == (7, 7) and np.isrealobj(g)
        np.testing.assert_array_equal(g, g[::-1, ::-1])


class TestChaosOracle:
    def test_degree_one_is_covariance(self):
        assert chaos_second_moment(1, 1, 1.0, (1, 0)) == pytest.approx(0.5)

    def test_degree_two_at_origin(self):
        assert chaos_second_moment(2, 1, 1.0, (0, 0)) == pytest.approx(4.0)

    def test_support(self):
        assert chaos_second_moment(2, 3, 1.0, (7, 0)) == 0.0
        assert chaos_second_moment(3, 2, 1.0, (0, 7)) == 0.0

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            chaos_second_moment(0, 2, 1.0, (0, 0))

    def test_nonnegative_and_even(self):
        for ell in (1, 2, 3):
            t = chaos_spectrum(ell, 4, 1.0)
            assert np.all(t >= 0)
            np.testing.assert_allclose(t, t[::-1, ::-1], rtol=1e-12)

    def test_axis_monotone(self):
        for ell in (1, 2, 3):
            for n in (1, 2, 4, 8):
                t = chaos_spectrum(ell, n, 1.0)
                axis = t[ell * n :, ell * n]
                assert np.all(np.diff(axis) <= 1e-12)

    def test_hand_computed_two_fold(self):
        # two-fold convolution at (1,0), N=1: gamma(0)gamma(1,0)*2 + gamma(0,1)gamma(1,-1)...
        # only in-ball pairs survive: (0,0)+(1,0) twice -> 2 * 1 * 1/2 = 1; times 2! = 2
        assert chaos_second_moment(2, 1, 1.0, (1, 0)) == pytest.approx(2.0)

    @pytest.mark.parametrize("n_cut", [1, 2, 3, 4])
    def test_matches_brute_force_pair_sums(self, n_cut):
        # ell! sum over ell-tuples of ball modes adding up to n of the
        # product of their covariances, term by term
        ball = [(a, b) for a in range(-n_cut, n_cut + 1)
                for b in range(-n_cut, n_cut + 1) if a * a + b * b <= n_cut * n_cut]
        gam = {k: 1.0 / (1.0 + k[0] ** 2 + k[1] ** 2) for k in ball}
        two, three = {}, {}
        for k, gk in gam.items():
            for j, gj in gam.items():
                n = (k[0] + j[0], k[1] + j[1])
                two[n] = two.get(n, 0.0) + gk * gj
        for n2, g2 in two.items():
            for j, gj in gam.items():
                n = (n2[0] + j[0], n2[1] + j[1])
                three[n] = three.get(n, 0.0) + g2 * gj
        for ell, want in ((1, gam), (2, two), (3, three)):
            t = chaos_spectrum(ell, n_cut, 1.0)
            r = ell * n_cut
            brute = np.zeros_like(t)
            for (a, b), val in want.items():
                brute[a + r, b + r] = math.factorial(ell) * val
            np.testing.assert_allclose(t, brute, rtol=1e-13, atol=0)

    def test_matches_dense_convolution(self):
        from scipy.signal import convolve2d

        n_cut = 16
        gam = free_field.covariance_field(n_cut, 1.0)
        two = convolve2d(gam, gam)
        np.testing.assert_allclose(chaos_spectrum(2, n_cut, 1.0), 2.0 * two,
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(chaos_spectrum(3, n_cut, 1.0),
                                   6.0 * convolve2d(two, gam), rtol=1e-13, atol=0)

    def test_growth_bound_decelerates(self):
        # sup_n moment * <n>^{2(1-theta)} grows ever more slowly in N
        # (log-corrected approach to the uniform bound), theta = 0.2
        for ell in (1, 2, 3):
            sups = []
            for n in (4, 8, 16, 32):
                t = chaos_spectrum(ell, n, 1.0)
                r = ell * n
                k = np.arange(-r, r + 1)
                nx, ny = np.meshgrid(k, k, indexing="ij")
                sups.append(float(np.max(t * (1.0 + nx**2 + ny**2) ** 0.8)))
            ratios = [b / a for a, b in zip(sups, sups[1:])]
            assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] < 1.5


class TestSampling:
    def test_deterministic(self):
        p = MuParams(4, 1.0, seed=42)
        (ua, va), (ub, vb) = sample_free_field(p, 3), sample_free_field(p, 3)
        np.testing.assert_array_equal(ua, ub)
        np.testing.assert_array_equal(va, vb)

    def test_distinct_indices_differ(self):
        p = MuParams(4, 1.0, seed=42)
        assert not np.array_equal(sample_free_field(p, 0)[0],
                                  sample_free_field(p, 1)[0])

    def test_single_mode_real(self):
        p = MuParams(0, 4.0, seed=7)
        u, v = sample_free_field(p, 0)
        assert u.shape == v.shape == (1, 1)
        assert u.imag == 0
        assert v.imag == 0

    def test_hermitian_and_ball(self):
        # the column n2 = 0 holds both n1 and -n1: c(-n1, 0) = conj(c(n1, 0))
        for c in sample_free_field(MuParams(5, 1.0, seed=1), 0):
            assert c.shape == (11, 6)
            np.testing.assert_array_equal(c[::-1, 0], np.conj(c[:, 0]))
            assert np.all(c[~ball_mask(5)[:, 5:]] == 0)

    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_half_assembly_matches_full_square_mirror(self, n):
        # bit for bit, signed zeros included, against the full-square
        # mirror assembly of each (seed, index) stream cut to the half layout
        p = MuParams(n, 1.3, seed=29)
        u, v = sample_pair_half(p, 5, start_index=2)
        want_u, want_v = reference_free_halves(29, range(2, 7), n, 1.3)
        assert u.tobytes() == want_u.tobytes()
        assert v.tobytes() == want_v.tobytes()
        assert u.flags.c_contiguous and v.flags.c_contiguous

    @pytest.mark.parametrize("block", [None, 3])
    def test_batch_matches_per_index_samples(self, monkeypatch, block):
        # the batched assembly must reproduce each (seed, index) stream's
        # sample bit for bit, in one block or in blocks of three
        if block is not None:
            monkeypatch.setattr(free_field, "_BLOCK_VALUES", block * 4 * 11 ** 2)
        p = MuParams(5, 1.3, seed=19)
        u, v = sample_pair_half(p, 4, start_index=6)
        for i in range(4):
            ui, vi = sample_free_field(p, 6 + i)
            np.testing.assert_array_equal(u[i], ui)
            np.testing.assert_array_equal(v[i], vi)

    def test_mean_l2_matches_point_variance(self):
        n, rho = 4, 1.0
        u, _ = sample_pair_half(MuParams(n, rho, seed=11), 20000)
        norms = l2_norm_sq(u, n)
        se = norms.std(ddof=1) / np.sqrt(len(norms))
        assert abs(norms.mean() - point_variance(n, rho)) < 3 * se

    def test_per_mode_variances(self):
        n, rho = 3, 2.0
        u, v = sample_pair_half(MuParams(n, rho, seed=3), 20000)
        # mode (1,0): E|u|^2 = 1/(rho+1), E|v|^2 = 1
        eu = np.abs(u[:, n + 1, 0]) ** 2
        ev = np.abs(v[:, n + 1, 0]) ** 2
        assert abs(eu.mean() - 1 / (rho + 1)) < 3 * eu.std(ddof=1) / np.sqrt(len(eu))
        assert abs(ev.mean() - 1.0) < 3 * ev.std(ddof=1) / np.sqrt(len(ev))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MuParams(4, 0.0)
        with pytest.raises(ValueError):
            MuParams(-1, 1.0)
