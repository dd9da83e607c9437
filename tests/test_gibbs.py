"""Gibbs potential, density bookkeeping, and the three samplers."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from wicknlw import (
    ChainOptions,
    MuParams,
    WickContext,
    importance_weights,
    single_mode_moment_quadrature,
    wick_power,
)
from wicknlw import engine
from wicknlw.engine import l2_norm_sq, wick_mass_values, wick_potential_values
from wicknlw.free_field import _free_halves, rng_for_sample, sample_pair_half
from wicknlw.gibbs import sample_gibbs_arrays

from conftest import (half_from_full, half_modes, random_field,
                      reference_free_halves, zeros_half)


def grid_mean(spectrum: np.ndarray) -> float:
    """Integral over the torus: the zero mode of a half spectrum."""
    return float(spectrum[(spectrum.shape[-2] - 1) // 2, 0].real)


class TestPotentialAndMass:
    def test_zero_field_potential(self):
        ctx = WickContext.create(3, 1.0, 1)
        assert wick_potential_values(zeros_half(3), ctx) == \
            pytest.approx(0.75 * ctx.sigma**2)

    def test_constant_field_potential(self):
        ctx = WickContext.create(2, 1.0, 1)
        c = 1.3
        want = (c**4 - 6 * ctx.sigma * c**2 + 3 * ctx.sigma**2) / 4
        u = half_modes(2, {(0, 0): c})
        assert wick_potential_values(u, ctx) == pytest.approx(want)
        assert grid_mean(wick_power(u, 4, ctx.sigma)) / 4 == pytest.approx(want)

    def test_potential_even(self):
        ctx = WickContext.create(3, 1.0, 1)
        u = half_from_full(random_field(3, 4))
        assert wick_potential_values(u, ctx) == pytest.approx(
            wick_potential_values(-u, ctx))

    def test_zero_field_mass(self):
        ctx = WickContext.create(3, 1.0, 1)
        assert wick_mass_values(zeros_half(3), ctx) == \
            pytest.approx(-ctx.sigma)

    def test_mass_equals_l2_minus_sigma(self):
        ctx = WickContext.create(4, 1.0, 1)
        u = random_field(4, 5)
        want = np.sum(np.abs(u) ** 2) - ctx.sigma
        assert wick_mass_values(half_from_full(u), ctx) == pytest.approx(want, rel=1e-12)
        assert grid_mean(wick_power(half_from_full(u), 2, ctx.sigma)) == pytest.approx(
            want, rel=1e-12)

    def test_mass_mean_and_variance_under_mu(self):
        # E = 0 and Var = 2 sum <n>^{-4} (= 4 at N = 1) for the Wick square
        n, rho = 1, 1.0
        ctx = WickContext.create(n, rho, 1)
        u, _ = sample_pair_half(MuParams(n, rho, seed=21), 40000)
        vals = wick_mass_values(u, ctx)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se
        sq = (vals - vals.mean()) ** 2
        se_var = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 4.0) < 3 * se_var

    def test_coercivity_along_rays(self):
        ctx = WickContext.create(3, 1.0, 1)
        u = half_from_full(random_field(3, 6))
        vals = wick_potential_values(np.stack([u * t for t in (1.0, 2.0, 4.0, 8.0)]),
                                     ctx)
        assert vals[-1] > vals[-2] > vals[-3]
        assert vals[-1] > 100 * abs(vals[0])


class TestImportance:
    def test_equal_potentials_give_uniform_weights(self):
        np.testing.assert_allclose(importance_weights(np.full(5, 2.0)), 0.2)

    def test_weights_normalized(self):
        ctx = WickContext.create(1, 1.0, 1)
        _, _, pots, diag = sample_gibbs_arrays(ctx, 2, 500, method="importance")
        w = importance_weights(pots)
        assert w.sum() == pytest.approx(1.0)
        assert diag["ess"] > 1

    def test_log_density_matches_potential(self):
        # log-weights are -potential up to a constant, and the potentials
        # agree with the zero mode of each sample's quartic Wick power
        ctx = WickContext.create(1, 1.0, 1)
        u, _, pots, _ = sample_gibbs_arrays(ctx, 3, 20, method="importance")
        logw = np.log(importance_weights(pots))
        np.testing.assert_allclose(logw - logw[0], -(pots - pots[0]), atol=1e-12)
        for ui, p in zip(u, pots):
            assert p == pytest.approx(grid_mean(wick_power(ui, 4, ctx.sigma)) / 4,
                                      rel=1e-12)


class TestMetropolis:
    def test_single_mode_matches_quadrature(self):
        rho = 1.0
        oracle = single_mode_moment_quadrature(rho, m=1, moment=2)
        ctx = WickContext.create(0, rho, 1)
        u, _, _, diag = sample_gibbs_arrays(ctx, 5, 20000, method="metropolis",
                                            opts=ChainOptions(n_chains=8,
                                                              burn_in=200, thin=2))
        vals = u[:, 0, 0].real ** 2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        # thinned chain values are near-independent at this acceptance rate
        assert abs(vals.mean() - oracle) < 4 * se
        assert 0.2 < diag["acceptance_rate"] < 1.0

    def test_blend_chain_same_target(self):
        rho = 1.0
        oracle = single_mode_moment_quadrature(rho, m=1, moment=2)
        ctx = WickContext.create(0, rho, 1)
        u, _, _, diag = sample_gibbs_arrays(ctx, 6, 20000, method="metropolis",
                                            opts=ChainOptions(n_chains=8, burn_in=400,
                                                              thin=4, blend=0.5))
        vals = u[:, 0, 0].real ** 2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) < 5 * se

    def test_determinism(self):
        ctx = WickContext.create(1, 1.0, 1)
        opts = ChainOptions(n_chains=4, burn_in=50, thin=2)
        a = sample_gibbs_arrays(ctx, 9, 50, method="metropolis", opts=opts)
        b = sample_gibbs_arrays(ctx, 9, 50, method="metropolis", opts=opts)
        for xa, xb in zip(a[:3], b[:3]):
            np.testing.assert_array_equal(xa, xb)


class TestHMC:
    def test_single_mode_matches_quadrature(self):
        rho = 1.0
        oracle = single_mode_moment_quadrature(rho, m=1, moment=2)
        ctx = WickContext.create(0, rho, 1)
        u, _, _, diag = sample_gibbs_arrays(ctx, 8, 10000, method="hmc",
                                            opts=ChainOptions(n_chains=8,
                                                              burn_in=100, thin=3))
        vals = u[:, 0, 0].real ** 2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) < 5 * se
        assert diag["acceptance_rate"] > 0.5

    def test_consistent_with_importance_small_cutoff(self):
        # same observable through two exact samplers at N = 1
        n, rho = 1, 1.0
        ctx = WickContext.create(n, rho, 1)
        u_h, _, _, _ = sample_gibbs_arrays(
            ctx, 31, 4000, method="hmc",
            opts=ChainOptions(n_chains=16, burn_in=200, thin=4))
        h_vals = l2_norm_sq(u_h, n)
        u_i, _, pots, _ = sample_gibbs_arrays(ctx, 32, 200000,
                                              method="importance")
        w = importance_weights(pots)
        i_vals = l2_norm_sq(u_i, n)
        i_mean = float(np.sum(w * i_vals))
        i_se = math.sqrt(float(np.sum(w**2 * (i_vals - i_mean) ** 2)))
        h_se = h_vals.std(ddof=1) / math.sqrt(len(h_vals))
        assert abs(h_vals.mean() - i_mean) < 4 * math.hypot(h_se, i_se)


class TestKeptPotentials:
    @pytest.mark.parametrize("method", ["metropolis", "hmc"])
    def test_potentials_are_those_of_the_kept_draws(self, method):
        # the chain driver returns the potentials it accepted with each
        # draw; they are the potentials of the returned positions, bit for
        # bit, at the cutoff and mass of the context
        ctx = WickContext.create(2, 1.3, 1)
        u, _, pots, _ = sample_gibbs_arrays(
            ctx, 4, 30, method=method,
            opts=ChainOptions(n_chains=4, burn_in=10, thin=2))
        assert u.shape == (30, 5, 3)
        np.testing.assert_array_equal(pots, wick_potential_values(u, ctx))


class TestChainDraws:
    @pytest.mark.parametrize("want_v", [False, True])
    def test_stacked_draws_match_per_stream_assembly(self, want_v):
        # positions come from a 2-row block per chain stream, velocities
        # from rows 2 and 3 of a 4-row block; both match the full-square
        # assembly of each stream bit for bit and consume the same draws
        n, rho, seed = 3, 1.7, 23
        params = MuParams(n, rho, seed=seed)
        rows, first = (4, 2) if want_v else (2, 0)
        (want,) = reference_free_halves(seed, range(5), n, rho, rows, first)
        rngs = [rng_for_sample(seed, c) for c in range(5)]
        (got,) = _free_halves(rngs, params, rows, first)
        assert got.tobytes() == want.tobytes()
        for c, rng in enumerate(rngs):
            ref = rng_for_sample(seed, c)
            ref.standard_normal((rows, 2 * n + 1, 2 * n + 1))
            assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("seed", [0, 23, -5])
    def test_scheduler_stream_is_the_reserved_index(self, seed):
        # the hmc trajectory-length jitter draws from the stream keyed
        # (seed mod 2^64) << 64 | (2^64 - 1), the last sample index
        key = ((seed % (1 << 64)) << 64) | ((1 << 64) - 1)
        want = np.random.Generator(np.random.Philox(key=key))
        got = rng_for_sample(seed, (1 << 64) - 1)
        np.testing.assert_array_equal(got.integers(-3, 4, size=64),
                                      want.integers(-3, 4, size=64))


class TestChainBlocks:
    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("method", ["metropolis", "hmc"])
    def test_results_do_not_depend_on_the_chain_blocks(self, monkeypatch,
                                                       method, block):
        # every chain draws from its own stream and the hmc jitter comes
        # first, so 10 chains in one block, in ten, or in blocks of 3 that
        # end in a short one give the same bits
        ctx = WickContext.create(2, 1.0, 1)
        opts = ChainOptions(n_chains=10, burn_in=4, thin=2)
        want = sample_gibbs_arrays(ctx, 7, 30, method, opts)
        assert engine.step_rows(ctx) > 10
        monkeypatch.setattr(engine, "step_rows", lambda ctx: block)
        got = sample_gibbs_arrays(ctx, 7, 30, method, opts)
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
        # repr spells every float exactly, NaN included
        assert repr(got[3]) == repr(want[3])


class TestRhatFlag:
    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_unconverged_chains_are_flagged(self, seed):
        # four hmc moves from free starts at N = 8: R-hat reads 1.86-2.10
        ctx = WickContext.create(8, 1.0, 1)
        _, _, _, diag = sample_gibbs_arrays(
            ctx, seed, 64, "hmc", ChainOptions(n_chains=16, burn_in=0, thin=1))
        assert diag["r_hat"] > 1.1 and diag["r_hat_high"] is True

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_mixed_chains_are_not_flagged(self, seed):
        ctx = WickContext.create(0, 1.0, 1)
        _, _, _, diag = sample_gibbs_arrays(
            ctx, seed, 4000, "metropolis", ChainOptions(n_chains=20, burn_in=300))
        assert diag["r_hat"] < 1.05 and diag["r_hat_high"] is False

    def test_undefined_rhat_is_flagged(self):
        # one move after the burn-in cannot be split in halves: R-hat is NaN
        ctx = WickContext.create(1, 1.0, 1)
        _, _, _, diag = sample_gibbs_arrays(
            ctx, 2, 1, "metropolis", ChainOptions(n_chains=1, burn_in=2, thin=1))
        assert math.isnan(diag["r_hat"]) and diag["r_hat_high"] is True


class TestSamplerConsistency:
    def test_importance_vs_metropolis_all_observables(self):
        # both exact samplers must agree on every default observable;
        # small cutoff where both are usable.  The chain side uses
        # between-chain standard errors, which stay honest under
        # within-chain correlation.
        from wicknlw.experiments import DEFAULT_OBSERVABLES, observable_matrix

        n, rho = 1, 1.0
        n_chains, per_chain = 16, 1250
        ctx = WickContext.create(n, rho, 1)
        ui, vi, pots, _ = sample_gibbs_arrays(
            ctx, 41, 150000, method="importance")
        wgt = importance_weights(pots)
        mi = observable_matrix(ui, vi, ctx)
        um, vm, _, _ = sample_gibbs_arrays(
            ctx, 42, n_chains * per_chain,
            method="metropolis",
            opts=ChainOptions(n_chains=n_chains, burn_in=400, thin=4,
                              blend=0.35))
        mm = observable_matrix(um, vm, ctx)
        for j, name in enumerate(DEFAULT_OBSERVABLES):
            wm = float(np.sum(wgt * mi[:, j]))
            se_w = math.sqrt(float(np.sum(wgt**2 * (mi[:, j] - wm) ** 2)))
            chain_means = mm[:, j].reshape(n_chains, per_chain).mean(axis=1)
            cm = float(chain_means.mean())
            se_c = chain_means.std(ddof=1) / math.sqrt(n_chains)
            tol = 4 * math.hypot(se_w, se_c)
            if tol == 0.0:
                assert wm == cm, name
            else:
                assert abs(wm - cm) <= tol, name


class TestQuadratureOracle:
    def test_normalization(self):
        assert single_mode_moment_quadrature(1.0, 1, 0) == pytest.approx(1.0)

    def test_symmetry_kills_odd_moments(self):
        assert abs(single_mode_moment_quadrature(1.0, 1, 1)) < 1e-10

    def test_heavier_mass_shrinks_moment(self):
        m2_light = single_mode_moment_quadrature(0.5, 1, 2)
        m2_heavy = single_mode_moment_quadrature(4.0, 1, 2)
        assert m2_heavy < m2_light

    @staticmethod
    def _hermite_e_reference(rho, m, moment):
        # an independent evaluation: H_k(x; s) = s^(k/2) He_k(x / sqrt(s))
        # through numpy's HermiteE series, trapezoid on 2,000,001 nodes
        s, deg, cut = 1.0 / rho, 2 * m + 2, 12.0 / math.sqrt(min(rho, 1.0))
        x = np.linspace(-cut, cut, 2_000_001)
        h = s ** (deg / 2) * hermeval(x / math.sqrt(s), [0] * deg + [1])
        ell = -h / deg - 0.5 * rho * x * x
        weight = np.exp(ell - ell.max())
        return float(np.sum(x ** moment * weight) / np.sum(weight))

    @pytest.mark.parametrize("rho, m", [
        *((rho, m) for rho in (0.5, 1.0, 2.0) for m in (1, 2, 3)),
        (2.0, 4), (1.0, 4), (0.5, 4), (math.sqrt(3.0), 1)])
    def test_matches_hermite_e_trapezoid(self, rho, m):
        # at m = 1, rho = sqrt 3 the peak at 0 is flat: -l''(0) rounds below 0
        want = self._hermite_e_reference(rho, m, 2)
        assert single_mode_moment_quadrature(rho, m, 2) == pytest.approx(
            want, rel=1e-10)

    @pytest.mark.parametrize("rho, m, want", [
        (1.0, 3, 14.0521580350001), (0.5, 4, 40.7297209815837),
        (1.0, 4, 20.3644035866047)])
    def test_deep_wells_resolved(self, rho, m, want):
        # log-density peaks near 372 at (1, 3), in wells as narrow as 7e-4 at
        # (0.5, 4): a linear-space integrand overflows or misses them
        assert single_mode_moment_quadrature(rho, m, 2) == pytest.approx(
            want, rel=1e-11)

    def test_cubic_value_unchanged(self):
        # criterion 07's oracle
        assert single_mode_moment_quadrature(1.0, 1, 2) == pytest.approx(
            1.6654909742567603, rel=1e-13)

    def test_importance_sampler_agrees_at_quintic(self):
        oracle = single_mode_moment_quadrature(1.0, 2, 2)
        ctx = WickContext.create(0, 1.0, 2)
        u, _, pots, _ = sample_gibbs_arrays(ctx, 708, 100000, method="importance")
        wgt = importance_weights(pots)
        vals = u[:, 0, 0].real ** 2
        mean = float(np.sum(wgt * vals))
        se = math.sqrt(float(np.sum(wgt**2 * (vals - mean) ** 2)))
        assert abs(mean - oracle) <= 3.0 * se
