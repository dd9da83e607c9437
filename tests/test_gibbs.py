"""Gibbs potential, density bookkeeping, and the three samplers."""

import math

import numpy as np
import pytest

from wicknlw import (
    ChainOptions,
    GibbsSample,
    MuParams,
    SpectralField,
    WickContext,
    importance_weights,
    rn_moment_study,
    sample_gibbs,
    single_mode_moment_quadrature,
    wick_mass,
    wick_potential,
)
from wicknlw.engine import half_geometry, wick_mass_values, wick_potential_values
from wicknlw.free_field import sample_pair_half

from conftest import random_field


class TestPotentialAndMass:
    def test_zero_field_potential(self):
        ctx = WickContext.create(3, 1.0, 1)
        assert wick_potential(SpectralField.zeros(3), ctx) == pytest.approx(
            0.75 * ctx.sigma**2)

    def test_constant_field_potential(self):
        ctx = WickContext.create(2, 1.0, 1)
        c = 1.3
        want = (c**4 - 6 * ctx.sigma * c**2 + 3 * ctx.sigma**2) / 4
        got = wick_potential(SpectralField.from_modes(2, {(0, 0): c}), ctx)
        assert got == pytest.approx(want)

    def test_potential_even(self):
        ctx = WickContext.create(3, 1.0, 1)
        u = random_field(3, 4)
        assert wick_potential(u, ctx) == pytest.approx(wick_potential(-u, ctx))

    def test_zero_field_mass(self):
        ctx = WickContext.create(3, 1.0, 1)
        assert wick_mass(SpectralField.zeros(3), ctx) == pytest.approx(-ctx.sigma)

    def test_mass_equals_l2_minus_sigma(self):
        ctx = WickContext.create(4, 1.0, 1)
        u = random_field(4, 5)
        assert wick_mass(u, ctx) == pytest.approx(
            u.l2_norm_sq() - ctx.sigma, rel=1e-12)

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
        u = random_field(3, 6)
        vals = [wick_potential(u * t, ctx) for t in (1.0, 2.0, 4.0, 8.0)]
        assert vals[-1] > vals[-2] > vals[-3]
        assert vals[-1] > 100 * abs(vals[0])


class TestGibbsSampleType:
    def test_log_density_consistency(self):
        from wicknlw import PhaseState

        s = PhaseState(SpectralField.zeros(1), SpectralField.zeros(1), 1.0)
        GibbsSample(s, 1.5, -1.5)
        with pytest.raises(ValueError):
            GibbsSample(s, 1.5, -1.4)


class TestImportance:
    def test_equal_potentials_give_uniform_weights(self):
        from wicknlw import PhaseState

        state = PhaseState(SpectralField.zeros(1), SpectralField.zeros(1), 1.0)
        samples = [GibbsSample(state, 2.0, -2.0) for _ in range(5)]
        np.testing.assert_allclose(importance_weights(samples), 0.2)

    def test_weights_normalized(self):
        params = MuParams(1, 1.0, seed=2)
        ctx = WickContext.create(1, 1.0, 1)
        samples, diag = sample_gibbs(params, ctx, 500, method="importance")
        w = importance_weights(samples)
        assert w.sum() == pytest.approx(1.0)
        assert diag["ess"] > 1

    def test_log_density_matches_potential(self):
        params = MuParams(1, 1.0, seed=3)
        ctx = WickContext.create(1, 1.0, 1)
        samples, _ = sample_gibbs(params, ctx, 20, method="importance")
        for s in samples:
            assert s.log_density == -s.wick_potential
            assert s.wick_potential == pytest.approx(
                wick_potential(s.state.u, ctx), rel=1e-12)


class TestMetropolis:
    def test_single_mode_matches_quadrature(self):
        rho = 1.0
        oracle = single_mode_moment_quadrature(rho, m=1, moment=2)
        params = MuParams(0, rho, seed=5)
        ctx = WickContext.create(0, rho, 1)
        samples, diag = sample_gibbs(params, ctx, 20000, method="metropolis",
                                     opts=ChainOptions(n_chains=8, burn_in=200,
                                                       thin=2))
        vals = np.array([s.state.u.coeff(0, 0).real ** 2 for s in samples])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        # thinned chain values are near-independent at this acceptance rate
        assert abs(vals.mean() - oracle) < 4 * se
        assert 0.2 < diag["acceptance_rate"] < 1.0

    def test_blend_chain_same_target(self):
        rho = 1.0
        oracle = single_mode_moment_quadrature(rho, m=1, moment=2)
        params = MuParams(0, rho, seed=6)
        ctx = WickContext.create(0, rho, 1)
        samples, diag = sample_gibbs(params, ctx, 20000, method="metropolis",
                                     opts=ChainOptions(n_chains=8, burn_in=400,
                                                       thin=4, blend=0.5))
        vals = np.array([s.state.u.coeff(0, 0).real ** 2 for s in samples])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) < 5 * se

    def test_determinism(self):
        params = MuParams(1, 1.0, seed=9)
        ctx = WickContext.create(1, 1.0, 1)
        opts = ChainOptions(n_chains=4, burn_in=50, thin=2)
        a, _ = sample_gibbs(params, ctx, 50, method="metropolis", opts=opts)
        b, _ = sample_gibbs(params, ctx, 50, method="metropolis", opts=opts)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.state.u.coeffs, sb.state.u.coeffs)
            np.testing.assert_array_equal(sa.state.v.coeffs, sb.state.v.coeffs)


class TestHMC:
    def test_single_mode_matches_quadrature(self):
        rho = 1.0
        oracle = single_mode_moment_quadrature(rho, m=1, moment=2)
        params = MuParams(0, rho, seed=8)
        ctx = WickContext.create(0, rho, 1)
        samples, diag = sample_gibbs(params, ctx, 10000, method="hmc",
                                     opts=ChainOptions(n_chains=8, burn_in=100,
                                                       thin=3))
        vals = np.array([s.state.u.coeff(0, 0).real ** 2 for s in samples])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - oracle) < 5 * se
        assert diag["acceptance_rate"] > 0.5

    def test_consistent_with_importance_small_cutoff(self):
        # same observable through two exact samplers at N = 1
        n, rho = 1, 1.0
        params = MuParams(n, rho, seed=31)
        ctx = WickContext.create(n, rho, 1)
        hmc, _ = sample_gibbs(params, ctx, 4000, method="hmc",
                              opts=ChainOptions(n_chains=16, burn_in=200, thin=4))
        h_vals = np.array([s.state.u.l2_norm_sq() for s in hmc])
        imp, diag = sample_gibbs(MuParams(n, rho, seed=32), ctx, 200000,
                                 method="importance")
        w = importance_weights(imp)
        i_vals = np.array([s.state.u.l2_norm_sq() for s in imp])
        i_mean = float(np.sum(w * i_vals))
        i_se = math.sqrt(float(np.sum(w**2 * (i_vals - i_mean) ** 2)))
        h_se = h_vals.std(ddof=1) / math.sqrt(len(h_vals))
        assert abs(h_vals.mean() - i_mean) < 4 * math.hypot(h_se, i_se)


class TestChainDraws:
    @pytest.mark.parametrize("want_v", [False, True])
    def test_stacked_draws_match_per_stream_assembly(self, want_v):
        # one (rows, K, K) standard-normal block per chain stream, in
        # stream order, assembled one chain at a time
        from wicknlw.fields import half_from_full
        from wicknlw.free_field import _hermitian_unit_gaussians, rng_for_sample
        from wicknlw.gibbs import _chain_mu_half

        n, rows = 3, 4 if want_v else 2
        params = MuParams(n, 1.7, seed=23)
        amp = 1.0 / np.sqrt(half_geometry(n, 1.7)[2])
        want_u, want_vel = [], []
        for c in range(5):
            block = rng_for_sample(23, c).standard_normal((rows, 2 * n + 1, 2 * n + 1))
            want_u.append(half_from_full(
                _hermitian_unit_gaussians(block[0], block[1], n)) * amp)
            if want_v:
                want_vel.append(half_from_full(
                    _hermitian_unit_gaussians(block[2], block[3], n)))
        got = _chain_mu_half([rng_for_sample(23, c) for c in range(5)], params,
                             want_v)
        if want_v:
            np.testing.assert_array_equal(got[0], np.stack(want_u))
            np.testing.assert_array_equal(got[1], np.stack(want_vel))
        else:
            np.testing.assert_array_equal(got, np.stack(want_u))


class TestSamplerConsistency:
    def test_importance_vs_metropolis_all_observables(self):
        # both exact samplers must agree on every default observable;
        # small cutoff where both are usable.  The chain side uses
        # between-chain standard errors, which stay honest under
        # within-chain correlation.
        from wicknlw.experiments import DEFAULT_OBSERVABLES, observable_matrix
        from wicknlw.gibbs import sample_gibbs_arrays

        n, rho = 1, 1.0
        n_chains, per_chain = 16, 1250
        ctx = WickContext.create(n, rho, 1)
        ui, vi, pots, _ = sample_gibbs_arrays(
            MuParams(n, rho, seed=41), ctx, 150000, method="importance")
        logw = -(pots - pots.min())
        wgt = np.exp(logw)
        wgt /= wgt.sum()
        mi = observable_matrix(ui, vi, ctx)
        um, vm, _, _ = sample_gibbs_arrays(
            MuParams(n, rho, seed=42), ctx, n_chains * per_chain,
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


class TestMomentStudy:
    def test_p_zero_is_one(self):
        ctxs = [WickContext.create(1, 1.0, 1), WickContext.create(2, 1.0, 1)]
        rows = rn_moment_study(ctxs, [0.0], 50, seed=1)
        assert all(r["estimate"] == 1.0 for r in rows)

    def test_single_sample_power(self):
        ctx = WickContext.create(1, 1.0, 1)
        rows = rn_moment_study([ctx], [2.0], 1, seed=4)
        u, _ = sample_pair_half(MuParams(1, 1.0, 4), 1)
        want = math.exp(-2.0 * float(wick_potential_values(u, ctx)[0]))
        assert rows[0]["estimate"] == pytest.approx(want, rel=1e-12)

    def test_estimates_finite_positive(self):
        ctxs = [WickContext.create(n, 1.0, 1) for n in (1, 2, 4)]
        rows = rn_moment_study(ctxs, [1.0, 2.0], 2000, seed=2)
        assert all(np.isfinite(r["estimate"]) and r["estimate"] > 0 for r in rows)


class TestQuadratureOracle:
    def test_normalization(self):
        assert single_mode_moment_quadrature(1.0, 1, 0) == pytest.approx(1.0)

    def test_symmetry_kills_odd_moments(self):
        assert abs(single_mode_moment_quadrature(1.0, 1, 1)) < 1e-10

    def test_heavier_mass_shrinks_moment(self):
        m2_light = single_mode_moment_quadrature(0.5, 1, 2)
        m2_heavy = single_mode_moment_quadrature(4.0, 1, 2)
        assert m2_heavy < m2_light
