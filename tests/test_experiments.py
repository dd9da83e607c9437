"""Experiment drivers: invariance, chaos moments, scaling limit."""

import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import wicknlw
from wicknlw import (
    DynParams,
    MuParams,
    NONLINEARITIES,
    WickContext,
    chaos_convergence_study,
    counterterm_mass,
    evolve,
    evolve_scaled,
    hermite_moment_study,
    invariance_test,
    point_variance,
    universality_experiment,
)
from wicknlw import engine, experiments, free_field
from wicknlw.experiments import (
    CHAOS_MODES,
    DEFAULT_OBSERVABLES,
    observable_matrix,
    scaled_force_fn,
    scaled_forcing_grid,
)
from wicknlw.dynamics import (IntegrationError, record_count, records,
                              step_schedule, wick_kick)
from wicknlw.fields import (alias_free_grid, grid_from_half, half_from_grid,
                            project, sobolev_norm)
from wicknlw.free_field import sample_free_field, sample_pair_half
from wicknlw.gibbs import ChainOptions, sample_gibbs_arrays
from wicknlw.wick import hermite_values, wick_power


class TestObservables:
    def test_matrix_matches_public_functions(self):
        # references on the full coefficient square: Parseval sums and the
        # zero mode of the quartic Wick power
        from conftest import half_from_full, random_field
        from wicknlw import wick_power
        from wicknlw.fields import mode_norms_sq

        ctx = WickContext.create(3, 1.0, 1)
        u = random_field(3, 1)
        v = random_field(3, 2)
        mat = observable_matrix(half_from_full(u)[None],
                                half_from_full(v)[None], ctx)[0]
        quad = 0.5 * np.sum((1.0 + mode_norms_sq(3)) * np.abs(u) ** 2
                            + np.abs(v) ** 2)
        assert mat[0] == pytest.approx(np.sum(np.abs(u) ** 2) - ctx.sigma, rel=1e-12)
        quartic = wick_power(half_from_full(u), 4, ctx.sigma)
        assert mat[1] == pytest.approx(quartic[12, 0].real / 4, rel=1e-12)
        # entry [i, j] of the square is the mode (i - 3, j - 3)
        assert mat[2] == pytest.approx(abs(u[3, 3]) ** 2)
        assert mat[3] == pytest.approx(abs(u[4, 3]) ** 2)
        assert mat[4] == pytest.approx(abs(u[4, 4]) ** 2)
        assert mat[5] == pytest.approx(quad, rel=1e-12)
        assert len(mat) == len(DEFAULT_OBSERVABLES)


class TestInvariance:
    def test_zero_time_zero_z(self):
        ctx = WickContext.create(2, 1.0, 1)
        dyn = DynParams(ctx, 1e-2)
        rep = invariance_test(dyn, 0.0, 200, seed=3, method="importance")
        assert all(r["z_score"] == 0.0 for r in rep.observables)
        assert rep.passed

    def test_linear_flow_preserves_free_measure(self):
        # with the force disabled the flow is the exact mode rotation and
        # the free measure is invariant mode by mode
        n, rho = 4, 1.0
        ctx = WickContext.create(n, rho, 1)
        u0, v0 = sample_pair_half(MuParams(n, rho, seed=17), 4000)
        u1, v1 = engine.rotate(u0, v0, rho, 1.37)
        m0 = observable_matrix(u0, v0, ctx)
        m1 = observable_matrix(u1, v1, ctx)
        for j in range(m0.shape[1]):
            a, b = m0[:, j], m1[:, j]
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(a))
            assert abs(a.mean() - b.mean()) <= 3.5 * se

    def test_importance_rejected_for_positive_time(self):
        ctx = WickContext.create(2, 1.0, 1)
        with pytest.raises(ValueError, match="unweighted"):
            invariance_test(DynParams(ctx, 1e-2), 0.5, 100, seed=1,
                            method="importance")

    def test_small_invariance_run_passes(self):
        ctx = WickContext.create(4, 1.0, 1)
        dyn = DynParams(ctx, 2e-3)
        rep = invariance_test(dyn, 0.5, 600, seed=5, method="hmc",
                              opts=ChainOptions(n_chains=12, burn_in=300, thin=6))
        assert rep.n_failed == 0
        assert rep.passed, [r["z_score"] for r in rep.observables]
        assert rep.max_rel_energy_drift < 1e-3

    @staticmethod
    def _blow_up(dt, t_final):
        # N = 4 at a step far past stability: some or all rows blow up
        ctx = WickContext.create(4, 1.0, 1)
        return invariance_test(DynParams(ctx, dt), t_final, 16, seed=1,
                               opts=ChainOptions(n_chains=4, burn_in=5, thin=1))

    def test_fewer_than_two_finite_samples_is_an_integration_error(self):
        # every row blows up: no standard error exists, so the study
        # raises instead of dividing by a zero z denominator
        with pytest.raises(IntegrationError, match="at t = 5$") as exc:
            self._blow_up(0.2, 5.0)
        assert exc.value.time == 5.0

    def test_partial_failure_is_counted_and_fails(self):
        rep = self._blow_up(0.25, 2.0)
        assert rep.n_failed == 5 and rep.n_samples == 16
        assert not rep.passed

    def test_overflowed_observables_have_nan_z(self):
        # the 11 finite rows still overflow: wick_mass's evolved mean is
        # finite but its standard error is not, and a z of 0.0 would pass
        rep = self._blow_up(0.25, 2.0)
        mass = rep.observables[0]
        assert mass["observable"] == "wick_mass"
        assert math.isfinite(mass["mean_T"]) and not math.isfinite(mass["stderr_T"])
        for r in rep.observables:
            assert math.isnan(r["z_score"]), r

    @staticmethod
    def _whole_ensemble(dyn, t_final, n_samples, seed, opts):
        # reference: evolve every sample at once, in one run_steps call per
        # segment, then mask the ensemble and measure its finite rows, with
        # the default thresholds
        ctx = dyn.ctx
        u, v, _, diag = sample_gibbs_arrays(ctx, seed, n_samples, "hmc", opts)
        obs0 = observable_matrix(u, v, ctx)
        h0 = obs0[:, 5] + obs0[:, 1]
        n_steps, remainder = step_schedule(t_final, dyn.dt)
        work = {}
        kick = wick_kick(dyn, work)
        with np.errstate(all="ignore"):
            if n_steps:
                u, v = engine.run_steps(u, v, ctx.n_max, ctx.rho, dyn.dt,
                                        n_steps, kick, work)
            if remainder:
                u, v = engine.run_steps(u, v, ctx.n_max, ctx.rho, remainder, 1,
                                        kick, work)
            ok = (np.isfinite(u).reshape(n_samples, -1).all(axis=1)
                  & np.isfinite(v).reshape(n_samples, -1).all(axis=1))
            obs1 = observable_matrix(u[ok], v[ok], ctx)
            h1 = obs1[:, 5] + obs1[:, 1]
            drift = np.abs(h1 - h0[ok]) / (1.0 + np.abs(h0[ok]))
            rows = []
            for j, name in enumerate(DEFAULT_OBSERVABLES):
                m0, s0, m1, s1, z = experiments._zscore(obs0[ok][:, j],
                                                        obs1[:, j])
                rows.append({"observable": name, "mean_t0": m0,
                             "stderr_t0": s0, "mean_T": m1, "stderr_T": s1,
                             "z_score": z})
            n_failed = int((~ok).sum())
            passed = bool(all(abs(r["z_score"]) <= 3.0 for r in rows)
                          and drift.max() <= 1e-3 and n_failed == 0)
            return experiments.InvarianceReport(
                rows, n_samples, n_failed, t_final, dyn.dt,
                float(drift.max()), float(drift.mean()), diag, 3.0, 1e-3,
                passed).to_dict()

    @pytest.mark.parametrize(
        "n_max, dt, t_final, n_samples, n_chains, block, n_failed", [
            # 130 = 2 * 61 + 8 rows at N = 8; 0.055 ends on a partial step
            (8, 1e-2, 0.055, 130, 10, None, 0),
            # the blow-up run: 5 of 16 rows fail, across blocks of 5 rows
            (4, 0.25, 2.0, 16, 4, 5, 5),
        ])
    def test_streamed_report_equals_the_whole_ensemble(
            self, monkeypatch, n_max, dt, t_final, n_samples, n_chains, block,
            n_failed):
        dyn = DynParams(WickContext.create(n_max, 1.0, 1), dt)
        opts = ChainOptions(n_chains=n_chains, burn_in=5, thin=1)
        want = self._whole_ensemble(dyn, t_final, n_samples, 1, opts)
        if block is not None:
            monkeypatch.setattr(engine, "step_rows", lambda ctx: block)
        got = invariance_test(dyn, t_final, n_samples, seed=1, opts=opts)
        assert got.n_failed == want["n_failed"] == n_failed
        # repr spells every float exactly, NaN included
        assert repr(got.to_dict()) == repr(want)


class TestChaosStudy:
    def test_degree_one_matches_covariance(self):
        rep = chaos_convergence_study(1, [2], 1.0, 0.4, 0.25, 4000, seed=7,
                                      cauchy=False)
        for r in rep.moment_rows:
            n1, n2 = r["mode"]
            want = r["analytic"]
            if abs(complex(n1, n2)) <= 2:
                assert want == pytest.approx(1.0 / (1.0 + n1 * n1 + n2 * n2))
            assert abs(r["mc_estimate"] - want) <= 3.5 * max(r["stderr"], 1e-12)

    def test_cross_moments_vanish(self):
        rep = chaos_convergence_study(2, [2], 1.0, 0.0, 0.25, 4000, seed=8,
                                      cauchy=False)
        for r in rep.cross_rows:
            assert abs(r["mean_real"]) <= 3.5 * r["stderr_real"]
            assert abs(r["mean_imag"]) <= 3.5 * r["stderr_imag"]

    def test_time_stationarity(self):
        a = chaos_convergence_study(2, [2], 1.0, 0.0, 0.25, 4000, seed=9,
                                    cauchy=False)
        b = chaos_convergence_study(2, [2], 1.0, 0.7, 0.25, 4000, seed=10,
                                    cauchy=False)
        rows_a = {(r["ell"], tuple(r["mode"])): r for r in a.moment_rows}
        for r in b.moment_rows:
            ra = rows_a[(r["ell"], tuple(r["mode"]))]
            se = math.hypot(ra["stderr"], r["stderr"])
            if se == 0:
                assert r["mc_estimate"] == ra["mc_estimate"]
            else:
                assert abs(r["mc_estimate"] - ra["mc_estimate"]) <= 3.5 * se

    def test_stderr_scales_inverse_sqrt(self):
        a = chaos_convergence_study(2, [2], 1.0, 0.3, 0.25, 1000, seed=11,
                                    cauchy=False)
        b = chaos_convergence_study(2, [2], 1.0, 0.3, 0.25, 4000, seed=11,
                                    cauchy=False)
        ra = {(r["ell"], tuple(r["mode"])): r["stderr"] for r in a.moment_rows}
        for r in b.moment_rows:
            s_small = ra[(r["ell"], tuple(r["mode"]))]
            if s_small > 0:
                ratio = s_small / max(r["stderr"], 1e-300)
                assert 1.6 < ratio < 2.4

    def test_cauchy_distances_reported(self):
        rep = chaos_convergence_study(2, [2], 1.0, 0.3, 0.25, 500, seed=12)
        assert {(r["ell"], r["n_max"]) for r in rep.cauchy_rows} == {(1, 2), (2, 2)}
        assert all(r["distance"] > 0 for r in rep.cauchy_rows)

    def test_cutoff_zero_needs_cauchy_off(self):
        # 2 * 0 = 0, so d(0) would be a cutoff compared with itself
        with pytest.raises(ValueError, match="cutoff 0 is its own double"):
            chaos_convergence_study(2, [0, 1], 1.0, 0.3, 0.25, 20, seed=12)
        rep = chaos_convergence_study(2, [0, 1], 1.0, 0.3, 0.25, 20, seed=12,
                                      cauchy=False)
        assert {r["n_max"] for r in rep.moment_rows} == {0, 1}
        assert rep.cauchy_rows == []

    def test_rows_equal_a_fresh_wick_power_reference(self, monkeypatch):
        # blocks of 3 over 8 samples end in a short block, and cutoff 2 is
        # both a cutoff and the double of 1, so the Cauchy pairs chain;
        # the reference draws all samples at once and makes every power
        # with a fresh wick_power call
        ell_max, n_list, rho, t, eps, n = 3, [1, 2, 4], 1.0, 0.3, 0.25, 8
        monkeypatch.setattr(experiments, "_block_size", lambda values: 3)
        rep = chaos_convergence_study(ell_max, n_list, rho, t, eps, n, seed=5)

        u0, v0 = sample_pair_half(MuParams(8, rho, 5), n)
        z = engine.rotate(u0, v0, rho, t)[0]

        def power(ell, n_cut):
            return wick_power(project(z, n_cut), ell, point_variance(n_cut, rho))

        def mean_se(vals):
            return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))

        moments, cross, cauchy = [], [], []
        for n_cut in n_list:
            for ell in range(1, ell_max + 1):
                sp = power(ell, n_cut)
                c = {mo: experiments._mode_coeff(sp, mo) for mo in CHAOS_MODES}
                moments += [(ell, n_cut, list(mo), *mean_se(np.abs(c[mo]) ** 2))
                            for mo in CHAOS_MODES]
                for a, b in combinations(CHAOS_MODES, 2):
                    prod = c[a] * np.conj(c[b])
                    cross.append((ell, n_cut, list(a), list(b),
                                  *mean_se(prod.real), *mean_se(prod.imag)))
                diff = experiments._half_difference(power(ell, 2 * n_cut), sp)
                cauchy.append((ell, n_cut, *mean_se(sobolev_norm(diff, -eps))))
        assert [(r["ell"], r["n_max"], r["mode"], r["mc_estimate"], r["stderr"])
                for r in rep.moment_rows] == moments
        assert [(r["ell"], r["n_max"], r["mode_a"], r["mode_b"], r["mean_real"],
                 r["stderr_real"], r["mean_imag"], r["stderr_imag"])
                for r in rep.cross_rows] == cross
        assert [(r["ell"], r["n_max"], r["distance"], r["stderr"])
                for r in rep.cauchy_rows] == cauchy


class TestHermiteMoments:
    def test_small_study(self):
        rows = hermite_moment_study(2, 1.0, k_max=2, n_samples=6000, seed=13)
        for r in rows:
            tol = 4.0 * max(r["stderr"], 1e-12)
            assert abs(r["mc_estimate"] - r["expected"]) <= tol

    def test_unit_diagonal(self):
        rows = hermite_moment_study(2, 1.0, k_max=0, n_samples=100, seed=1)
        for r in rows:
            assert r["k"] == r["m"] == 0
            assert r["mc_estimate"] == pytest.approx(1.0)

    def test_matches_full_square_evaluation(self):
        # reference: field values and gamma(x - y) as direct sums over the
        # full coefficient square
        from wicknlw.experiments import HERMITE_POINTS
        from wicknlw.fields import full_from_half
        from wicknlw.free_field import covariance_field

        n, rho, t, ns = 3, 1.2, 0.4, 9
        rows = hermite_moment_study(n, rho, 1, ns, seed=4, t_eval=t)
        u, v = sample_pair_half(MuParams(n, rho, 4), ns)
        z = full_from_half(engine.rotate(u, v, rho, t)[0])
        k = np.arange(-n, n + 1)

        def at(c, x):
            phase = np.exp(1j * (k[:, None] * x[0] + k[None, :] * x[1]))
            return np.real(np.sum(c * phase, axis=(-2, -1)))

        sigma = point_variance(n, rho)
        x0 = HERMITE_POINTS[0]
        for y in HERMITE_POINTS:
            r, = (r for r in rows if r["y"] == list(y) and r["k"] == r["m"] == 1)
            want = np.mean(at(z, x0) * at(z, y)) / sigma
            assert r["mc_estimate"] == pytest.approx(want, rel=1e-12)
            gamma = at(covariance_field(n, rho), np.subtract(x0, y))
            assert r["expected"] == pytest.approx(gamma / sigma, rel=1e-12)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_rejects_fewer_than_two_samples(self, n_samples):
        with pytest.raises(ValueError, match="two samples"):
            hermite_moment_study(2, 1.0, 1, n_samples, seed=0)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="k_max"):
            hermite_moment_study(2, 1.0, -1, 10, seed=0)


class TestCounterterm:
    def test_sin_desk_value(self):
        got = counterterm_mass(NONLINEARITIES["sin"], 0.5, 1.0)
        assert got == pytest.approx(1.25 - 77.0 / 120.0)

    def test_linear_has_no_cubic_counterterm(self):
        f = NONLINEARITIES["linear"]
        for eps in (1.0, 0.5, 0.125):
            assert counterterm_mass(f, eps, 1.0) == pytest.approx(1 + eps * eps)

    def test_pure_cubic_specialization(self):
        f = NONLINEARITIES["cubic"]
        eps, rho = 0.25, 1.0
        sig = point_variance(4, rho)
        want = eps * eps * rho - eps * eps * sig / 2.0
        assert counterterm_mass(f, eps, rho) == pytest.approx(want)

    def test_rejects_large_eps(self):
        with pytest.raises(ValueError):
            counterterm_mass(NONLINEARITIES["sin"], 1.5, 1.0)


class TestScaledForcing:
    def test_pure_cubic_is_wick_cubic(self):
        rng = np.random.default_rng(0)
        eps, rho = 1 / 8, 1.0
        sig = point_variance(8, rho)
        vals = rng.standard_normal((4, 10, 10)) * 3.0
        got = scaled_forcing_grid(NONLINEARITIES["cubic"], eps, rho, vals)
        want = -hermite_values(3, vals, sig) / 6.0
        assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.max(np.abs(want)))

    def test_spectral_route_matches_wick_force(self):
        from conftest import half_from_full, random_field

        eps, rho, n = 1 / 8, 1.0, 8
        ctx = WickContext.create(n, rho, 1)
        u = half_from_full(random_field(n, 3))[None]
        force = scaled_force_fn(NONLINEARITIES["cubic"], eps, rho)
        got = force(u)
        want = -engine.wick_force(u, ctx) / 6.0
        assert np.max(np.abs(got - want)) < 1e-10 * (1 + np.max(np.abs(want)))

    @pytest.mark.parametrize("name", ["sin", "cubic", "linear"])
    def test_hook_is_the_pointwise_forcing(self, name):
        # at a non-dyadic eps the spectral hook projects exactly the grid
        # values scaled_forcing_grid returns, with or without a workspace
        f, eps, rho = NONLINEARITIES[name], 0.3, 1.0
        n = int(1 / eps)
        rng = np.random.default_rng(5)
        u = half_from_grid(rng.standard_normal((2, 16, 16)), n)
        g = grid_from_half(u, alias_free_grid(n, 4))
        g_before = g.copy()
        want = half_from_grid(scaled_forcing_grid(f, eps, rho, g), n)
        np.testing.assert_array_equal(g, g_before)
        for work in (None, {}):
            np.testing.assert_array_equal(
                scaled_force_fn(f, eps, rho, work)(u), want)

    def test_taylor_remainder_bound(self):
        # forcing minus {linear + cubic Taylor parts} is below eps u^4 / 24
        rng = np.random.default_rng(1)
        f = NONLINEARITIES["sin"]
        eps, rho = 1 / 8, 1.0
        rho_e = counterterm_mass(f, eps, rho)
        a = (f.d1 + eps * eps * rho - rho_e) / (eps * eps)
        vals = rng.standard_normal((4, 12, 12)) * 3.0
        forcing = scaled_forcing_grid(f, eps, rho, vals)
        remainder = forcing - a * vals - (f.d3 / 6.0) * vals**3
        bound = eps * np.abs(vals) ** 4 / 24.0 * f.d4_bound
        assert np.all(np.abs(remainder) <= bound * (1 + 1e-9) + 1e-12)


class TestEvolveScaled:
    def test_final_time_reached(self):
        traj = evolve_scaled(0.5, NONLINEARITIES["sin"], 1.0, 0.05, 1e-2,
                             seed=3, record_every=1)
        assert traj.times[-1] == pytest.approx(0.05)

    def test_odd_nonlinearity_fixes_origin(self):
        from wicknlw.dynamics import evolve

        n_cut, rho = 2, 1.0
        zero = np.zeros((2 * n_cut + 1, n_cut + 1), dtype=complex)
        ctx = WickContext.create(n_cut, rho, 1)
        force = scaled_force_fn(NONLINEARITIES["sin"], 0.5, rho)
        dyn = DynParams(ctx, 1e-2, lam=NONLINEARITIES["sin"].limit_coupling)
        traj = evolve(zero, zero, 0.1, dyn, record_every=5, force=force)
        assert np.all(traj.u == 0)

    def test_seed_sharing_nested_data(self):
        t1 = evolve_scaled(0.5, NONLINEARITIES["sin"], 1.0, 0.02, 1e-2, seed=4,
                           n_master=4)
        t2 = evolve_scaled(0.5, NONLINEARITIES["sin"], 1.0, 0.02, 1e-2, seed=4,
                           n_master=4)
        np.testing.assert_array_equal(t1.u, t2.u)
        # the data are the master sample projected to the working cutoff
        u, _ = sample_free_field(MuParams(4, 1.0, 4))
        np.testing.assert_array_equal(t1.u[0], project(u, 2))


class TestBlockInvariance:
    """Results must not depend on how the sample loops are blocked."""

    @staticmethod
    def _spy_blocks(monkeypatch):
        sizes = []

        def spy(params, n, start_index=0, work=None):
            sizes.append(n)
            return sample_pair_half(params, n, start_index, work)

        monkeypatch.setattr(experiments, "sample_pair_half", spy)
        return sizes

    @pytest.mark.parametrize("block", [1, 3])
    def test_chaos_study(self, monkeypatch, block):
        args = (2, [1, 2], 1.0, 0.3, 0.25, 20)
        want = chaos_convergence_study(*args, seed=21).to_dict()
        m_big = alias_free_grid(4, 3)  # largest cut 2 * 2, degree 2 * 2 - 1
        monkeypatch.setattr(free_field, "_BLOCK_VALUES", block * m_big ** 2)
        sizes = self._spy_blocks(monkeypatch)
        assert chaos_convergence_study(*args, seed=21).to_dict() == want
        assert max(sizes) == block and sum(sizes) == 20

    @pytest.mark.parametrize("block", [1, 3])
    def test_hermite_moment_study(self, monkeypatch, block):
        want = hermite_moment_study(3, 1.0, 3, 20, seed=22, t_eval=0.4)
        monkeypatch.setattr(free_field, "_BLOCK_VALUES", block * 4 * 7 ** 2)
        sizes = self._spy_blocks(monkeypatch)
        assert hermite_moment_study(3, 1.0, 3, 20, seed=22, t_eval=0.4) == want
        assert max(sizes) == block and sum(sizes) == 20

    @pytest.mark.parametrize("block", [1, 3])
    def test_hmc_invariance_evolution(self, monkeypatch, block):
        ctx = WickContext.create(3, 1.0, 1)
        dyn = DynParams(ctx, 1e-2)
        opts = ChainOptions(n_chains=4, burn_in=10, thin=2)
        # 0.055 = 5 steps plus a partial step: both run_steps calls per block
        want = invariance_test(dyn, 0.055, 10, seed=23, opts=opts).to_dict()
        # the potential and observable loops block at M = 13 as well
        monkeypatch.setattr(free_field, "_BLOCK_VALUES",
                            block * alias_free_grid(3, 3) ** 2)
        monkeypatch.setattr(engine, "step_rows", lambda ctx: block)
        calls = []
        run_steps = engine.run_steps

        def spy(u, v, n_max, rho, dt, *args):
            calls.append((len(u), dt))
            return run_steps(u, v, n_max, rho, dt, *args)

        monkeypatch.setattr(engine, "run_steps", spy)
        assert invariance_test(dyn, 0.055, 10, seed=23, opts=opts).to_dict() == want
        # the HMC trajectories step by traj_time / 40, the evolution by dt
        # and by the partial step; both run in blocks of step_rows
        traj_dt = opts.traj_time / 40.0
        evolution = [r for r, h in calls if h != traj_dt]
        assert max(evolution) == block and sum(evolution) == 2 * 10
        assert max(r for r, h in calls if h == traj_dt) == block


def _fresh_interpreter(script: str) -> float:
    """The last number ``script`` prints, run in a fresh interpreter, so a
    peak or a fault count is that run's alone."""
    src = str(Path(wicknlw.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=600,
                         check=True)
    return float(out.stdout.split()[-1])


class TestBoundedMemory:
    def test_chaos_peak_does_not_scale_with_samples(self):
        # a fresh interpreter, so the peak RSS is this study's alone; the
        # block rule grows it by about 25 MB, blocks of 1024 samples by 700 MB
        script = (
            "import resource\n"
            "from wicknlw import chaos_convergence_study\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "chaos_convergence_study(3, [1, 4, 8], 1.0, 0.3, 0.25, 2048, seed=1)\n"
            "r1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((r1 - r0) / 1024.0)\n"
        )
        growth_mb = _fresh_interpreter(script)
        assert growth_mb <= 100.0, f"peak RSS grew by {growth_mb:.0f} MB"

    def test_chaos_page_faults_follow_the_work(self):
        # the samples, spectra and norms of every block live in one
        # workspace: 5.7k or 15k minor faults here, by heap layout, against
        # 44k-54k when each block allocated its spectra afresh and glibc
        # trimmed and refaulted the heap top
        script = (
            "import resource\n"
            "from wicknlw import chaos_convergence_study\n"
            "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "chaos_convergence_study(3, [1, 4, 8], 1.0, 0.3, 0.25, 2048, seed=1)\n"
            "f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(f1 - f0)\n"
        )
        faults = int(_fresh_interpreter(script))
        assert faults <= 25000, f"{faults} minor page faults"

    def test_invariance_peak_holds_one_ensemble(self):
        # the evolution streams blocks of step_rows samples, so the study
        # holds the sampler's (u, v) ensemble plus one block: 59 MiB of
        # growth for a 47 MiB ensemble, against 97-128 MiB when every
        # sample was evolved, masked and measured at once.  The metropolis
        # sampler keeps the run near a second; the evolution is the same
        n_samples = 10000
        ensemble_mb = n_samples * 2 * 17 * 9 * 16 / 2 ** 20  # N = 8
        script = (
            "import resource\n"
            "from wicknlw import DynParams, WickContext, invariance_test\n"
            "from wicknlw.gibbs import ChainOptions\n"
            "dyn = DynParams(WickContext.create(8, 1.0, 1), 1e-3)\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            f"rep = invariance_test(dyn, 1e-3, {n_samples}, seed=1,\n"
            "    method='metropolis',\n"
            "    opts=ChainOptions(n_chains=200, burn_in=0, thin=1))\n"
            "r1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert rep.n_failed == 0\n"
            "print((r1 - r0) / 1024.0)\n"
        )
        growth_mb = _fresh_interpreter(script)
        assert growth_mb <= ensemble_mb + 25.0, (
            f"peak RSS grew by {growth_mb:.0f} MiB, ensemble "
            f"{ensemble_mb:.0f} MiB")

    def test_universality_peak_holds_no_record_stack(self):
        # the runs advance in lockstep on one workspace, so the ladder
        # holds one record per run, the workspace and the DFT tables:
        # 9.7 MB traced, against 14.6 MB when the reference's 43 u records
        # (5.8 MB at n_ref = 64) were kept and every run made a workspace
        script = (
            "import tracemalloc\n"
            "from wicknlw import NONLINEARITIES, universality_experiment\n"
            "tracemalloc.start()\n"
            "rep = universality_experiment(NONLINEARITIES['sin'],\n"
            "    [1 / 8, 1 / 16, 1 / 32, 1 / 64], 1.0, -0.1, 0.5, 2e-3, seed=7)\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "assert rep.n_ref == 64 and not any(r['failed'] for r in rep.rows)\n"
            "print(peak / 1e6)\n"
        )
        peak_mb = _fresh_interpreter(script)
        assert peak_mb <= 12.0, f"peak {peak_mb:.1f} MB"


class TestUniversality:
    def test_half_difference_pads_the_smaller_cutoff(self):
        # reference: zero-pad the full coefficient squares, then subtract
        from conftest import half_from_full, random_field

        small, big = random_field(2, 7), random_field(5, 8)
        padded = np.zeros((11, 11), dtype=complex)
        padded[3:8, 3:8] = small
        want = half_from_full(big - padded)
        a, b = half_from_full(big), half_from_full(small)
        np.testing.assert_array_equal(experiments._half_difference(a, b), want)
        np.testing.assert_array_equal(experiments._half_difference(b, a), -want)

    # 76 steps of 3e-3 and a partial step, recorded every 2 steps; rungs
    # at cutoffs 2, 4 and 6 = n_ref, refinement run at 3
    LADDER = (NONLINEARITIES["sin"], [1 / 2, 1 / 4, 1 / 6], 1.0, -0.1, 0.23,
              3e-3, 4)

    def test_ladder_equals_the_batched_formula_over_evolve_stacks(self):
        # the lockstep ladder on its shared workspace, bit-equal to the
        # batched formula over stacks evolved one run at a time
        f, eps_list, rho, s, t, dt, seed = self.LADDER
        rep = universality_experiment(*self.LADDER)
        master = sample_free_field(MuParams(6, rho, seed))

        def stack(n_cut):
            u, v, dyn = experiments._rung(master, n_cut, f, rho, dt)
            return evolve(u, v, t, dyn, record_every=2).u

        ref = stack(6)
        assert len(ref) == record_count(t, dt, 2) == 40

        def sup(x):
            return sobolev_norm(experiments._half_difference(x, ref), s).max()

        assert rep.ref_refinement_distance == sup(stack(3))
        for row, eps in zip(rep.rows, eps_list):
            assert not row["failed"]
            assert row["sup_distance"] == sup(evolve_scaled(
                eps, f, rho, t, dt, seed, record_every=2, n_master=6).u)

    def test_runs_stepped_in_turn_share_one_workspace(self):
        # two runs advanced alternately on one dict, their records kept
        # without copies, equal the runs on workspaces of their own: no
        # record is a workspace buffer, and no run reads one it did not
        # write in the same step
        f, rho, dt = NONLINEARITIES["sin"], 1.0, 3e-3
        master = sample_free_field(MuParams(6, rho, 5))
        (u6, v6, dyn6), (u4, v4, dyn4) = (experiments._rung(master, n, f, rho, dt)
                                          for n in (6, 4))
        shared = {}
        kept = list(zip(
            records(u6, v6, 0.05, dyn6, 2, work=shared),
            records(u4, v4, 0.05, dyn4, 2, scaled_force_fn(f, 1 / 4, rho, shared),
                    shared)))
        # the N = 6 Wick grids (25^2) hold the N = 4 forcing grids (21^2)
        assert shared["grid"].shape == (25, 25)
        alone = (evolve(u6, v6, 0.05, dyn6, 2),
                 evolve(u4, v4, 0.05, dyn4, 2, scaled_force_fn(f, 1 / 4, rho, {})))
        for j, traj in enumerate(alone):
            assert len(kept) == len(traj.times) == 10
            for i, pair in enumerate(kept):
                t, u, v = pair[j]
                assert t == traj.times[i]
                np.testing.assert_array_equal(u, traj.u[i])
                np.testing.assert_array_equal(v, traj.v[i])

    def test_a_failed_rung_leaves_every_other_row_alone(self, monkeypatch):
        # the eps = 1/4 rung's force turns infinite at its 21st call, in
        # its 7th of 39 segments: the rung is reported failed and not
        # advanced, and every other run on the shared workspace reads the
        # bits of the ladder without the fault
        clean = universality_experiment(*self.LADDER)
        scaled = experiments.scaled_force_fn
        calls = []

        def faulty(f, eps, rho, work=None):
            force = scaled(f, eps, rho, work)
            if eps != 1 / 4:
                return force

            def blown(u):
                calls.append(eps)
                out = force(u)
                if len(calls) > 20:
                    out[...] = np.inf
                return out

            return blown

        monkeypatch.setattr(experiments, "scaled_force_fn", faulty)
        with np.errstate(invalid="ignore"):
            rep = universality_experiment(*self.LADDER)
        assert rep.rows[1]["failed"] and math.isnan(rep.rows[1]["sup_distance"])
        assert len(calls) == 21
        assert rep.rows[::2] == clean.rows[::2]
        assert rep.ref_refinement_distance == clean.ref_refinement_distance

    @pytest.mark.parametrize("n_blown", [6, 3], ids=["reference", "refinement"])
    def test_a_failed_reference_or_refinement_run_raises(self, monkeypatch,
                                                          n_blown):
        # data scaled by 1e110 overflow the cubic in the first kick
        rung = experiments._rung

        def blown(master, n_cut, *rest):
            u, v, dyn = rung(master, n_cut, *rest)
            return (u * 1e110 if n_cut == n_blown else u), v, dyn

        monkeypatch.setattr(experiments, "_rung", blown)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError):
            universality_experiment(*self.LADDER)

    def test_the_reference_failure_is_the_one_raised(self, monkeypatch):
        # as when the reference ran first and alone: a refinement run that
        # fails at an earlier record does not mask the reference's failure
        real = experiments.records

        def failing(u, v, t_final, dyn, every, force, work):
            fail_at = None if force is not None else {6: 3, 3: 1}[dyn.ctx.n_max]
            for i, rec in enumerate(real(u, v, t_final, dyn, every, force, work)):
                if i == fail_at:
                    raise IntegrationError(rec[0])
                yield rec

        monkeypatch.setattr(experiments, "records", failing)
        with pytest.raises(IntegrationError) as err:
            universality_experiment(*self.LADDER)
        assert err.value.time == pytest.approx(3 * 2 * 3e-3)

    def test_ladder_runs_and_reports(self):
        rep = universality_experiment(NONLINEARITIES["sin"], [1 / 2, 1 / 4],
                                      rho=1.0, s=-0.1, t_final=0.1, dt=5e-3,
                                      seed=6)
        assert len(rep.rows) == 2
        assert all(not r["failed"] for r in rep.rows)
        assert rep.rows[0]["sup_distance"] > rep.rows[1]["sup_distance"]

    def test_matching_cutoff_row_is_small(self):
        # at eps with floor(1/eps) = n_ref the only difference is the forcing
        rep = universality_experiment(NONLINEARITIES["sin"], [1 / 2, 1 / 4],
                                      rho=1.0, s=-0.1, t_final=0.1, dt=5e-3,
                                      seed=6)
        assert rep.rows[1]["sup_distance"] < 0.1 * rep.rows[0]["sup_distance"]

    def test_validation(self):
        with pytest.raises(ValueError):
            universality_experiment(NONLINEARITIES["sin"], [0.5, 0.5], 1.0,
                                    -0.1, 0.1, 1e-2, 0)
        with pytest.raises(ValueError):
            universality_experiment(NONLINEARITIES["sin"], [0.5], 1.0, 0.1,
                                    0.1, 1e-2, 0)

    def test_refinement_distance_needs_a_coarser_reference(self):
        # n_ref = floor(1 / 0.75) = 1 has no cutoff n_ref // 2 >= 1 to
        # compare with; cutoff 2 compares with cutoff 1
        rep = universality_experiment(NONLINEARITIES["sin"], [1.0, 0.75], 1.0,
                                      -0.1, 0.05, 1e-2, 3)
        assert (rep.n_ref, rep.ref_refinement_distance) == (1, None)
        rep = universality_experiment(NONLINEARITIES["sin"], [1.0, 0.5], 1.0,
                                      -0.1, 0.05, 1e-2, 3)
        assert rep.n_ref == 2 and rep.ref_refinement_distance > 0.0

    def test_rho_eps_reported(self):
        rep = universality_experiment(NONLINEARITIES["linear"], [1.0], 1.0,
                                      -0.2, 0.05, 5e-3, 2)
        assert rep.rows[0]["rho_eps"] == pytest.approx(2.0)  # 1 + eps^2 rho
