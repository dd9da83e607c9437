"""Splitting integrator: exact linear flow, force, energy behaviour."""

import numpy as np
import pytest

from wicknlw import (
    DynParams,
    IntegrationError,
    MuParams,
    SpectralField,
    WickContext,
    engine,
    evolve,
    hermite,
)
from wicknlw.dynamics import (Trajectory, default_dt, record_count, records,
                              wick_kick)
from wicknlw.fields import ball_mask, full_from_half, half_from_full
from wicknlw.free_field import sample_pair_half

from conftest import random_field


def random_state(n_max, seed, scale=1.0):
    """Half-layout (u, v) of two seeded random fields."""
    return (half_from_full(random_field(n_max, seed, scale).coeffs),
            half_from_full(random_field(n_max, seed + 1000, scale).coeffs))


def zero_state(n_max):
    z = np.zeros((2 * n_max + 1, n_max + 1), dtype=complex)
    return z, z


def free_sample(n_max, seed):
    u, v = sample_pair_half(MuParams(n_max, 1.0, seed=seed), 1)
    return u[0], v[0]


class TestLinearPropagate:
    def test_identity_at_zero_time(self):
        u, v = random_state(3, 0)
        ur, vr = engine.rotate(u, v, 3, 1.0, 0.0)
        np.testing.assert_array_equal(ur, u)
        np.testing.assert_array_equal(vr, v)

    def test_quarter_period_single_mode(self):
        u, v = np.ones((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex)
        ur, vr = engine.rotate(u, v, 0, 1.0, np.pi / 2)
        assert abs(ur[0, 0]) < 1e-15
        assert vr[0, 0].real == pytest.approx(-1.0)

    def test_reversible(self):
        u, v = random_state(4, 7)
        back = engine.rotate(*engine.rotate(u, v, 4, 1.3, 0.83), 4, 1.3, -0.83)
        np.testing.assert_allclose(back[0], u, atol=1e-12)
        np.testing.assert_allclose(back[1], v, atol=1e-12)

    def test_quadratic_energy_conserved(self):
        u, v = random_state(5, 3)
        e0 = engine.quadratic_energy_values(u, v, 5, 0.7)
        for t in (0.1, 1.0, 7.3):
            e = engine.quadratic_energy_values(*engine.rotate(u, v, 5, 0.7, t), 5, 0.7)
            assert e == pytest.approx(e0, rel=1e-12)


class TestNonlinearForce:
    def test_zero_field(self):
        ctx = WickContext.create(3, 1.0, 1)
        f = engine.wick_force(zero_state(3)[0], ctx)
        assert np.all(f == 0)

    def test_constant_field_closed_form(self):
        ctx = WickContext.create(2, 1.0, 1)
        c = 0.9
        u = half_from_full(SpectralField.from_modes(2, {(0, 0): c}).coeffs)
        f = engine.wick_force(u, ctx)
        assert f[2, 0].real == pytest.approx(hermite(3, c, ctx.sigma))
        assert np.sum(np.abs(f)) == pytest.approx(abs(hermite(3, c, ctx.sigma)))

    def test_output_stays_in_ball(self):
        ctx = WickContext.create(4, 1.0, 1)
        f = engine.wick_force(random_state(4, 2)[0], ctx)
        assert f.shape == (9, 5)
        assert np.all(f[~ball_mask(4)[:, 4:]] == 0)


class TestStepAndEvolve:
    def test_zero_state_fixed_point(self):
        ctx = WickContext.create(3, 1.0, 1)
        traj = evolve(*zero_state(3), 1e-2, DynParams(ctx, 1e-2))
        assert np.all(traj.u == 0) and np.all(traj.v == 0)

    def test_step_close_to_linear_for_small_dt(self):
        ctx = WickContext.create(3, 1.0, 1)
        u, v = random_state(3, 5)
        force_mag = np.linalg.norm(full_from_half(engine.wick_force(u, ctx)))
        for dt in (1e-3, 5e-4):
            # t_final = dt is a single Strang step
            a = evolve(u, v, dt, DynParams(ctx, dt)).v[-1]
            b = engine.rotate(u, v, 3, 1.0, dt)[1]
            diff = np.linalg.norm(full_from_half(a - b))
            assert diff <= 1.1 * dt * force_mag
            assert diff >= 0.5 * dt * force_mag

    def test_trajectory_shape(self):
        ctx = WickContext.create(2, 1.0, 1)
        dt = 1e-2
        traj = evolve(*random_state(2, 1, scale=0.3), dt, DynParams(ctx, dt),
                      record_every=1)
        assert len(traj.times) == 2
        assert traj.u.shape == traj.v.shape == (2, 5, 3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(dt)

    def test_partial_final_step(self):
        ctx = WickContext.create(2, 1.0, 1)
        traj = evolve(*random_state(2, 2, scale=0.3), 0.025,
                      DynParams(ctx, 1e-2), record_every=1)
        assert traj.times[-1] == pytest.approx(0.025)

    def test_zero_initial_zero_trajectory(self):
        ctx = WickContext.create(2, 1.0, 1)
        traj = evolve(*zero_state(2), 0.1, DynParams(ctx, 1e-2), record_every=2)
        assert np.all(traj.u == 0)

    def test_backward_evolution_returns(self):
        ctx = WickContext.create(4, 1.0, 1)
        u, v = free_sample(4, 9)
        dt = 2e-3
        fwd = evolve(u, v, 0.4, DynParams(ctx, dt), record_every=1000)
        back = evolve(fwd.u[-1], -fwd.v[-1], 0.4, DynParams(ctx, dt),
                      record_every=1000)
        assert np.max(np.abs(back.u[-1] - u)) < 1e-9 * np.max(np.abs(u))

    def test_parity_equivariance(self):
        # the force is odd, so evolving -s equals negating the evolution of s
        ctx = WickContext.create(3, 1.0, 1)
        u, v = random_state(3, 11, scale=0.5)
        dyn = DynParams(ctx, 5e-3)
        a = evolve(u, v, 0.1, dyn, record_every=100).u[-1]
        b = evolve(-u, -v, 0.1, dyn, record_every=100).u[-1]
        np.testing.assert_allclose(b, -a, atol=1e-13)

    def test_richardson_energy_drift_ratio(self):
        ctx = WickContext.create(8, 1.0, 1)
        u, v = free_sample(8, 11)

        def drift(dt):
            traj = evolve(u, v, 0.5, DynParams(ctx, dt), record_every=100)
            h = engine.hamiltonian_values(traj.u, traj.v, ctx)
            return np.max(np.abs(h - h[0])) / (1 + abs(h[0]))

        r = drift(2e-3) / drift(1e-3)
        assert 3.5 <= r <= 4.5

    def test_blowup_raises_with_time(self):
        # focusing sign and large amplitude blow up fast
        ctx = WickContext.create(2, 1.0, 1)
        dyn = DynParams(ctx, 0.5, lam=+50.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as err:
                evolve(*random_state(2, 3, scale=40.0), 10.0, dyn, record_every=1)
        assert err.value.time > 0

    def test_trajectory_validation(self):
        u, v = random_state(2, 0)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.stack([u, u]), np.stack([v, v]))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.stack([u, u]), v[None])
        # stacks at two cutoffs: the lengths align, the shapes do not
        w = random_state(3, 0)[1]
        with pytest.raises(ValueError, match="one shape"):
            Trajectory(np.array([0.0, 1.0]), np.stack([u, u]), np.stack([w, w]))
        with pytest.raises(ValueError, match="half layout"):
            evolve(u, v, 0.1, DynParams(WickContext.create(3, 1.0, 1), 1e-2))


    def test_record_stacks_equal_chained_segments(self):
        # 10 whole steps in spans of 3, 3, 3, 1, then a partial step
        ctx = WickContext.create(3, 1.0, 1)
        dyn = DynParams(ctx, 0.01)
        u, v = random_state(3, 4, scale=0.5)
        traj = evolve(u, v, 0.105, dyn, record_every=3)
        assert traj.u.shape == traj.v.shape == (6, 7, 4)
        assert record_count(0.105, 0.01, 3) == len(traj.times)
        for stack in (traj.u, traj.v):
            assert stack.dtype == complex and stack.flags.c_contiguous
        kick, want_u, want_v = wick_kick(dyn), [u], [v]
        for h, steps in [(0.01, 3)] * 3 + [(0.01, 1), (0.105 - 10 * 0.01, 1)]:
            u, v = engine.run_steps(u, v, 3, 1.0, h, steps, kick)
            want_u.append(u)
            want_v.append(v)
        np.testing.assert_array_equal(traj.u, np.stack(want_u))
        np.testing.assert_array_equal(traj.v, np.stack(want_v))
        np.testing.assert_allclose(traj.times,
                                   [0, 0.03, 0.06, 0.09, 0.1, 0.105])

    def test_records_equal_the_evolve_stacks(self):
        ctx = WickContext.create(3, 1.0, 1)
        dyn = DynParams(ctx, 0.01)
        u, v = random_state(3, 5, scale=0.5)
        traj = evolve(u, v, 0.105, dyn, record_every=3)
        recs = [(t, a.copy(), b.copy())
                for t, a, b in records(u, v, 0.105, dyn, record_every=3)]
        assert [t for t, _, _ in recs] == traj.times.tolist()
        np.testing.assert_array_equal(np.stack([a for _, a, _ in recs]), traj.u)
        np.testing.assert_array_equal(np.stack([b for _, _, b in recs]), traj.v)
        # the arguments are checked on the call, before any record is asked for
        with pytest.raises(ValueError, match="half layout"):
            records(u, v[:-1], 0.105, dyn)
        with pytest.raises(ValueError, match="positive"):
            records(u, v, 0.0, dyn)

    @pytest.mark.parametrize("t_final, dt, every", [
        (0.1, 0.01, 1), (0.1, 0.01, 3), (0.105, 0.01, 3), (0.005, 0.01, 4),
        (0.12, 0.01, 12), (0.12, 0.01, 50)])
    def test_record_count_matches_evolve(self, t_final, dt, every):
        ctx = WickContext.create(1, 1.0, 1)
        traj = evolve(*zero_state(1), t_final, DynParams(ctx, dt),
                      record_every=every)
        assert record_count(t_final, dt, every) == len(traj.times)


class TestHamiltonian:
    def test_zero_state_wick_constant(self):
        ctx = WickContext.create(3, 1.0, 1)
        h = engine.hamiltonian_values(*zero_state(3), ctx)
        assert h == pytest.approx(0.75 * ctx.sigma**2)

    def test_velocity_only_state(self):
        ctx = WickContext.create(3, 1.0, 1)
        u, v = zero_state(3)
        v = v.copy()
        v[3, 0] = 1.0
        h = engine.hamiltonian_values(u, v, ctx)
        assert h == pytest.approx(0.5 + 0.75 * ctx.sigma**2)

    def test_quadratic_part_invariant_under_linear_flow(self):
        u, v = random_state(4, 8)
        e0 = engine.quadratic_energy_values(u, v, 4, 1.3)
        e1 = engine.quadratic_energy_values(*engine.rotate(u, v, 4, 1.3, 2.1), 4, 1.3)
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_default_dt_bounds(self):
        assert default_dt(16, 1.0) <= 1e-2
        assert default_dt(16, 1.0) > 0
