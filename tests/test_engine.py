"""Engine kernels and the fields transforms against direct trigonometric sums.

The oracle evaluates sum_n c_n e^{i n.x} and the node averages
mean_x f(x) e^{-i n.x} as explicit sums over modes and nodes, independently
of the factored per-axis products in ``wicknlw.fields``, so it checks the
one transform pair that every kernel runs through.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from conftest import half_from_full, random_field
from wicknlw import NONLINEARITIES, DynParams, MuParams, WickContext, engine
from wicknlw.dynamics import wick_kick
from wicknlw.experiments import scaled_force_fn
from wicknlw.fields import (_scratch, ball_mask, grid_from_half, half_from_grid,
                            sobolev_norm)
from wicknlw.free_field import sample_pair_half
from wicknlw.wick import wick_power

N, RHO = 3, 1.0
RTOL = 1e-10


def _characters(n_max: int, m_grid: int) -> np.ndarray:
    """e^{i n.x_j} with axes (j1, j2, n1, n2) on the m_grid x m_grid nodes."""
    x = 2.0 * np.pi * np.arange(m_grid) / m_grid
    n = np.arange(-n_max, n_max + 1)
    e = np.exp(1j * np.outer(x, n))  # (node, mode) along one axis
    return e[:, None, :, None] * e[None, :, None, :]


def direct_grid(full: np.ndarray, m_grid: int) -> np.ndarray:
    """sum_n c_n e^{i n.x} at every node, by the explicit double sum."""
    n_max = (full.shape[-1] - 1) // 2
    vals = np.einsum("abij,...ij->...ab", _characters(n_max, m_grid), full)
    assert np.max(np.abs(vals.imag)) < 1e-12 * np.max(np.abs(vals.real))
    return vals.real


def direct_half(values: np.ndarray, n_max: int) -> np.ndarray:
    """Node average of f e^{-i n.x} on the ball |n| <= n_max, columns n2 >= 0."""
    m_grid = values.shape[-1]
    coeffs = np.einsum("abij,...ab->...ij", np.conj(_characters(n_max, m_grid)),
                       values) / (m_grid * m_grid)
    return half_from_full(np.where(ball_mask(n_max), coeffs, 0.0))


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture
def full():
    """A batch of two seeded random fields, as full coefficient squares."""
    return np.stack([random_field(N, 41), random_field(N, 42)])


@pytest.mark.parametrize("m_grid", [7, 16, 33, 41])
def test_transforms_match_trigonometric_sums(full, m_grid):
    half = half_from_full(full)
    g = direct_grid(full, m_grid)
    assert rel_err(grid_from_half(half, m_grid), g) <= RTOL
    # a non-band-limited grid function exercises the analysis on its own
    f = np.sin(g) + g ** 2
    assert rel_err(half_from_grid(f, N), direct_half(f, N)) <= RTOL
    assert rel_err(half_from_grid(g, N), half) <= RTOL


@pytest.mark.parametrize("m_grid", [1, 4, 5])
def test_transforms_at_zero_cutoff(m_grid):
    # N = 0 keeps only the constant mode: a 1 x 1 half spectrum
    full = np.array([[[1.5 + 0j]], [[-0.25 + 0j]]])
    assert rel_err(grid_from_half(full, m_grid), direct_grid(full, m_grid)) <= RTOL
    f = np.cos(np.arange(m_grid * m_grid).reshape(m_grid, m_grid)) + 2.0
    assert rel_err(half_from_grid(f, 0), direct_half(f, 0)) <= RTOL


@pytest.mark.parametrize("n_max, m_grid", [(8, 33), (16, 97), (64, 321)])
def test_transforms_are_row_wise_across_batch_sizes(n_max, m_grid):
    # blocked Monte Carlo loops rely on every row being computed the same
    # way whatever else shares its call, down to the last bit
    rng = np.random.default_rng(n_max)
    k = 2 * n_max + 1
    half = rng.standard_normal((202, k, n_max + 1)) + 1j * rng.standard_normal(
        (202, k, n_max + 1))
    half *= ball_mask(n_max)[:, n_max:]
    back = np.stack([half_from_grid(grid_from_half(h, m_grid), n_max) for h in half])
    for size in (1, 3, 16, 202):
        for lo in range(0, len(half), size):
            g = grid_from_half(half[lo : lo + size], m_grid)
            for i, row in enumerate(g):
                np.testing.assert_array_equal(row, grid_from_half(half[lo + i], m_grid))
            np.testing.assert_array_equal(half_from_grid(g, n_max), back[lo : lo + size])


def test_wick_force_matches_trigonometric_sums(full):
    ctx = WickContext.create(N, RHO, 1)
    g = direct_grid(full, 16)  # M > 4N: the cubic's retained modes are exact
    want = direct_half(g ** 3 - 3.0 * ctx.sigma * g, N)
    assert rel_err(engine.wick_force(half_from_full(full), ctx), want) <= RTOL


@pytest.mark.parametrize("n_max", [0, 1, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_wick_potential_matches_trigonometric_sums(m, n_max):
    # the kernel runs on the force grid (2m + 2) N + 1; the oracle on a grid
    # twice as fine, where every mode of the degree-(2m+2) product is exact
    ctx = WickContext.create(n_max, RHO, m)
    deg, s = 2 * m + 2, ctx.sigma
    full = np.stack([random_field(n_max, 41), random_field(n_max, 42)])
    g = direct_grid(full, 2 * deg * n_max + 5)
    h = s ** (deg / 2) * hermeval(g / np.sqrt(s), [0.0] * deg + [1.0])
    want = np.mean(h, axis=(-2, -1)) / deg
    got = engine.wick_potential_values(half_from_full(full), ctx)
    assert rel_err(got, want) <= RTOL


def test_wick_force_returns_fresh_arrays(full):
    # two calls with one batch shape must not share their result's memory
    ctx = WickContext.create(N, RHO, 1)
    half = half_from_full(full)
    a = engine.wick_force(half, ctx)
    a_before = a.copy()
    b = engine.wick_force(2.0 * half, ctx)
    assert a is not b
    np.testing.assert_array_equal(a, a_before)


def _run_blocks(u, v, dt, n_steps, kick, work=None):
    """run_steps on blocks of 8 rows of (u, v), restacked: 30 rows split
    (8, 8, 8, 6) like the Gibbs chains and invariance_test at step_rows 8."""
    parts = [engine.run_steps(u[lo : lo + 8], v[lo : lo + 8], 8, RHO, dt,
                              n_steps, kick, work)
             for lo in range(0, len(u), 8)]
    return tuple(np.concatenate([p[j] for p in parts]) for j in range(2))


def test_run_steps_rows_are_independent_of_the_block():
    # the HMC trajectory and invariance_test step in blocks of step_rows
    ctx = WickContext.create(8, RHO, 1)
    rng = np.random.default_rng(12)
    u = half_from_full(np.stack([random_field(8, s, 0.3) for s in range(30)]))
    v = u * rng.standard_normal(u.shape)
    kick = lambda x: -engine.wick_force(x, ctx)
    whole = engine.run_steps(u, v, 8, RHO, 1e-3, 7, kick)
    halves = [engine.run_steps(u[s], v[s], 8, RHO, 1e-3, 7, kick)
              for s in (slice(0, 15), slice(15, 30))]
    blocked = _run_blocks(u, v, 1e-3, 7, kick)
    for j in range(2):
        np.testing.assert_array_equal(
            whole[j], np.concatenate([h[j] for h in halves]))
        np.testing.assert_array_equal(whole[j], blocked[j])


def test_step_rows_follows_the_block_rule():
    # 2 M^2 + 4 M (N+1) + 6 K (N+1) = 4284 values per row at N = 8, M = 33
    assert engine.step_rows(WickContext.create(8, RHO, 1)) == (1 << 18) // 4284 == 61


def _state_rows(rows, n_max=8, seed=12):
    u, v = sample_pair_half(MuParams(n_max, RHO, seed=seed), rows)
    return u, v


def _force_builders(ctx):
    return {
        "wick_kick": lambda work=None: wick_kick(DynParams(ctx, 1e-3), work),
        "scaled_force": lambda work=None: scaled_force_fn(
            NONLINEARITIES["sin"], 0.125, RHO, work),
    }


@pytest.mark.parametrize("name", ["scaled_force", "wick_kick"])
def test_workspace_force_returns_its_buffer_with_fresh_bits(name):
    ctx = WickContext.create(8, RHO, 1)
    u, _ = _state_rows(4)
    build = _force_builders(ctx)[name]
    force, fresh = build({}), build()
    a = force(u)
    b = force(2.0 * u)
    assert b is a
    np.testing.assert_array_equal(b, fresh(2.0 * u))
    np.testing.assert_array_equal(force(u), fresh(u))


def _fresh_kernels():
    ctx = WickContext.create(8, RHO, 1)
    u, _ = _state_rows(3)
    g = grid_from_half(u, ctx.m_grid)
    scaled = scaled_force_fn(NONLINEARITIES["sin"], 0.125, RHO)
    return {
        "wick_force": (lambda x: engine.wick_force(x, ctx), u),
        "grid_from_half": (lambda x: grid_from_half(x, ctx.m_grid), u),
        "half_from_grid": (lambda x: half_from_grid(x, 8), g),
        "scaled_force": (scaled, u),
    }


@pytest.mark.parametrize("name", sorted(_fresh_kernels()))
def test_kernels_without_workspace_return_fresh_arrays(name):
    # no result shares memory with another call's result or with the input
    fn, x = _fresh_kernels()[name]
    a = fn(x)
    a_before = a.copy()
    b = fn(2.0 * x)
    assert not np.shares_memory(a, b) and not np.shares_memory(a, x)
    np.testing.assert_array_equal(a, a_before)


def test_run_steps_peak_does_not_grow_with_the_steps():
    # with a warm workspace a segment holds its two fresh results, and per
    # step only numpy's ufunc buffers (8192 values per operand): 1 and 40
    # steps peak alike at 61 rows, far below one step's force grids
    ctx = WickContext.create(8, RHO, 1)
    assert engine.step_rows(ctx) == 61
    u, v = _state_rows(61)
    work = {}
    kick = wick_kick(DynParams(ctx, 1e-3), work)
    engine.run_steps(u, v, 8, RHO, 1e-3, 1, kick, work)

    def peak(n_steps):
        tracemalloc.start()
        try:
            engine.run_steps(u, v, 8, RHO, 1e-3, n_steps, kick, work)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, forty = peak(1), peak(40)
    assert forty <= one + 4096, (one, forty)
    assert forty <= 2 * u.nbytes + 2 * 8192 * 16 + 4096, (forty, u.nbytes)


def test_shared_workspace_is_bit_equal_to_fresh_calls():
    # one workspace across segments of two step sizes and two block shapes
    ctx = WickContext.create(8, RHO, 1)
    u, v = _state_rows(30)
    work = {}
    kick, fresh = wick_kick(DynParams(ctx, 1e-3), work), wick_kick(DynParams(ctx, 1e-3))
    for dt, steps in ((1e-3, 3), (4e-4, 1), (1e-3, 4)):
        want = engine.run_steps(u, v, 8, RHO, dt, steps, fresh)
        got = engine.run_steps(u, v, 8, RHO, dt, steps, kick, work)
        for j in range(2):
            np.testing.assert_array_equal(got[j], want[j])
        u, v = got
    want = _run_blocks(u, v, 1e-3, 5, fresh)
    got = _run_blocks(u, v, 1e-3, 5, kick, work)
    for j in range(2):
        np.testing.assert_array_equal(got[j], want[j])
    # zero steps hand back the inputs themselves
    for same, given in zip(engine.run_steps(u, v, 8, RHO, 1e-3, 0, kick, work),
                           (u, v)):
        assert same is given
    np.testing.assert_array_equal(engine.wick_potential_values(u, ctx, work),
                                  engine.wick_potential_values(u, ctx))


def test_short_blocks_reuse_the_full_blocks_buffers(monkeypatch):
    # 30 rows in blocks of 8 end in a 6-row block; it runs on leading-row
    # views of the 8-row buffers, so blocked steps and potentials of any
    # row count keep the workspace they made on the first full block
    ctx = WickContext.create(8, RHO, 1)
    monkeypatch.setattr(engine, "step_rows", lambda ctx: 8)
    u, v = _state_rows(30)
    work = {}
    kick = wick_kick(DynParams(ctx, 1e-3), work)
    _run_blocks(u, v, 1e-3, 2, kick, work)
    engine.wick_potential_values(u, ctx, work)
    buffers = {k: b for k, b in work.items() if isinstance(b, np.ndarray)}
    assert {len(b) for b in buffers.values()} == {8}
    for rows in (30, 6, 17):
        _run_blocks(u[:rows], v[:rows], 1e-3, 2, kick, work)
        engine.wick_potential_values(u[:rows], ctx, work)
        assert all(work[k] is b for k, b in buffers.items())


def test_workspace_buffer_serves_every_shape_that_fits():
    # a large shape, a smaller one with other trailing axes, the large one
    # again: all three are views of the one allocation made first
    work = {}
    big = _scratch(work, "grid", (4, 9, 9))
    small = _scratch(work, "grid", (3, 5, 7))
    assert small.shape == (3, 5, 7) and np.shares_memory(small, big)
    assert work["grid"] is big
    assert _scratch(work, "grid", (4, 9, 9)) is big
    # more elements or another dtype make a new buffer
    assert not np.shares_memory(_scratch(work, "grid", (5, 9, 9)), big)
    assert _scratch(work, "grid", (2, 3), complex).dtype == complex


def test_workspace_names_never_share_memory():
    # the buffers that a Wick power (grid 49 at N = 8, degree 3), a force
    # (grid 33), a Strang segment and the chaos study's sampling, rotation
    # and norm leave in one workspace are pairwise disjoint
    ctx = WickContext.create(8, RHO, 1)
    work = {}
    u, v = sample_pair_half(MuParams(8, RHO, seed=12), 5, 0, work)
    z, _ = engine.rotate(u, v, RHO, 0.3, work)
    sobolev_norm(wick_power(z, 3, ctx.sigma, work), -0.25, work)
    engine.wick_force(u, ctx, work)
    engine.run_steps(u, v, 8, RHO, 1e-3, 2, wick_kick(DynParams(ctx, 1e-3), work),
                     work)
    buffers = list(work.items())
    assert all(isinstance(b, np.ndarray) for _, b in buffers)
    assert {"sample_u", "rotate_u", "half", "norm", "step_u"} <= dict(buffers).keys()
    for i, (name_a, a) in enumerate(buffers):
        for name_b, b in buffers[i + 1:]:
            assert not np.shares_memory(a, b), (name_a, name_b)


def test_scratch_without_workspace_is_a_fresh_array():
    a = _scratch(None, "grid", (3, 4))
    b = _scratch(None, "grid", (3, 4))
    c = _scratch(None, "grid", (2, 5), complex)
    assert (a.shape, a.dtype, c.shape, c.dtype) == ((3, 4), float, (2, 5), complex)
    assert not np.shares_memory(a, b)


def test_wick_force_rejects_a_state_of_another_cutoff():
    u, _ = _state_rows(3)
    with pytest.raises(ValueError, match="cutoff 8 given at cutoff 4"):
        engine.wick_force(u, WickContext.create(4, RHO, 1))


def test_wick_potential_rejects_a_state_of_another_cutoff():
    # sigma_4 on the N = 4 grid, which aliases a cutoff-8 state
    u, v = _state_rows(3)
    ctx = WickContext.create(4, RHO, 1)
    with pytest.raises(ValueError, match="cutoff 8 given at cutoff 4"):
        engine.wick_potential_values(u, ctx)
    with pytest.raises(ValueError, match="cutoff 8 given at cutoff 4"):
        engine.hamiltonian_values(u, v, ctx)


def test_wick_mass_rejects_a_state_of_another_cutoff():
    u, _ = _state_rows(3)
    with pytest.raises(ValueError, match="cutoff 8 given at cutoff 0"):
        engine.wick_mass_values(u, WickContext.create(0, RHO, 1))


def test_run_steps_rejects_a_state_of_another_cutoff():
    # n_max selects the rotation table: at 0 every mode would turn at sqrt(rho)
    u, v = _state_rows(3)
    kick = wick_kick(DynParams(WickContext.create(8, RHO, 1), 1e-3))
    with pytest.raises(ValueError, match="cutoff 8 given at cutoff 0"):
        engine.run_steps(u, v, 0, RHO, 1e-3, 5, kick)


def test_pair_kernels_reject_a_v_of_another_shape():
    # each of these v broadcasts against u, so without the check each
    # call would return results of u's shape
    u, v = _state_rows(3)
    assert u.shape == (3, 17, 9)
    kick = wick_kick(DynParams(WickContext.create(8, RHO, 1), 1e-3))
    msg = r"v of shape .* paired with u of shape \(3, 17, 9\)"
    with pytest.raises(ValueError, match=msg):
        engine.run_steps(u, v[:, :1, :1], 8, RHO, 1e-3, 5, kick)
    with pytest.raises(ValueError, match=msg):
        engine.run_steps(u, v[:, :1, :1], 8, RHO, 1e-3, 0, kick)
    with pytest.raises(ValueError, match=msg):
        engine.rotate(u, v[0], RHO, 0.3)
    with pytest.raises(ValueError, match=msg):
        engine.quadratic_energy_values(u, v[:, :1, :1], RHO)
    with pytest.raises(ValueError, match=msg):
        engine.hamiltonian_values(u, v[0], WickContext.create(8, RHO, 1))


@pytest.mark.parametrize("t", [0.3, 1e-3])
def test_rotate_is_a_step_without_kicks(t):
    # the free flow and a one-step segment with a zero force read one
    # rotation table
    u, v = _state_rows(3)
    zero_force = lambda x: np.zeros_like(x)
    got = engine.rotate(u, v, RHO, t)
    want = engine.run_steps(u, v, 8, RHO, t, 1, zero_force)
    for j in range(2):
        np.testing.assert_array_equal(got[j], want[j])


def test_rotation_table_is_read_only_and_bounded():
    table = engine._rotation(8, RHO, 0.3)
    assert engine._rotation(8, RHO, 0.3) is table
    assert not any(a.flags.writeable for a in table)
    assert engine._rotation.cache_info().maxsize == 32
