"""Engine kernels and the fields transforms against direct trigonometric sums.

The oracle evaluates sum_n c_n e^{i n.x} and the node averages
mean_x f(x) e^{-i n.x} as explicit sums over modes and nodes, independently
of the factored per-axis products in ``wicknlw.fields``, so it checks the
one transform pair that every kernel runs through.
"""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from conftest import random_field
from wicknlw import WickContext, engine
from wicknlw.fields import ball_mask, grid_from_half, half_from_full, half_from_grid

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
    return np.stack([random_field(N, 41).coeffs, random_field(N, 42).coeffs])


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
    full = np.stack([random_field(n_max, 41).coeffs, random_field(n_max, 42).coeffs])
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


def test_run_steps_rows_are_independent_of_the_block(monkeypatch):
    # the HMC trajectory and invariance_test step in blocks of step_rows
    ctx = WickContext.create(8, RHO, 1)
    rng = np.random.default_rng(12)
    u = half_from_full(np.stack([random_field(8, s, 0.3).coeffs for s in range(64)]))
    v = u * rng.standard_normal(u.shape)
    kick = lambda x: -engine.wick_force(x, ctx)
    whole = engine.run_steps(u, v, 8, RHO, 1e-3, 7, kick)
    halves = [engine.run_steps(u[s], v[s], 8, RHO, 1e-3, 7, kick)
              for s in (slice(0, 32), slice(32, 64))]
    for j in range(2):
        np.testing.assert_array_equal(
            whole[j], np.concatenate([h[j] for h in halves]))
    # 64 rows in blocks of 24: two full blocks and a partial one
    monkeypatch.setattr(engine, "step_rows", lambda ctx: 24)
    blocked = engine.run_steps_blocked(u, v, ctx, 1e-3, 7, kick)
    for j in range(2):
        np.testing.assert_array_equal(whole[j], blocked[j])


def test_step_rows_follows_the_block_rule():
    # 2 M^2 + 4 M (N+1) + 6 K (N+1) = 4284 values per row at N = 8, M = 33
    assert engine.step_rows(WickContext.create(8, RHO, 1)) == (1 << 18) // 4284 == 61
