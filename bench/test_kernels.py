"""Engine and fields kernels against a direct full-grid numpy.fft evaluation.

The reference builds the full Hermitian coefficient square, evaluates the
field on an alias-free grid with numpy.fft, applies the closed-form
Hermite polynomials and analyses back, all independently of wicknlw's own
transforms.  ``engine.wick_force`` returns a shared scratch buffer, so every
result is copied before the next call.
"""

import numpy as np
import pytest

from wicknlw import engine
from wicknlw.fields import grid_from_half, half_from_grid
from wicknlw.wick import WickContext
from workloads import covariance_ball, point_variance

N, RHO, BATCH = 8, 1.0, 3
RTOL = 1e-10
BALL = covariance_ball(N, RHO) > 0
SIGMA = point_variance(N, RHO)


def random_full(seed: int) -> np.ndarray:
    """Seeded Hermitian coefficient squares supported on the ball |n| <= N."""
    rng = np.random.default_rng(seed)
    k = 2 * N + 1
    c = rng.standard_normal((BATCH, k, k)) + 1j * rng.standard_normal((BATCH, k, k))
    c = 0.5 * (c + np.conj(c[:, ::-1, ::-1]))
    return np.where(BALL, c, 0.0) * 0.3


def grid_values(full: np.ndarray, m: int) -> np.ndarray:
    """sum_n c_n e^{i n.x} on the m x m grid by a dense numpy inverse FFT."""
    spec = np.zeros(full.shape[:-2] + (m, m), dtype=complex)
    idx = np.arange(-N, N + 1) % m
    spec[..., idx[:, None], idx[None, :]] = full
    vals = np.fft.ifft2(spec) * (m * m)
    assert np.max(np.abs(vals.imag)) < 1e-12 * np.max(np.abs(vals.real))
    return vals.real


def ball_half(values: np.ndarray) -> np.ndarray:
    """Coefficients of a real grid on |n| <= N, columns n2 >= 0."""
    m = values.shape[-1]
    spec = np.fft.fft2(values) / (m * m)
    idx = np.arange(-N, N + 1) % m
    full = spec[..., idx[:, None], idx[None, :]]
    return np.where(BALL, full, 0.0)[..., :, N:]


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("seed", [11, 12])
def test_wick_force_matches_direct_projection(seed):
    ctx = WickContext.create(N, RHO, 1)
    full = random_full(seed)
    g = grid_values(full, 40)  # M > 4N: the cubic's retained modes are exact
    want = ball_half(g ** 3 - 3.0 * SIGMA * g)
    got = engine.wick_force(full[..., :, N:], ctx).copy()
    assert rel_err(got, want) <= RTOL
    # a second call on other data must not change the copied first result
    other = engine.wick_force(random_full(seed + 100)[..., :, N:], ctx).copy()
    assert rel_err(got, want) <= RTOL
    assert rel_err(other, want) > 1e-3


@pytest.mark.parametrize("seed", [21, 22])
def test_wick_potential_matches_direct_mean(seed):
    ctx = WickContext.create(N, RHO, 1)
    full = random_full(seed)
    g = grid_values(full, 48)  # M > 5N: the quartic's mean is exact
    h4 = g ** 4 - 6.0 * SIGMA * g ** 2 + 3.0 * SIGMA ** 2
    want = h4.mean(axis=(-2, -1)) / 4.0
    got = np.array(engine.wick_potential_values(full[..., :, N:], ctx))
    assert rel_err(got, want) <= RTOL


@pytest.mark.parametrize("m_grid", [17, 36, 45])
def test_fields_transforms_match_numpy_fft(m_grid):
    full = random_full(31)
    half = full[..., :, N:]
    g = grid_from_half(half, m_grid).copy()
    assert rel_err(g, grid_values(full, m_grid)) <= RTOL
    back = half_from_grid(g, N).copy()
    assert rel_err(back, ball_half(grid_values(full, m_grid))) <= RTOL
    assert rel_err(back, half) <= RTOL
