"""Sampling of the Gaussian free-field pair and its exact second-order data.

The reference measure is the product of the massive free-field law for the
position component and spatial white noise for the velocity component.  A
sample at cutoff N is

    u = sum_{|n| <= N} g_{0,n} / sqrt(rho + |n|^2) e^{i n.x},
    v = sum_{|n| <= N} g_{1,n} e^{i n.x},

with independent standard complex Gaussians g_{j,n} (E|g|^2 = 1, components
of variance 1/2) mirrored by conjugation, and real unit-variance zero modes.

Randomness is counter-based: sample ``index`` under master ``seed`` uses a
Philox stream with key ``(seed << 64) + index``, so any subset of samples
can be generated in any order, and in blocks of any size, with identical
results.  Within one sample the draw order is fixed: one block of shape
(4, K, K) of standard normals, rows = (re_u, im_u, re_v, im_v), indexed
like the full coefficient square.  The draws are assembled straight into
the half layout (columns n2 >= 0); no full square is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import _scratch, ball_mask, mode_norms_sq

__all__ = [
    "MuParams",
    "sample_pair_half",
    "sample_free_field",
    "point_variance",
    "covariance_field",
    "chaos_second_moment",
    "chaos_spectrum",
]


@dataclass(frozen=True)
class MuParams:
    """Free-measure parameters: cutoff, mass and the master RNG seed."""

    n_max: int
    rho: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("cutoff must be nonnegative")
        if self.rho <= 0:
            # the massless zero mode has no normalizable law on the torus
            raise ValueError("mass parameter rho must be positive")


def rng_for_sample(seed: int, index: int) -> np.random.Generator:
    """The documented counter-based stream of sample ``index``."""
    if index < 0 or index >= 1 << 64:
        raise ValueError("sample index out of the 64-bit stream range")
    key = (int(seed) % (1 << 64)) << 64 | index
    return np.random.Generator(np.random.Philox(key=key))


# float64 values (2 MiB) held by the largest array of one block of a batched
# sample loop; bounds the working set, so peak memory does not grow with the
# number of samples
_BLOCK_VALUES = 1 << 18


def _block_size(values_per_sample: int) -> int:
    """Samples per block whose largest array holds about _BLOCK_VALUES values.

    Every batched loop reduces over concatenated per-sample arrays and
    every transform acts row by row, so results do not depend on the block
    size.
    """
    return max(1, _BLOCK_VALUES // values_per_sample)


def _sample_block(n_max: int) -> int:
    """The ``_block_size`` of free sampling: one (4, K, K) draw per sample."""
    return _block_size(4 * (2 * n_max + 1) ** 2)


def _free_halves(rngs: list[np.random.Generator], params: MuParams,
                 rows: int = 4, first: int = 0) -> list[np.ndarray]:
    """Free-measure draws in half layout, stacked over the streams ``rngs``.

    Each stream draws one (rows, K, K) standard-normal block, in stream
    order; row pairs (0, 1) make u and (2, 3) make v.  Only the pairs from
    row ``first`` on are assembled into Hermitian unit Gaussians
    g = (re + i im) / sqrt(2): rows n1 > 0 take the draws at n2 >= 0, row
    n1 = 0 those at n2 > 0, rows n1 < 0 the conjugates of the draws at
    (-n1, -n2), and the zero mode is the real draw re(0, 0).  Modes outside
    the ball are assigned zero, and u is scaled by 1 / <n>_rho.
    """
    n = params.n_max
    k = 2 * n + 1
    block = np.empty((len(rngs), rows, k, k))
    for rng, out in zip(rngs, block):
        rng.standard_normal(out=out)
    outside = ~ball_mask(n)[:, n:]
    halves = []
    for j in range(first, rows, 2):
        g = (block[:, j, n:] + 1j * block[:, j + 1, n:]) / np.sqrt(2.0)
        half = np.empty((len(rngs), k, n + 1), dtype=complex)
        half[:, n:] = g[..., n:]
        half[:, :n] = np.conj(g[:, :0:-1, n::-1])
        half[:, n, 0] = block[:, j, n, n]
        half[:, outside] = 0.0
        if j == 0:
            half *= 1.0 / np.sqrt(params.rho + mode_norms_sq(n)[:, n:])
        halves.append(half)
    return halves


def sample_pair_half(params: MuParams, n_samples: int, start_index: int = 0,
                     work: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batched samples in half-spectrum layout (columns n2 >= 0), as
    contiguous (n_samples, K, N+1) arrays: the buffers ``sample_u`` and
    ``sample_v`` of a workspace ``work``, else fresh arrays."""
    k = 2 * params.n_max + 1
    u = _scratch(work, "sample_u", (n_samples, k, params.n_max + 1), complex)
    v = _scratch(work, "sample_v", u.shape, complex)
    step = _sample_block(params.n_max)
    for lo in range(0, n_samples, step):
        hi = min(lo + step, n_samples)
        rngs = [rng_for_sample(params.seed, start_index + i) for i in range(lo, hi)]
        u[lo:hi], v[lo:hi] = _free_halves(rngs, params)
    return u, v


def sample_free_field(params: MuParams,
                      index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Half-layout (u, v) of the free-measure sample ``index`` under params.seed."""
    u, v = sample_pair_half(params, 1, index)
    return u[0], v[0]


def point_variance(n_cut: int, rho: float) -> float:
    """Pointwise variance of the cutoff free field: sum_{|n|<=N} 1/(rho+|n|^2).

    Grows like log N; this is the variance parameter used by every Wick
    power at cutoff N.
    """
    if rho <= 0:
        raise ValueError("mass parameter rho must be positive")
    if n_cut < 0:
        raise ValueError("cutoff must be nonnegative")
    w = 1.0 / (rho + mode_norms_sq(n_cut))
    return float(np.sum(w[ball_mask(n_cut)]))


def covariance_field(n_cut: int, rho: float) -> np.ndarray:
    """Fourier coefficients of the covariance kernel of the cutoff free field.

    A real (K, K) square: 1/(rho + |n|^2) inside the ball, zero outside.
    The kernel is real and even, and its value at x = 0 is the point
    variance.
    """
    if rho <= 0:
        raise ValueError("mass parameter rho must be positive")
    gam = 1.0 / (rho + mode_norms_sq(n_cut))
    gam[~ball_mask(n_cut)] = 0.0
    return gam


def _convolve_ball(table: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """Full 2-d convolution of table with the covariance square gam.

    A direct sum: one shifted, scaled copy of table per nonzero entry of
    gam (the ball |n| <= N), so every entry is an exact finite sum of
    products.  The entries run in descending order, which accumulates
    each output in ascending order of the index into table.
    """
    (r, c), k = table.shape, gam.shape[0]
    out = np.zeros((r + k - 1, c + k - 1))
    for i, j in reversed(list(zip(*np.nonzero(gam)))):
        out[i : i + r, j : j + c] += gam[i, j] * table
    return out


@lru_cache(maxsize=None)
def _chaos_table(ell: int, n_cut: int, rho: float) -> np.ndarray:
    """ell! times the ell-fold self-convolution of the covariance coefficients.

    Computed by iterated direct convolution on the square [-ell*N, ell*N]^2,
    which is exact (no truncation) for band-limited input.
    """
    gam = covariance_field(n_cut, rho)
    table = gam
    for _ in range(ell - 1):
        table = _convolve_ball(table, gam)
    return float(math.factorial(ell)) * table


def chaos_spectrum(ell: int, n_cut: int, rho: float) -> np.ndarray:
    """Second moments E|<wick power of degree ell, e_n>|^2 on [-ell*N, ell*N]^2.

    Entry [i, j] corresponds to the mode (i - ell*N, j - ell*N).  These are
    the exact per-mode second moments of the degree-ell Wick power of the
    cutoff free field, independent of time along the linear flow.
    """
    if ell < 1:
        raise ValueError("chaos degree must be >= 1")
    return _chaos_table(ell, n_cut, float(rho)).copy()


def chaos_second_moment(ell: int, n_cut: int, rho: float,
                        n: tuple[int, int]) -> float:
    """Exact E|<degree-ell Wick power, e_n>|^2; zero for |n| > ell * N."""
    if ell < 1:
        raise ValueError("chaos degree must be >= 1")
    radius = ell * n_cut
    n1, n2 = int(n[0]), int(n[1])
    if abs(n1) > radius or abs(n2) > radius:
        return 0.0
    table = _chaos_table(ell, n_cut, float(rho))
    return float(table[n1 + radius, n2 + radius])
