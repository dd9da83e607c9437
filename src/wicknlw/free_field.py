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
can be generated in any order, on any number of workers, with identical
results.  Within one sample the draw order is fixed: one block of shape
(4, K, K) of standard normals, rows = (re_u, im_u, re_v, im_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (SpectralField, _lattice, ball_mask, half_from_full,
                     mode_norms_sq)

__all__ = [
    "MuParams",
    "PhaseState",
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


@dataclass(frozen=True)
class PhaseState:
    """A position/velocity pair (u, v) sharing cutoff and mass parameter."""

    u: SpectralField
    v: SpectralField
    rho: float

    def __post_init__(self) -> None:
        if self.u.n_max != self.v.n_max:
            raise ValueError("u and v must share the same cutoff")
        if self.rho <= 0:
            raise ValueError("mass parameter rho must be positive")

    @property
    def n_max(self) -> int:
        return self.u.n_max

    def __neg__(self) -> "PhaseState":
        return PhaseState(-self.u, -self.v, self.rho)


def rng_for_sample(seed: int, index: int) -> np.random.Generator:
    """The documented counter-based stream of sample ``index``."""
    if index < 0 or index >= 1 << 64:
        raise ValueError("sample index out of the 64-bit stream range")
    key = (int(seed) % (1 << 64)) << 64 | index
    return np.random.Generator(np.random.Philox(key=key))


def _hermitian_unit_gaussians(block_re: np.ndarray, block_im: np.ndarray,
                              n_max: int) -> np.ndarray:
    """Assemble conjugate-symmetric complex Gaussians with E|g|^2 = 1.

    Independent draws live on the lexicographically positive half lattice
    (n1 > 0, or n1 = 0 and n2 > 0); the rest is the conjugate mirror and the
    zero mode is real.
    """
    nx, ny, ball = _lattice(n_max)
    g = (block_re + 1j * block_im) / np.sqrt(2.0)
    out = np.zeros_like(g)
    pos = (nx > 0) | ((nx == 0) & (ny > 0))
    out[..., pos] = g[..., pos]
    out[..., ::-1, ::-1][..., pos] = np.conj(g[..., pos])
    out[..., n_max, n_max] = block_re[..., n_max, n_max]
    out[..., ~ball] = 0.0
    return out


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


def _hermitian_draws(rngs: list[np.random.Generator], n_max: int,
                     rows: int) -> list[np.ndarray]:
    """One (rows, K, K) standard-normal block per stream, in stream order,
    assembled into rows // 2 stacked Hermitian unit-Gaussian squares.

    Only the draws run per stream; the assembly runs once on the batch.
    """
    k = 2 * n_max + 1
    block = np.empty((len(rngs), rows, k, k))
    for rng, out in zip(rngs, block):
        rng.standard_normal(out=out)
    return [_hermitian_unit_gaussians(block[:, j], block[:, j + 1], n_max)
            for j in range(0, rows, 2)]


def _sample_pair_arrays(params: MuParams, n_samples: int,
                        start_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Raw (u, v) coefficient squares for samples start .. start+n_samples-1."""
    k = 2 * params.n_max + 1
    u = np.empty((n_samples, k, k), dtype=complex)
    v = np.empty_like(u)
    step = _block_size(4 * k * k)
    for lo in range(0, n_samples, step):
        hi = min(lo + step, n_samples)
        rngs = [rng_for_sample(params.seed, start_index + i) for i in range(lo, hi)]
        u[lo:hi], v[lo:hi] = _hermitian_draws(rngs, params.n_max, 4)
    u *= 1.0 / np.sqrt(params.rho + mode_norms_sq(params.n_max))
    return u, v


def sample_pair_half(params: MuParams, n_samples: int,
                     start_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Batched samples in half-spectrum layout (columns n2 >= 0)."""
    u, v = _sample_pair_arrays(params, n_samples, start_index)
    return half_from_full(u), half_from_full(v)


def sample_free_field(params: MuParams, index: int = 0) -> PhaseState:
    """Draw the free-measure sample with the given index under params.seed."""
    u, v = _sample_pair_arrays(params, 1, index)
    return PhaseState(
        SpectralField(params.n_max, u[0]),
        SpectralField(params.n_max, v[0]),
        params.rho,
    )


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


def covariance_field(n_cut: int, rho: float) -> SpectralField:
    """Covariance kernel of the cutoff free field as a spectral field.

    The coefficient at n is 1/(rho + |n|^2) inside the ball, zero outside;
    the kernel is real, even, and its value at x = 0 is the point variance.
    """
    if rho <= 0:
        raise ValueError("mass parameter rho must be positive")
    c = (1.0 / (rho + mode_norms_sq(n_cut))).astype(complex)
    c[~ball_mask(n_cut)] = 0.0
    return SpectralField(n_cut, c)


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
    gam = 1.0 / (rho + mode_norms_sq(n_cut))
    gam[~ball_mask(n_cut)] = 0.0
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
