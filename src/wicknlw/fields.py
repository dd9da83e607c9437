"""Real scalar fields on the 2-torus: half spectra, transforms, projection, norms.

Conventions used throughout the package:

* The torus is the 2*pi-periodic square with the *normalized* measure
  dx / (2*pi)^2, so the characters e^{i n.x}, n in Z^2, are orthonormal
  and every integral over the torus is a plain average over grid nodes.
* A field with cutoff ``n_max`` has complex coefficients on the square
  ``{|n_i| <= n_max}``; only modes inside the Euclidean ball
  ``|n| <= n_max`` may be nonzero.  Reality of the field is encoded as
  Hermitian symmetry ``c(-n) = conj(c(n))``, so the columns n2 >= 0 of the
  square, shape (2 n_max + 1, n_max + 1), determine it.  This half
  spectrum, batched over leading axes, is how every study, sampler and
  kernel stores a field; the full square appears only in
  :class:`SpectralField`, the type of field dumps.
* Collocation grids are uniform M x M grids on [0, 2*pi)^2.  A grid is
  alias-free for a product of degree p of cutoff-N fields whenever
  ``M > (p + 1) * N``; helper :func:`alias_free_grid` returns the smallest
  size satisfying that bound.
* Transforms are per-axis DFT matrix products on the half spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralField",
    "mode_norms_sq",
    "ball_mask",
    "alias_free_grid",
    "half_from_full",
    "full_from_half",
    "half_weights",
    "grid_from_half",
    "half_from_grid",
    "project",
    "sobolev_norm",
]


@lru_cache(maxsize=None)
def _lattice(n_max: int):
    """Mode index grids and the Euclidean-ball mask for cutoff n_max."""
    n1 = np.arange(-n_max, n_max + 1)
    nx, ny = np.meshgrid(n1, n1, indexing="ij")
    ball = nx * nx + ny * ny <= n_max * n_max
    for a in (nx, ny, ball):
        a.setflags(write=False)
    return nx, ny, ball


def mode_norms_sq(n_max: int) -> np.ndarray:
    """|n|^2 on the coefficient square of a cutoff-n_max field."""
    nx, ny, _ = _lattice(n_max)
    return (nx * nx + ny * ny).astype(float)


def ball_mask(n_max: int) -> np.ndarray:
    return _lattice(n_max)[2]


def alias_free_grid(n_max: int, degree: int) -> int:
    """Smallest grid size M > (degree + 1) * n_max (and at least 4).

    On such a grid the retained coefficients ``|n| <= n_max`` of a pointwise
    product of ``degree`` cutoff-n_max fields are exact (no aliased images).
    """
    return max((degree + 1) * n_max + 1, 4)


# ---------------------------------------------------------------------------
# half-spectrum kernels
#
# A Hermitian coefficient square (K, K) is equivalent to its columns n2 >= 0,
# shape (K, n_max + 1), the half spectrum that every transform reads and
# writes.  Batched arrays carry leading dimensions untouched, and every row
# of a batch is computed exactly as it would be on its own.
# ---------------------------------------------------------------------------


def half_from_full(coeffs: np.ndarray) -> np.ndarray:
    """Columns n2 in [0, n_max] of a full Hermitian coefficient square."""
    n_max = (coeffs.shape[-1] - 1) // 2
    return coeffs[..., :, n_max:]


def full_from_half(half: np.ndarray) -> np.ndarray:
    """Rebuild the full square from the n2 >= 0 columns by conjugate mirror."""
    k = half.shape[-2]
    n_max = (k - 1) // 2
    full = np.empty(half.shape[:-1] + (k,), dtype=complex)
    full[..., :, n_max:] = half
    full[..., :, :n_max] = np.conj(half[..., ::-1, :0:-1])
    return full


@lru_cache(maxsize=None)
def half_weights(n_max: int) -> np.ndarray:
    """Parseval column weights of the half layout: 1 for n2 = 0, else 2."""
    colw = np.full(n_max + 1, 2.0)
    colw[0] = 1.0
    colw.setflags(write=False)
    return colw


@lru_cache(maxsize=None)
def _dft_factors(n_max: int, m_grid: int):
    """Per-axis DFT factors, built once per (N, M): e1[j, k] = e^{i n1_k x_j}
    for both directions along n1, and real [cos; -sin] n2 tables acting on
    re/im-interleaved float views, with the 2 - delta_{n2,0} half-spectrum
    weights (synthesis) and the 1 / M^2 node average (analysis) folded in.
    """
    j = np.arange(m_grid)
    n1 = np.arange(-n_max, n_max + 1)
    n2 = np.arange(n_max + 1)
    e1 = np.exp(2j * np.pi * (np.outer(j, n1) % m_grid) / m_grid)  # phases mod M
    arg2 = 2.0 * np.pi * (np.outer(n2, j) % m_grid) / m_grid
    syn2 = np.empty((2 * n_max + 2, m_grid))
    syn2[0::2], syn2[1::2] = np.cos(arg2), -np.sin(arg2)
    ana2 = np.ascontiguousarray(syn2.T) / (m_grid * m_grid)
    syn2[2:] *= 2.0
    for t in (e1, syn2, ana2):
        t.setflags(write=False)
    return e1, syn2, ana2


def grid_from_half(half: np.ndarray, m_grid: int) -> np.ndarray:
    """Evaluate sum_n c_n e^{i n.x} on the M x M grid (result is real)."""
    n_max = (half.shape[-2] - 1) // 2
    if m_grid <= 2 * n_max:
        raise ValueError(
            f"grid size {m_grid} aliases a cutoff-{n_max} field; need M > {2 * n_max}"
        )
    e1, syn2, _ = _dft_factors(n_max, m_grid)
    return np.matmul(np.matmul(e1, half).view(float), syn2)


def half_from_grid(values: np.ndarray, n_max: int) -> np.ndarray:
    """Discrete Fourier analysis of a real grid, kept on |n| <= n_max.

    Uses the normalized inner product (plain average over nodes), so it is
    the exact inverse of :func:`grid_from_half` for alias-free grids.
    """
    m_grid = values.shape[-1]
    if m_grid <= 2 * n_max:
        raise ValueError(
            f"grid size {m_grid} cannot resolve cutoff {n_max}; need M > {2 * n_max}"
        )
    e1, _, ana2 = _dft_factors(n_max, m_grid)
    # e1^T sums e^{+i n1 x}, so its row n1 holds the coefficient of -n1
    flipped = np.matmul(e1.T, np.matmul(values, ana2).view(complex))
    return flipped[..., ::-1, :] * ball_mask(n_max)[:, n_max:]


# bench/tracer.py wraps the names of the object-field transforms that these
# two functions replaced; they stay bound only for it, outside __all__
to_grid, from_grid = grid_from_half, half_from_grid


def project(half: np.ndarray, n_cut: int) -> np.ndarray:
    """Sharp Fourier projection onto the Euclidean ball |n| <= n_cut, batched.

    The stored cutoff is read from the shape of ``half``; ``n_cut`` must lie
    between 0 and it.  Returns a new array of cutoff ``n_cut``.
    """
    n_max = (half.shape[-2] - 1) // 2
    if not 0 <= n_cut <= n_max:
        raise ValueError(f"projection cutoff {n_cut} outside 0..{n_max}")
    lo = n_max - n_cut
    out = half[..., lo : lo + 2 * n_cut + 1, : n_cut + 1].copy()
    out *= ball_mask(n_cut)[:, n_cut:]
    return out


def sobolev_norm(half: np.ndarray, s: float) -> np.ndarray:
    """Batched H^s norm (sum <n>^{2s} |c_n|^2)^{1/2}, <n> = sqrt(1 + |n|^2)."""
    n_max = (half.shape[-2] - 1) // 2
    bracket = (1.0 + mode_norms_sq(n_max)[:, n_max:]) ** s
    return np.sqrt(np.sum(half_weights(n_max) * bracket * np.abs(half) ** 2,
                          axis=(-2, -1)))


def _symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Exact Hermitian symmetrization c <- (c + conj(c(-n))) / 2."""
    return 0.5 * (coeffs + np.conj(coeffs[..., ::-1, ::-1]))


@dataclass(frozen=True)
class SpectralField:
    """Hermitian Fourier coefficients of a real field, cutoff ``n_max``.

    ``coeffs[i, j]`` is the coefficient of the mode ``(i - n_max, j - n_max)``.
    The validated, immutable full square of one field: the type of the field
    dumps in :mod:`wicknlw.reporting`.
    """

    n_max: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        k = 2 * self.n_max + 1
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (k, k):
            raise ValueError(f"coefficient array must be ({k}, {k}), got {c.shape}")
        scale = float(np.max(np.abs(c))) if c.size else 0.0
        tol = 1e-12 * max(scale, 1.0)
        if np.max(np.abs(c - np.conj(c[::-1, ::-1]))) > tol:
            raise ValueError("coefficients are not Hermitian symmetric")
        if np.max(np.abs(c[~ball_mask(self.n_max)]), initial=0.0) > tol:
            raise ValueError(f"coefficients outside the ball |n| <= {self.n_max}")
        c = _symmetrize(c)
        c[~ball_mask(self.n_max)] = 0.0
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, n_max: int) -> "SpectralField":
        k = 2 * n_max + 1
        return cls(n_max, np.zeros((k, k), dtype=complex))

    @classmethod
    def from_modes(cls, n_max: int, modes: dict) -> "SpectralField":
        """Build a field from ``{(n1, n2): value}``; mirror modes are filled in."""
        k = 2 * n_max + 1
        c = np.zeros((k, k), dtype=complex)
        for (n1, n2), val in modes.items():
            c[n1 + n_max, n2 + n_max] += val
            if (n1, n2) != (0, 0):
                c[-n1 + n_max, -n2 + n_max] += np.conj(val)
        return cls(n_max, c)

    def coeff(self, n1: int, n2: int) -> complex:
        """Coefficient of mode (n1, n2); zero outside the stored square."""
        if abs(n1) > self.n_max or abs(n2) > self.n_max:
            return 0.0 + 0.0j
        return complex(self.coeffs[n1 + self.n_max, n2 + self.n_max])

    def l2_norm_sq(self) -> float:
        """Squared L^2 norm (normalized measure) via Parseval."""
        return float(np.sum(np.abs(self.coeffs) ** 2))
