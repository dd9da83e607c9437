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
  kernel stores a field; the full square appears only in the field dumps
  (:func:`full_from_half`) and in the exact chaos oracle of
  :mod:`wicknlw.free_field`.
* Collocation grids are uniform M x M grids on [0, 2*pi)^2.  A grid is
  alias-free for a product of degree p of cutoff-N fields whenever
  ``M > (p + 1) * N``; helper :func:`alias_free_grid` returns the smallest
  size satisfying that bound.
* Transforms are per-axis DFT matrix products on the half spectrum.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "mode_norms_sq",
    "ball_mask",
    "alias_free_grid",
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


def _cutoff(half: np.ndarray) -> int:
    """Cutoff N of a half spectrum (..., 2N+1, N+1), read from the shape
    alone (cheap enough for every kernel call); ValueError for any other."""
    shape = half.shape
    n_max = (shape[-2] - 1) // 2 if len(shape) > 1 else -1
    if shape[-2:] != (2 * n_max + 1, n_max + 1):
        raise ValueError(f"shape {shape} is not a half spectrum (..., 2N+1, N+1)")
    return n_max


def full_from_half(half: np.ndarray) -> np.ndarray:
    """Rebuild the full square from the n2 >= 0 columns by conjugate mirror;
    the layout of the ``states.npz`` and field CSV dumps."""
    n_max = _cutoff(half)
    k = 2 * n_max + 1
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


# bounded: a benchmark workload's CLI run meets at most 21 (N, M) pairs,
# and a longer sweep rebuilds the evicted tables
@lru_cache(maxsize=32)
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


def _scratch(work: dict | None, name: str, shape: tuple,
             dtype=float) -> np.ndarray:
    """Buffer ``name`` of the caller-owned workspace ``work``, of ``shape``;
    a fresh array without a workspace, so every kernel has one allocation
    path.

    The buffer is made on first use and remade, at ``shape``, only when a
    call needs more elements or another dtype.  A call of another shape
    that fits gets a view of the buffer's leading elements, so the short
    last block of a blocked loop reuses the full blocks' memory (as its
    leading rows), and a loop over cutoffs and degrees keeps one buffer
    per name, sized by its largest call.  A kernel given a workspace
    returns one of its buffers, which the next call with the same
    workspace overwrites.
    """
    if work is None:
        return np.empty(shape, dtype)
    buf = work.get(name)
    if buf is not None and buf.shape == shape and buf.dtype == dtype:
        return buf
    size = math.prod(shape)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = work[name] = np.empty(shape, dtype)
        return buf
    return buf.reshape(-1)[:size].reshape(shape)


def grid_from_half(half: np.ndarray, m_grid: int,
                   work: dict | None = None) -> np.ndarray:
    """Evaluate sum_n c_n e^{i n.x} on the M x M grid (result is real).

    With a workspace ``work`` the (..., M, N+1) product and the grid are
    its buffers ``syn1`` and ``grid``; without one they are fresh arrays.
    """
    n_max = _cutoff(half)
    if m_grid <= 2 * n_max:
        raise ValueError(
            f"grid size {m_grid} aliases a cutoff-{n_max} field; need M > {2 * n_max}"
        )
    e1, syn2, _ = _dft_factors(n_max, m_grid)
    lead = half.shape[:-2]
    syn1 = np.matmul(e1, half,
                     out=_scratch(work, "syn1", lead + (m_grid, n_max + 1), complex))
    return np.matmul(syn1.view(float), syn2,
                     out=_scratch(work, "grid", lead + (m_grid, m_grid)))


def half_from_grid(values: np.ndarray, n_max: int,
                   work: dict | None = None) -> np.ndarray:
    """Discrete Fourier analysis of a real grid, kept on |n| <= n_max.

    Uses the normalized inner product (plain average over nodes), so it is
    the exact inverse of :func:`grid_from_half` for alias-free grids.  With
    a workspace ``work`` the (..., M, 2N+2) product, the flipped spectrum
    and the result are its buffers ``ana2``, ``ana1`` and ``half``.
    """
    m_grid = values.shape[-1]
    if m_grid <= 2 * n_max:
        raise ValueError(
            f"grid size {m_grid} cannot resolve cutoff {n_max}; need M > {2 * n_max}"
        )
    e1, _, ana2 = _dft_factors(n_max, m_grid)
    lead, k = values.shape[:-2], 2 * n_max + 1
    # e1^T sums e^{+i n1 x}, so its row n1 holds the coefficient of -n1; the
    # (..., M, 2N+2) product is a temporary unless it is a workspace buffer,
    # so without one it is freed before the masked copy is made
    flipped = np.matmul(
        e1.T,
        np.matmul(values, ana2,
                  out=_scratch(work, "ana2", lead + (m_grid, 2 * n_max + 2))
                  ).view(complex),
        out=_scratch(work, "ana1", lead + (k, n_max + 1), complex))
    return np.multiply(flipped[..., ::-1, :], ball_mask(n_max)[:, n_max:],
                       out=_scratch(work, "half", lead + (k, n_max + 1), complex))


# bench/tracer.py wraps the names of the object-field transforms that these
# two functions replaced; they stay bound only for it, outside __all__
to_grid, from_grid = grid_from_half, half_from_grid


def project(half: np.ndarray, n_cut: int) -> np.ndarray:
    """Sharp Fourier projection onto the Euclidean ball |n| <= n_cut, batched.

    The stored cutoff is read from the shape of ``half``; ``n_cut`` must lie
    between 0 and it.  Returns a new array of cutoff ``n_cut``.
    """
    n_max = _cutoff(half)
    if not 0 <= n_cut <= n_max:
        raise ValueError(f"projection cutoff {n_cut} outside 0..{n_max}")
    lo = n_max - n_cut
    out = half[..., lo : lo + 2 * n_cut + 1, : n_cut + 1].copy()
    out *= ball_mask(n_cut)[:, n_cut:]
    return out


def sobolev_norm(half: np.ndarray, s: float,
                 work: dict | None = None) -> np.ndarray:
    """Batched H^s norm (sum <n>^{2s} |c_n|^2)^{1/2}, <n> = sqrt(1 + |n|^2).

    With a workspace ``work`` the weighted |c_n|^2 are its buffer ``norm``.
    """
    n_max = _cutoff(half)
    bracket = (1.0 + mode_norms_sq(n_max)[:, n_max:]) ** s
    sq = np.abs(half, out=_scratch(work, "norm", half.shape))
    np.square(sq, out=sq)
    sq *= half_weights(n_max) * bracket
    return np.sqrt(np.sum(sq, axis=(-2, -1)))
