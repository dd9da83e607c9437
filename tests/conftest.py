import numpy as np

from wicknlw import SpectralField
from wicknlw.fields import ball_mask, half_from_full, mode_norms_sq
from wicknlw.free_field import rng_for_sample


def random_field(n_max: int, seed: int, scale: float = 1.0) -> SpectralField:
    """Hermitian ball-supported field with Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    k = 2 * n_max + 1
    c = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    c = 0.5 * (c + np.conj(c[::-1, ::-1])) * scale
    c[~ball_mask(n_max)] = 0.0
    return SpectralField(n_max, c)


def half(f: SpectralField) -> np.ndarray:
    return half_from_full(f.coeffs)


def zeros_half(n_max: int) -> np.ndarray:
    return np.zeros((2 * n_max + 1, n_max + 1), dtype=complex)


def mirror_unit_gaussians(block_re: np.ndarray, block_im: np.ndarray,
                          n_max: int) -> np.ndarray:
    """Reference draw assembly on the full (K, K) square.

    Independent draws live on the lexicographically positive half lattice
    (n1 > 0, or n1 = 0 and n2 > 0); the rest is the conjugate mirror, the
    zero mode is the real draw and modes outside the ball are zero.
    """
    n1 = np.arange(-n_max, n_max + 1)
    nx, ny = np.meshgrid(n1, n1, indexing="ij")
    g = (block_re + 1j * block_im) / np.sqrt(2.0)
    out = np.zeros_like(g)
    pos = (nx > 0) | ((nx == 0) & (ny > 0))
    out[..., pos] = g[..., pos]
    out[..., ::-1, ::-1][..., pos] = np.conj(g[..., pos])
    out[..., n_max, n_max] = block_re[..., n_max, n_max]
    out[..., ~ball_mask(n_max)] = 0.0
    return out


def reference_free_halves(seed: int, indices, n_max: int, rho: float,
                          rows: int = 4, first: int = 0) -> list[np.ndarray]:
    """Per-stream reference draws: one (rows, K, K) standard-normal block
    from the stream (seed, index) of each index, assembled on the full
    square and cut to the half layout; row pair (0, 1) is u, scaled by
    1 / sqrt(rho + |n|^2), and (2, 3) is v."""
    k = 2 * n_max + 1
    amp = 1.0 / np.sqrt(rho + mode_norms_sq(n_max))
    blocks = np.stack([rng_for_sample(seed, i).standard_normal((rows, k, k))
                       for i in indices])
    out = []
    for j in range(first, rows, 2):
        full = mirror_unit_gaussians(blocks[:, j], blocks[:, j + 1], n_max)
        if j == 0:
            full *= amp
        out.append(half_from_full(full))
    return out
