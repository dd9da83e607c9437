"""Hermite polynomials with variance parameter and pointwise Wick powers.

The Wick power of degree k of a cutoff-N field u replaces u(x)^k by
H_k(u(x); sigma_N) node by node, where sigma_N is the pointwise variance of
the cutoff free field.  Renormalization is therefore a purely pointwise
operation on collocation grids.  :func:`wick_power` and
:func:`wick_binomial` return the complete spectrum of the power, cutoff kN,
from the grid 2kN + 1 on which every one of those modes is exact; the
equation's force, projected back to cutoff N, is
:func:`wicknlw.engine.wick_force` on the smaller context grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .fields import alias_free_grid, grid_from_half, half_from_grid
from .free_field import point_variance

__all__ = [
    "WickContext",
    "hermite",
    "hermite_values",
    "wick_power",
    "wick_binomial",
]


@dataclass(frozen=True)
class WickContext:
    """Everything needed to evaluate Wick powers at one truncation level.

    Attributes:
        n_max: spectral cutoff N.
        rho: mass parameter (> 0).
        m: nonlinearity index; the equation's force has degree 2m + 1 and
            the potential degree 2m + 2.
        sigma: pointwise variance of the cutoff free field; always equals
            point_variance(n_max, rho).

    The collocation grid :attr:`m_grid` follows from n_max and m; it is not
    a setting.
    """

    n_max: int
    rho: float
    m: int
    sigma: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("nonlinearity index m must be >= 1")
        if self.sigma != point_variance(self.n_max, self.rho):
            raise ValueError("sigma must equal the exact cutoff point variance")

    @property
    def m_grid(self) -> int:
        """Collocation grid M = max((2m + 2) N + 1, 4) of the force and potential.

        It is the smallest alias-free grid for the degree-(2m+1) force, and
        the grid mean of the degree-(2m+2) potential is exact on it too: the
        zero mode of that product can alias only when M <= (2m + 2) N.
        """
        return alias_free_grid(self.n_max, 2 * self.m + 1)

    @classmethod
    def create(cls, n_max: int, rho: float, m: int = 1) -> "WickContext":
        """Context with the exact cutoff point variance."""
        return cls(n_max, float(rho), m, point_variance(n_max, rho))


def hermite_values(k: int, x: np.ndarray, sigma: float) -> np.ndarray:
    """H_k(x; sigma) elementwise.

    Degrees 2, 3 and 4 (the Wick mass, force and potential of the cubic
    equation) use their closed forms in the fewest full-array passes.
    Other degrees use the stable three-term recurrence H_0 = 1, H_1 = x,
    H_{j+1} = x * H_j - j * sigma * H_{j-1}, which follows from
    differentiating the generating function exp(t x - sigma t^2 / 2) and
    is accurate in the operating range k <= 12, |x| <= 10 sqrt(sigma).
    """
    if k < 0:
        raise ValueError("Hermite degree must be nonnegative")
    if sigma <= 0:
        raise ValueError("variance parameter must be positive")
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    if k == 1:
        return x.copy()
    if k == 2:
        out = x * x
        out -= sigma
        return out
    if k == 3:
        out = x * x
        out -= 3.0 * sigma
        out *= x
        return out
    if k == 4:
        x2 = x * x
        out = x2 * x2
        x2 *= -6.0 * sigma
        out += x2
        out += 3.0 * sigma * sigma
        return out
    h_prev = np.ones_like(x)
    h = x.copy()
    for j in range(1, k):
        h, h_prev = x * h - j * sigma * h_prev, h
    return h


def hermite(k: int, x: float, sigma: float) -> float:
    """H_k(x; sigma) for scalar arguments."""
    return float(hermite_values(k, np.asarray(x, dtype=float), sigma))


def _spectrum_grid(z: np.ndarray, k: int) -> tuple[int, int]:
    """(cutoff N of z, grid 2kN + 1) of a degree-k Wick power spectrum."""
    if k < 1:
        raise ValueError("Wick power degree must be >= 1")
    n_cut = (z.shape[-2] - 1) // 2
    return n_cut, alias_free_grid(n_cut, 2 * k - 1)


def wick_power(z: np.ndarray, k: int, sigma: float) -> np.ndarray:
    """Complete spectrum of H_k(z; sigma) for half-layout z, batched.

    The result has cutoff kN, the full support of the power of a cutoff-N
    field, and is computed on the grid M = 2kN + 1 (at least 4), on which
    every one of its modes is exact.
    """
    n_cut, m_grid = _spectrum_grid(z, k)
    g = grid_from_half(z, m_grid)
    return half_from_grid(hermite_values(k, g, sigma), k * n_cut)


def wick_binomial(z: np.ndarray, w: np.ndarray, k: int,
                  sigma: float) -> np.ndarray:
    """Binomial Wick expansion of :(z + w)^k:, laid out as :func:`wick_power`.

    Only the z factors carry Wick constants:
    sum_l C(k, l) * H_l(z; sigma) * w^{k - l}.
    """
    if z.shape[-2:] != w.shape[-2:]:
        raise ValueError("z and w must share one cutoff")
    n_cut, m_grid = _spectrum_grid(z, k)
    zg, wg = grid_from_half(z, m_grid), grid_from_half(w, m_grid)
    total = hermite_values(k, zg, sigma)
    w_pow = wg
    # l = k - 1 down to 0, so w_pow builds up as w^{k-l}
    for ell in range(k - 1, -1, -1):
        total = total + comb(k, ell) * hermite_values(ell, zg, sigma) * w_pow
        w_pow = w_pow * wg
    return half_from_grid(total, k * n_cut)
