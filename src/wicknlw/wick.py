"""Hermite polynomials with variance parameter and pointwise Wick powers.

The Wick power of degree k of a cutoff-N field u replaces u(x)^k by
H_k(u(x); sigma_N) node by node, where sigma_N is the pointwise variance of
the cutoff free field.  Renormalization is therefore a purely pointwise
operation on collocation grids; projecting the result back to spectral
space is the caller's job.  A degree-k power is evaluated on the smallest
grid that keeps its retained modes alias-free, ``(k + 1) N + 1`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .fields import GridField, SpectralField, alias_free_grid, project, to_grid
from .free_field import point_variance

__all__ = [
    "WickContext",
    "hermite",
    "hermite_values",
    "wick_power",
    "wick_binomial",
    "scaling_identity_check",
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


def wick_power(u: SpectralField, k: int, ctx: WickContext) -> GridField:
    """Degree-k Wick power of the projected field, on its alias-free grid.

    The value at node x_j is H_k((P_N u)(x_j); sigma); modes of u above the
    context cutoff are rejected rather than silently projected away.
    """
    if u.n_max > ctx.n_max:
        raise ValueError("field cutoff exceeds the Wick context cutoff")
    # degree 0 still needs M > 2N to put the field on the grid
    g = to_grid(project(u, ctx.n_max), alias_free_grid(ctx.n_max, max(k, 1)))
    return GridField(g.m_grid, hermite_values(k, g.values, ctx.sigma))


def wick_binomial(z: SpectralField, w: SpectralField, k: int,
                  ctx: WickContext) -> GridField:
    """Binomial Wick expansion of :(z + w)^k: on the grid of :func:`wick_power`.

    Only the z factors carry Wick constants:
    sum_l C(k, l) * H_l(z; sigma) * w^{k - l}.
    """
    if z.n_max > ctx.n_max or w.n_max > ctx.n_max:
        raise ValueError("field cutoff exceeds the Wick context cutoff")
    m_grid = alias_free_grid(ctx.n_max, max(k, 1))
    zg = to_grid(project(z, ctx.n_max), m_grid).values
    wg = to_grid(project(w, ctx.n_max), m_grid).values
    total = np.zeros_like(zg)
    w_pow = np.ones_like(wg)
    # accumulate l = k down to 0 so w_pow builds up as w^{k-l}
    for ell in range(k, -1, -1):
        total += comb(k, ell) * hermite_values(ell, zg, ctx.sigma) * w_pow
        w_pow = w_pow * wg
    return GridField(m_grid, total)


def scaling_identity_check(k: int, x: float, sigma: float,
                           rtol: float = 1e-10) -> bool:
    """True iff H_k(x; sigma) == sigma^{k/2} H_k(x / sqrt(sigma); 1) within rtol."""
    lhs = hermite(k, x, sigma)
    rhs = sigma ** (k / 2.0) * hermite(k, x / np.sqrt(sigma), 1.0)
    return abs(lhs - rhs) <= rtol * (1.0 + abs(lhs))
