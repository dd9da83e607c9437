"""Batched half-spectrum kernels shared by the integrator and the samplers.

States are carried as pairs of complex arrays of shape (..., K, N+1) holding
the columns n2 >= 0 of Hermitian coefficient squares (K = 2N + 1); leading
axes enumerate independent Monte Carlo samples or chains.  All multipliers
used here are real and even in n, so Hermitian symmetry is preserved
automatically and the negative-n2 half is never materialized during a run.

Nonlinear terms are evaluated pointwise on the context grid
``WickContext.m_grid`` = (2m + 2) N + 1, through the transforms of
:mod:`wicknlw.fields`.  It is the smallest grid on which the retained modes
of the degree-(2m+1) force are exact, and the grid mean of the
degree-(2m+2) potential is exact on it as well.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import (ball_mask, grid_from_half, half_from_grid, half_weights,
                     mode_norms_sq)
from .free_field import _block_size
from .wick import WickContext, hermite_values

__all__ = [
    "half_geometry",
    "rotate",
    "wick_force",
    "step_rows",
    "run_steps",
    "run_steps_blocked",
    "l2_norm_sq",
    "quadratic_energy_values",
    "wick_potential_values",
    "wick_mass_values",
    "hamiltonian_values",
]


@lru_cache(maxsize=None)
def half_geometry(n_max: int, rho: float):
    """(ball mask, <n>_rho, <n>_rho^2, ``half_weights``) in half layout."""
    lam2 = rho + mode_norms_sq(n_max)
    lam2_h = lam2[:, n_max:]
    lam_h = np.sqrt(lam2_h)
    ball_h = ball_mask(n_max)[:, n_max:]
    for a in (lam2_h, lam_h):
        a.setflags(write=False)
    return ball_h, lam_h, lam2_h, half_weights(n_max)


def rotate(u: np.ndarray, v: np.ndarray, n_max: int, rho: float,
           t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact free Klein-Gordon flow by time t, mode by mode."""
    _, lam, _, _ = half_geometry(n_max, rho)
    c, s = np.cos(t * lam), np.sin(t * lam)
    return c * u + (s / lam) * v, -lam * s * u + c * v


def wick_force(u: np.ndarray, ctx: WickContext) -> np.ndarray:
    """P_N[H_{2m+1}(u; sigma)] in half layout (the defocusing term's magnitude)."""
    g = grid_from_half(u, ctx.m_grid)
    return half_from_grid(hermite_values(2 * ctx.m + 1, g, ctx.sigma), ctx.n_max)


def step_rows(ctx: WickContext) -> int:
    """Rows per ``run_steps`` call: the ``_block_size`` rule applied to the
    values one Wick force holds per row (the M x M grid and its Hermite
    image, two (M, N+1) complex products, three half-layout arrays); 61 at
    N = 8.  In much larger blocks glibc hands the freed temporaries back to
    the OS after every step, and the next step faults them in again.
    """
    n, m = ctx.n_max, ctx.m_grid
    return _block_size(2 * m * m + 4 * m * (n + 1) + 6 * (2 * n + 1) * (n + 1))


def run_steps(u: np.ndarray, v: np.ndarray, n_max: int, rho: float,
              dt: float, n_steps: int, force) -> tuple[np.ndarray, np.ndarray]:
    """One Strang segment of n_steps: half kick, rotations with interior
    full kicks (the two adjacent half kicks merged), final half kick.

    ``force(u) -> array`` is the full nonlinear contribution to dv/dt.
    Inputs are not modified.
    """
    if n_steps < 1:
        return u, v
    _, lam, _, _ = half_geometry(n_max, rho)
    c, s = np.cos(dt * lam), np.sin(dt * lam)
    s_over, s_lam = s / lam, s * lam

    kick = np.multiply(force(u), 0.5 * dt)
    v = v + kick
    u = u.copy()
    new_u = np.empty_like(u)
    tmp = np.empty_like(u)
    for k in range(n_steps):
        np.multiply(c, u, out=new_u)
        np.multiply(s_over, v, out=tmp)
        new_u += tmp
        np.multiply(c, v, out=v)
        np.multiply(s_lam, u, out=tmp)
        v -= tmp
        u, new_u = new_u, u
        if k < n_steps - 1:
            np.multiply(force(u), dt, out=tmp)
            v += tmp
    np.multiply(force(u), 0.5 * dt, out=tmp)
    v += tmp
    return u, v


def run_steps_blocked(u: np.ndarray, v: np.ndarray, ctx: WickContext,
                      dt: float, n_steps: int, force) -> tuple[np.ndarray, np.ndarray]:
    """``run_steps`` on (rows, K, N+1) arrays in blocks of ``step_rows(ctx)``
    rows.  Rows are independent, so the result equals one call on all rows.
    """
    u_out, v_out = np.empty_like(u), np.empty_like(v)
    block = step_rows(ctx)
    for lo in range(0, len(u), block):
        rows = slice(lo, lo + block)
        u_out[rows], v_out[rows] = run_steps(u[rows], v[rows], ctx.n_max,
                                             ctx.rho, dt, n_steps, force)
    return u_out, v_out


def l2_norm_sq(u: np.ndarray, n_max: int) -> np.ndarray:
    """Parseval sum over the full lattice from the half layout."""
    return np.sum(half_weights(n_max) * np.abs(u) ** 2, axis=(-2, -1))


def quadratic_energy_values(u: np.ndarray, v: np.ndarray, n_max: int,
                            rho: float) -> np.ndarray:
    """(1/2) sum <n>_rho^2 |u_n|^2 + (1/2) sum |v_n|^2, batched."""
    _, _, lam2, colw = half_geometry(n_max, rho)
    return 0.5 * np.sum(colw * (lam2 * np.abs(u) ** 2 + np.abs(v) ** 2),
                        axis=(-2, -1))


def wick_potential_values(u: np.ndarray, ctx: WickContext) -> np.ndarray:
    """Average of H_{2m+2}(u; sigma) over the grid, divided by 2m + 2,
    in blocks of ``_block_size(M^2)`` samples."""
    deg, m_grid = 2 * ctx.m + 2, ctx.m_grid
    rows, step = u.reshape((-1,) + u.shape[-2:]), _block_size(m_grid * m_grid)
    means = [np.mean(hermite_values(deg, grid_from_half(rows[lo : lo + step], m_grid),
                                    ctx.sigma), axis=(-2, -1))
             for lo in range(0, max(len(rows), 1), step)]
    return np.concatenate(means).reshape(u.shape[:-2]) / deg


def wick_mass_values(u: np.ndarray, ctx: WickContext) -> np.ndarray:
    """Integral of the Wick square: ||u||_{L^2}^2 - sigma, batched."""
    return l2_norm_sq(u, ctx.n_max) - ctx.sigma


def hamiltonian_values(u: np.ndarray, v: np.ndarray,
                       ctx: WickContext) -> np.ndarray:
    """Wick-ordered energy: quadratic part plus the Wick potential."""
    return (quadratic_energy_values(u, v, ctx.n_max, ctx.rho)
            + wick_potential_values(u, ctx))
