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

The force, the potential, the free rotation and the Strang segments take
an optional workspace ``work``, a caller-owned dict of scratch buffers
(``fields._scratch``) that grow by element count, so one dict serves
every block size and cutoff; a force hook owns the workspace it was built
with.  A run that keeps its workspaces allocates nothing per step, so its
page faults follow the work, not glibc's heap trimming.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import (_scratch, grid_from_half, half_from_grid, half_weights,
                     mode_norms_sq)
from .free_field import _block_size
from .wick import WickContext, hermite_values

__all__ = [
    "half_geometry",
    "rotate",
    "wick_force",
    "step_rows",
    "run_steps",
    "l2_norm_sq",
    "quadratic_energy_values",
    "wick_potential_values",
    "wick_mass_values",
    "hamiltonian_values",
]


@lru_cache(maxsize=None)
def half_geometry(n_max: int, rho: float):
    """(<n>_rho, <n>_rho^2, ``half_weights``) in half layout."""
    lam2 = rho + mode_norms_sq(n_max)
    lam2_h = lam2[:, n_max:]
    lam_h = np.sqrt(lam2_h)
    for a in (lam2_h, lam_h):
        a.setflags(write=False)
    return lam_h, lam2_h, half_weights(n_max)


# bounded: a run meets one step and its remainder per cutoff
@lru_cache(maxsize=32)
def _rotation(n_max: int, rho: float, t: float):
    """Read-only (cos t<n>, sin t<n> / <n>, sin t<n> <n>) in half layout."""
    lam, _, _ = half_geometry(n_max, rho)
    c, s = np.cos(t * lam), np.sin(t * lam)
    table = (c, s / lam, s * lam)
    for a in table:
        a.setflags(write=False)
    return table


def rotate(u: np.ndarray, v: np.ndarray, n_max: int, rho: float, t: float,
           work: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact free Klein-Gordon flow by time t: a ``run_steps`` step, no kicks.

    With a workspace ``work`` the results are its buffers ``rotate_u`` and
    ``rotate_v``; without one they are fresh arrays.
    """
    c, s_over, s_lam = _rotation(n_max, rho, t)
    tmp = _scratch(work, "rotate_tmp", u.shape, complex)
    new_u = np.multiply(c, u, out=_scratch(work, "rotate_u", u.shape, complex))
    new_u += np.multiply(s_over, v, out=tmp)
    new_v = np.multiply(c, v, out=_scratch(work, "rotate_v", u.shape, complex))
    new_v -= np.multiply(s_lam, u, out=tmp)
    return new_u, new_v


def wick_force(u: np.ndarray, ctx: WickContext,
               work: dict | None = None) -> np.ndarray:
    """P_N[H_{2m+1}(u; sigma)] in half layout (the defocusing term's magnitude).

    With a workspace ``work`` every grid and the result are its buffers
    (see :func:`wicknlw.fields.grid_from_half`), so a call allocates
    nothing and the next call overwrites the result; without one the
    result is a fresh array.
    """
    g = grid_from_half(u, ctx.m_grid, work)
    h = hermite_values(2 * ctx.m + 1, g, ctx.sigma, work)
    return half_from_grid(h, ctx.n_max, work)


def step_rows(ctx: WickContext) -> int:
    """Rows per block of the batched Strang runs (the Gibbs chains,
    ``invariance_test``) and of ``wick_potential_values``: the
    ``_block_size`` rule applied to the values one Wick force holds per
    row (the M x M grid and its Hermite image, two (M, N+1) complex
    products, three half-layout arrays); 61 at N = 8.  Those are the
    block's workspace buffers, so the rule bounds the workspace.
    """
    n, m = ctx.n_max, ctx.m_grid
    return _block_size(2 * m * m + 4 * m * (n + 1) + 6 * (2 * n + 1) * (n + 1))


def run_steps(u: np.ndarray, v: np.ndarray, n_max: int, rho: float,
              dt: float, n_steps: int, force,
              work: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One Strang segment of n_steps: half kick, rotations with interior
    full kicks (the two adjacent half kicks merged), final half kick.

    ``force(u) -> array`` is the full nonlinear contribution to dv/dt; it
    may return a buffer of its own workspace, which is read before the
    next call.  ``work`` is the caller's dict of scratch buffers, kept
    across calls so that the step buffers are made once per run; without
    one they are fresh arrays.  The rotation by dt is the cached
    ``_rotation`` table.  With a force that keeps its grids in a workspace
    (``dynamics.wick_kick``, ``experiments.scaled_force_fn``) no step
    allocates.  Inputs are not modified; the results are fresh arrays,
    except that n_steps < 1 returns ``u`` and ``v`` themselves.
    """
    if n_steps < 1:
        return u, v
    c, s_over, s_lam = _rotation(n_max, rho, dt)

    kick = np.multiply(force(u), 0.5 * dt)
    kick += v
    v = kick
    # the steps alternate u between its copy and a workspace buffer; the
    # copy is the result
    u = out_u = u.copy()
    new_u = _scratch(work, "step_u", u.shape, u.dtype)
    tmp = _scratch(work, "step_tmp", u.shape, u.dtype)
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
    if u is not out_u:
        np.copyto(out_u, u)
    return out_u, v


def l2_norm_sq(u: np.ndarray, n_max: int) -> np.ndarray:
    """Parseval sum over the full lattice from the half layout."""
    return np.sum(half_weights(n_max) * np.abs(u) ** 2, axis=(-2, -1))


def quadratic_energy_values(u: np.ndarray, v: np.ndarray, n_max: int,
                            rho: float) -> np.ndarray:
    """(1/2) sum <n>_rho^2 |u_n|^2 + (1/2) sum |v_n|^2, batched."""
    _, lam2, colw = half_geometry(n_max, rho)
    return 0.5 * np.sum(colw * (lam2 * np.abs(u) ** 2 + np.abs(v) ** 2),
                        axis=(-2, -1))


def wick_potential_values(u: np.ndarray, ctx: WickContext,
                          work: dict | None = None) -> np.ndarray:
    """Average of H_{2m+2}(u; sigma) over the grid, divided by 2m + 2.

    Runs in blocks of ``step_rows(ctx)`` samples whose grids are buffers
    of one workspace: the caller's ``work``, else one made for this call.
    """
    if work is None:
        work = {}
    deg, m_grid = 2 * ctx.m + 2, ctx.m_grid
    rows, step = u.reshape((-1,) + u.shape[-2:]), step_rows(ctx)
    means = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        g = grid_from_half(rows[lo : lo + step], m_grid, work)
        h = hermite_values(deg, g, ctx.sigma, work)
        np.mean(h, axis=(-2, -1), out=means[lo : lo + step])
    return means.reshape(u.shape[:-2]) / deg


def wick_mass_values(u: np.ndarray, ctx: WickContext) -> np.ndarray:
    """Integral of the Wick square: ||u||_{L^2}^2 - sigma, batched."""
    return l2_norm_sq(u, ctx.n_max) - ctx.sigma


def hamiltonian_values(u: np.ndarray, v: np.ndarray,
                       ctx: WickContext) -> np.ndarray:
    """Wick-ordered energy: quadratic part plus the Wick potential."""
    return (quadratic_energy_values(u, v, ctx.n_max, ctx.rho)
            + wick_potential_values(u, ctx))
