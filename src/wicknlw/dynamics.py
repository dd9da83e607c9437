"""The truncated Wick-ordered wave flow and its splitting integrator.

The equation of motion for the pair (u, v) at cutoff N is

    du/dt = v,
    dv/dt = -(rho - Laplacian) u + lam * P_N[H_{2m+1}(P_N u; sigma_N)],

with lam = -1 reproducing the defocusing Wick-ordered dynamics (the Wick
term on the left of the equation with a plus sign).  Both sub-flows are
exactly solvable: the linear part rotates each mode, the kick changes only
v.  Their Strang composition is symplectic, time-reversible and second
order, which is what makes the Gibbs-invariance experiments meaningful.

:func:`records` steps one run on one workspace (see :mod:`wicknlw.engine`)
and yields its records one at a time; :func:`evolve` stacks them, the
universality ladder streams them.  Batches that count or reject failed
rows call ``engine.run_steps`` themselves on blocks of at most
``engine.step_rows`` rows: ``invariance_test`` on its blocks of samples,
the HMC proposal on the Gibbs driver's blocks of chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .wick import WickContext

__all__ = [
    "DynParams",
    "Trajectory",
    "IntegrationError",
    "evolve",
    "records",
    "default_dt",
    "record_count",
    "step_schedule",
    "wick_kick",
]


class IntegrationError(RuntimeError):
    """Non-finite state encountered; ``time`` is the in-trajectory time."""

    def __init__(self, time: float):
        super().__init__(f"integration produced non-finite values at t = {time:g}")
        self.time = time


@dataclass(frozen=True)
class DynParams:
    """Integrator parameters: Wick context, step size, force coefficient.

    ``lam`` multiplies the Wick force on the right-hand side; the default
    -1 is the defocusing sign convention above.
    """

    ctx: WickContext
    dt: float
    lam: float = -1.0

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("time step must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Recorded states at strictly increasing times, constant cutoff.

    ``u`` and ``v`` stack the recorded half-layout states, shape
    (records, K, N+1).
    """

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if not len(t) == len(self.u) == len(self.v):
            raise ValueError("times and states must align")
        if np.shape(self.u) != np.shape(self.v):
            raise ValueError("u and v records must share one shape")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)


def default_dt(n_max: int, rho: float) -> float:
    """Step size keeping the kick small against the fastest mode rotation."""
    fastest = np.sqrt(rho + 2.0 * n_max * n_max)
    return float(min(0.1 / fastest, 1e-2))


def step_schedule(t_final: float, dt: float) -> tuple[int, float]:
    """(whole steps of dt, final partial step) that reach t_final.

    A remainder below 1e-9 dt is rounding and is dropped (returned as 0.0).
    """
    n_steps = int(np.floor(t_final / dt + 1e-9))
    remainder = t_final - n_steps * dt
    if remainder < 1e-9 * dt:
        remainder = 0.0
    return n_steps, remainder


def record_count(t_final: float, dt: float, record_every: int) -> int:
    """Records ``evolve`` keeps: the initial state, one per ``record_every``
    whole steps (the last span may be shorter) and one partial step."""
    n_steps, remainder = step_schedule(t_final, dt)
    return 1 + -(-n_steps // record_every) + (remainder > 0.0)


def wick_kick(p: DynParams, work: dict | None = None):
    """The Wick term u -> lam * P_N[:u^{2m+1}:] of dv/dt, in half layout,
    as a force hook ``force(u)`` (see :func:`engine.run_steps`).

    With a workspace ``work`` every call draws its grids from it and
    returns the same buffer, overwritten by the next call; without one
    every call returns a fresh array.
    """
    lam = p.lam

    def force(u: np.ndarray) -> np.ndarray:
        out = engine.wick_force(u, p.ctx, work)
        out *= lam
        return out

    return force


def records(u: np.ndarray, v: np.ndarray, t_final: float, p: DynParams,
            record_every: int = 1, force=None):
    """Integrate the half-layout state (u, v) at the context cutoff to
    t_final and yield ``(t, u, v)`` at t = 0, every ``record_every`` Strang
    steps and at t_final.  A final partial step with reduced dt lands
    within one dt of t_final.  Kicks interior to an unrecorded span are
    merged (exact in exact arithmetic).

    ``force`` may replace the default Wick kick by any force hook
    ``force(u)`` in half layout (used by the scaling experiments).  The
    arguments are checked on the call; the steps run, on one workspace
    that the default kick shares, as the records are consumed, and a
    non-finite state raises :class:`IntegrationError` instead of being
    yielded.
    """
    if t_final <= 0:
        raise ValueError("final time must be positive")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_max = p.ctx.n_max
    if np.shape(u)[-2:] != (2 * n_max + 1, n_max + 1) or np.shape(v) != np.shape(u):
        raise ValueError("state must be in the half layout of the context cutoff")
    work: dict = {}
    return _records(u, v, t_final, p, record_every,
                    force if force is not None else wick_kick(p, work), work)


def _records(u, v, t_final, p, record_every, kick, work):
    n_max, rho = p.ctx.n_max, p.ctx.rho
    n_steps, remainder = step_schedule(t_final, p.dt)
    # (step size, steps, time reached) of each recorded segment
    segments = [(p.dt, min(record_every, n_steps - lo),
                 min(lo + record_every, n_steps) * p.dt)
                for lo in range(0, n_steps, record_every)]
    if remainder > 0.0:
        segments.append((remainder, 1, t_final))
    yield 0.0, u, v
    for h, steps, t in segments:
        u, v = engine.run_steps(u, v, n_max, rho, h, steps, kick, work)
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise IntegrationError(t)
        yield t, u, v


def evolve(u: np.ndarray, v: np.ndarray, t_final: float, p: DynParams,
           record_every: int = 1, force=None) -> Trajectory:
    """The :func:`records` of a run, stacked into a :class:`Trajectory`.

    The stacks are allocated once, ``record_count`` records long, and
    each record is written into them as it is made.
    """
    recs = records(u, v, t_final, p, record_every, force)
    n = record_count(t_final, p.dt, record_every)
    times = np.empty(n)
    us = np.empty((n,) + np.shape(u), dtype=complex)
    vs = np.empty_like(us)
    for i, (t, u_i, v_i) in enumerate(recs):
        times[i], us[i], vs[i] = t, u_i, v_i
    return Trajectory(times, us, vs)
