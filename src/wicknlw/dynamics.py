"""The truncated Wick-ordered wave flow and its splitting integrator.

The equation of motion for the pair (u, v) at cutoff N is

    du/dt = v,
    dv/dt = -(rho - Laplacian) u + lam * P_N[H_{2m+1}(P_N u; sigma_N)],

with lam = -1 reproducing the defocusing Wick-ordered dynamics (the Wick
term on the left of the equation with a plus sign).  Both sub-flows are
exactly solvable: the linear part rotates each mode, the kick changes only
v.  Their Strang composition is symplectic, time-reversible and second
order, which is what makes the Gibbs-invariance experiments meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .fields import SpectralField, from_grid, full_from_half, half_from_full
from .free_field import PhaseState
from .wick import WickContext, wick_power

__all__ = [
    "DynParams",
    "Trajectory",
    "IntegrationError",
    "linear_propagate",
    "nonlinear_force",
    "step",
    "evolve",
    "hamiltonian_wick",
    "quadratic_energy",
    "default_dt",
    "step_schedule",
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
    """Recorded states at strictly increasing times, constant cutoff."""

    times: np.ndarray
    states: list[PhaseState] = field(default_factory=list)

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if len(t) != len(self.states):
            raise ValueError("times and states must align")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)

    def final(self) -> PhaseState:
        return self.states[-1]


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


def _state_halves(s: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    return half_from_full(s.u.coeffs), half_from_full(s.v.coeffs)


def _state_from_halves(u: np.ndarray, v: np.ndarray, n_max: int,
                       rho: float) -> PhaseState:
    return PhaseState(
        SpectralField(n_max, full_from_half(u)),
        SpectralField(n_max, full_from_half(v)),
        rho,
    )


def linear_propagate(s: PhaseState, t: float) -> PhaseState:
    """Exact free flow: per-mode rotation by angle t <n>_rho.

    Closed form, hence time-reversible to rounding and an exact isometry of
    the quadratic energy.
    """
    u, v = engine.rotate(*_state_halves(s), s.n_max, s.rho, t)
    return _state_from_halves(u, v, s.n_max, s.rho)


def nonlinear_force(u: SpectralField, ctx: WickContext) -> SpectralField:
    """P_N applied to the degree-(2m+1) Wick power of P_N u.

    Evaluated on the context grid, so the retained coefficients are exact;
    the output never populates modes above the context cutoff.
    """
    g = wick_power(u, 2 * ctx.m + 1, ctx)
    return from_grid(g, ctx.n_max)


def _wick_kick(p: DynParams):
    lam = p.lam

    def force(u: np.ndarray) -> np.ndarray:
        return lam * engine.wick_force(u, p.ctx)

    return force


def step(s: PhaseState, p: DynParams, force=None) -> PhaseState:
    """One Strang step: half kick, exact rotation by dt, half kick.

    ``force`` may replace the default Wick kick by any map u -> dv/dt
    contribution in half-spectrum layout (used by the scaling experiments).
    """
    if s.n_max != p.ctx.n_max:
        raise ValueError("state cutoff must match the context cutoff")
    u, v = engine.run_steps(*_state_halves(s), s.n_max, s.rho, p.dt, 1,
                            force if force is not None else _wick_kick(p))
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise IntegrationError(p.dt)
    return _state_from_halves(u, v, s.n_max, s.rho)


def evolve(s: PhaseState, t_final: float, p: DynParams, record_every: int = 1,
           force=None) -> Trajectory:
    """Integrate to t_final, recording every ``record_every`` steps plus the
    endpoints.  A final partial step with reduced dt lands within one dt of
    t_final.  Kicks interior to an unrecorded span are merged (exact in
    exact arithmetic)."""
    if t_final <= 0:
        raise ValueError("final time must be positive")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    kick = force if force is not None else _wick_kick(p)
    n_steps, remainder = step_schedule(t_final, p.dt)

    u, v = _state_halves(s)
    times = [0.0]
    states = [s]
    t = 0.0
    done = 0
    while done < n_steps:
        span = min(record_every, n_steps - done)
        u, v = engine.run_steps(u, v, s.n_max, s.rho, p.dt, span, kick)
        done += span
        t = done * p.dt
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise IntegrationError(t)
        times.append(t)
        states.append(_state_from_halves(u, v, s.n_max, s.rho))
    if remainder > 0.0:
        u, v = engine.run_steps(u, v, s.n_max, s.rho, remainder, 1, kick)
        t = t_final
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise IntegrationError(t)
        times.append(t)
        states.append(_state_from_halves(u, v, s.n_max, s.rho))
    return Trajectory(np.asarray(times), states)


def quadratic_energy(s: PhaseState) -> float:
    """(1/2) sum <n>_rho^2 |u_n|^2 + (1/2) sum |v_n|^2."""
    u, v = _state_halves(s)
    return float(engine.quadratic_energy_values(u, v, s.n_max, s.rho))


def hamiltonian_wick(s: PhaseState, ctx: WickContext) -> float:
    """Wick-ordered energy: quadratic part (by Parseval) plus the Wick
    potential of degree 2m + 2 averaged over the context grid."""
    if s.n_max != ctx.n_max:
        raise ValueError("state cutoff must match the context cutoff")
    ctx.grid_guard(2 * ctx.m + 2)
    pot = wick_power(s.u, 2 * ctx.m + 2, ctx).mean()
    return quadratic_energy(s) + pot / (2 * ctx.m + 2)
