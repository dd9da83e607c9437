"""The truncated Gibbs measure: importance weights and exact samplers.

The target is the probability measure with density proportional to
``exp(-V(u))`` relative to the free pair measure, with V the Wick potential
(:func:`wicknlw.engine.wick_potential_values`); only the position marginal
is reweighted, the velocity stays white noise.

Three samplers are provided:

* ``importance``: i.i.d. free samples with self-normalized weights
  ``exp(-potential)``.  Exact but degenerate beyond very small cutoffs
  (the potential has O(10) standard deviation already at N = 4).
* ``metropolis``: a chain whose proposal blends the current position with a
  fresh free sample, ``u' = sqrt(1 - b^2) u + b xi``; the acceptance ratio
  is ``min(1, exp(V(u) - V(u')))`` for every blend, and ``blend = 1`` is the
  plain independence chain.  The blend keeps the free marginal invariant,
  so detailed balance w.r.t. the target is exact for all blends.
* ``hmc``: refresh v from white noise, integrate the Wick flow by the
  reversible volume-preserving Strang splitting, and accept on the Wick
  energy error.  This samples the exact target as well and is the only
  method that mixes at production cutoffs, where the measure sits in a
  deeply ordered double-well regime.

Chains are the reproducibility unit: chain ``c`` under master ``seed`` uses
the counter-based stream ``(seed, c)``, and the driver runs the chains in
blocks of ``engine.step_rows``, so the results are bit-identical for any block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .dynamics import DynParams, wick_kick
from .free_field import (MuParams, _free_halves, point_variance,
                         rng_for_sample, sample_pair_half)
from .wick import WickContext, hermite_values

__all__ = [
    "ChainOptions",
    "sample_gibbs_arrays",
    "importance_weights",
    "single_mode_moment_quadrature",
]

# hmc trajectories take base_steps + uniform{-_JITTER, ..., _JITTER} steps
_JITTER = 3
# an effective sample size below this is flagged as degenerate
_ESS_FLOOR = 100.0
# a split R-hat above this (or not finite) is flagged as unconverged
_RHAT_CEILING = 1.1


@dataclass(frozen=True)
class ChainOptions:
    """Knobs for the Markov chain samplers.

    ``burn_in`` and ``thin`` are counted in chain moves (proposals for
    metropolis, trajectories for hmc).  ``blend`` is the metropolis mixing
    weight toward a fresh free sample (1 = independence proposals).
    ``traj_time``/``traj_dt`` size the hmc trajectories; by default the
    step targets ~40 force evaluations per trajectory.
    """

    n_chains: int = 32
    burn_in: int = 400
    thin: int = 8
    blend: float = 1.0
    traj_time: float = 0.6
    traj_dt: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.blend <= 1:
            raise ValueError("blend must lie in (0, 1]")
        if self.n_chains < 1 or self.burn_in < 0 or self.thin < 1:
            raise ValueError("invalid chain sizing")
        if not (math.isfinite(self.traj_time) and self.traj_time > 0):
            raise ValueError("traj_time must be finite and positive")
        if self.traj_dt is not None and not (math.isfinite(self.traj_dt)
                                             and self.traj_dt > 0):
            raise ValueError("traj_dt must be None or finite and positive")


def importance_weights(potentials: np.ndarray) -> np.ndarray:
    """Self-normalized weights exp(-potential) of free samples."""
    w = np.exp(-(potentials - potentials.min()))
    return w / w.sum()


def _split_rhat(series: np.ndarray) -> float:
    """Split-chain potential scale reduction (series: moves x chains)."""
    n = series.shape[0] // 2
    if n < 2:
        return float("nan")
    halves = np.concatenate([series[:n], series[n : 2 * n]], axis=1)
    w = halves.var(axis=0, ddof=1).mean()
    b = halves.mean(axis=0).var(ddof=1)
    if w == 0:
        return 1.0 if b == 0 else float("inf")
    return float(np.sqrt((w + b) / w))


def _integrated_autocorr(series: np.ndarray) -> float:
    """Integrated autocorrelation time of chain-averaged fluctuations."""
    x = series - series.mean(axis=0, keepdims=True)
    c0 = np.mean(x * x)
    if c0 == 0:
        return 1.0
    tau = 1.0
    for lag in range(1, x.shape[0] // 3):
        c = np.mean(x[:-lag] * x[lag:]) / c0
        if c < 0.02:
            break
        tau += 2.0 * c
    return float(tau)


def _chain_layout(n_samples: int, opts: ChainOptions) -> tuple[int, int, int]:
    """(chains, kept draws per chain, moves per chain) for n_samples draws;
    the moves outlast the burn-in, and every thin-th move after it keeps one."""
    n_chains = min(opts.n_chains, n_samples)
    per_chain = -(-n_samples // n_chains)  # ceil
    return n_chains, per_chain, opts.burn_in + opts.thin * per_chain


def _run_chains(params: MuParams, ctx: WickContext, n_samples: int,
                opts: ChainOptions, propose):
    """Metropolis-Hastings driver shared by the chain samplers: blocks of
    ``engine.step_rows(ctx)`` chains make all their moves in turn.

    ``propose(move, cur, pot_cur, rngs, work) -> (prop, pot_prop, log_ratio)``
    draws the move's noise from each chain stream of the block and returns
    the proposed positions, their Wick potentials and the log acceptance
    ratios, on the run's one workspace ``work``.  Each chain stream then
    gives one uniform for the accept step, and one velocity per kept draw.
    Returns the kept (u, v, potentials), the potential series (moves x
    chains) and the rate.
    """
    n_chains, per_chain, moves = _chain_layout(n_samples, opts)
    n = params.n_max
    keep_u = np.empty((n_chains, per_chain, 2 * n + 1, n + 1), dtype=complex)
    keep_v = np.empty_like(keep_u)
    keep_pot = np.empty((n_chains, per_chain))
    pot_series = np.empty((moves, n_chains))
    work: dict = {}
    accepted = 0
    step = engine.step_rows(ctx)
    for lo in range(0, n_chains, step):
        rows = slice(lo, lo + step)
        rngs = [rng_for_sample(params.seed, c) for c in range(n_chains)[rows]]
        cur = _free_halves(rngs, params, rows=2)[0]
        pot_cur = engine.wick_potential_values(cur, ctx, work)
        for mv in range(moves):
            prop, pot_prop, log_ratio = propose(mv, cur, pot_cur, rngs, work)
            unif = np.array([r.uniform() for r in rngs])
            take = np.log(unif) < log_ratio
            cur[take] = prop[take]
            pot_cur[take] = pot_prop[take]
            accepted += int(take.sum())
            pot_series[mv, rows] = pot_cur
            lag = mv - opts.burn_in + 1
            if lag > 0 and lag % opts.thin == 0:
                idx = lag // opts.thin - 1
                keep_u[rows, idx] = cur
                keep_v[rows, idx] = _free_halves(rngs, params, first=2)[0]
                keep_pot[rows, idx] = pot_cur
    return keep_u, keep_v, keep_pot, pot_series, accepted / (moves * n_chains)


def _blend_proposal(params: MuParams, ctx: WickContext, opts: ChainOptions):
    """Free-measure-preserving blend u' = sqrt(1 - b^2) u + b xi."""
    b = opts.blend
    mix = math.sqrt(1.0 - b * b)

    def propose(mv, cur, pot_cur, rngs, work):
        xi = _free_halves(rngs, params, rows=2)[0]
        prop = mix * cur + b * xi
        pot_prop = engine.wick_potential_values(prop, ctx, work)
        return prop, pot_prop, pot_cur - pot_prop

    return propose, {"method": "metropolis", "blend": b}


def _hmc_proposal(params: MuParams, ctx: WickContext, opts: ChainOptions,
                  moves: int):
    """Wave-flow HMC: v-refresh + Strang trajectory, ratio from the energy error."""
    n_max, rho = params.n_max, params.rho
    dt = opts.traj_dt
    if dt is None:
        dt = opts.traj_time / 40.0
    base_steps = max(int(round(opts.traj_time / dt)), 1)
    # stream index 2**64 - 1 is reserved for the shared schedule draws
    # (trajectory-length jitter); chains use the indices from 0 up
    sched = rng_for_sample(params.seed, (1 << 64) - 1)
    lengths = base_steps + sched.integers(-_JITTER, _JITTER + 1, size=moves)
    lengths = np.maximum(lengths, 1)
    dyn = DynParams(ctx, dt)

    def propose(mv, cur, pot_cur, rngs, work):
        # the trajectory, its force and the potentials share the workspace
        v = _free_halves(rngs, params, first=2)[0]
        h0 = engine.quadratic_energy_values(cur, v, rho) + pot_cur
        u_new, v_new = engine.run_steps(cur, v, n_max, rho, dt, int(lengths[mv]),
                                        wick_kick(dyn, work), work)
        pot_new = engine.wick_potential_values(u_new, ctx, work)
        h1 = engine.quadratic_energy_values(u_new, v_new, rho) + pot_new
        return u_new, pot_new, h0 - h1

    return propose, {"method": "hmc", "traj_dt": dt, "traj_steps": base_steps}


def sample_gibbs_arrays(ctx: WickContext, seed: int, n_samples: int,
                        method: str = "hmc",
                        opts: ChainOptions | None = None):
    """Batched sampler returning half-spectrum arrays (u, v, potentials, diag).

    The first ``n_samples`` kept draws at the cutoff and mass of ``ctx``,
    under ``seed``, in chain-major order; the diagnostics report acceptance,
    split R-hat (``r_hat_high`` when it is above 1.1 or not finite) and an
    integrated-autocorrelation-based effective sample size.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    opts = opts or ChainOptions()
    params = MuParams(ctx.n_max, ctx.rho, seed)
    if method == "importance":
        u, v = sample_pair_half(params, n_samples)
        pots = engine.wick_potential_values(u, ctx)
        w = importance_weights(pots)
        ess = float(1.0 / np.sum(w * w))
        diag = {"method": "importance", "ess": ess,
                "ess_degenerate": ess < _ESS_FLOOR}
        return u, v, pots, diag
    n_chains, _, moves = _chain_layout(n_samples, opts)
    if method == "metropolis":
        propose, diag = _blend_proposal(params, ctx, opts)
    elif method == "hmc":
        propose, diag = _hmc_proposal(params, ctx, opts, moves)
    else:
        raise ValueError(f"unknown sampler method {method!r}")
    *kept, series, rate = _run_chains(params, ctx, n_samples, opts, propose)
    u, v, pots = (a.reshape(-1, *a.shape[2:])[:n_samples] for a in kept)
    post = series[opts.burn_in :]
    r_hat, tau = _split_rhat(post), _integrated_autocorr(post)
    ess = post.size / tau
    diag.update({
        "acceptance_rate": rate, "n_chains": n_chains, "moves_per_chain": moves,
        "r_hat": r_hat, "r_hat_high": not r_hat <= _RHAT_CEILING,
        "tau_potential": tau,
        "ess": float(ess),
        "ess_degenerate": bool(ess < _ESS_FLOOR),
    })
    return u, v, pots, diag


def single_mode_moment_quadrature(rho: float, m: int = 1,
                                  moment: int = 2) -> float:
    """Gibbs expectation of u_hat(0)^moment at cutoff 0, the sampler-independent
    oracle: a trapezoid sum in log space of x^moment e^(l - max l), with l(x) =
    -H_{2m+2}(x; 1/rho)/(2m+2) - rho x^2/2 the N = 0 log-density, over |x| <= c =
    12/sqrt(min(rho, 1)); it converges geometrically at 1/16 of the well width."""
    sigma, deg, cut = point_variance(0, rho), 2 * m + 2, 12.0 / math.sqrt(min(rho, 1))

    def log_density(x: np.ndarray) -> np.ndarray:
        return -hermite_values(deg, x, sigma) / deg - 0.5 * rho * x * x

    coarse = np.linspace(-cut, cut, 4097)
    peak = coarse[np.argmax(log_density(coarse))]
    # the deepest well's width is (-l'')^(-1/2), -l'' = (2m+1) H_{2m} + rho; a flat
    # peak (m = 1, rho = sqrt 3) has -l'' = 0, and the coarse grid is kept
    curv = max((deg - 1) * float(hermite_values(deg - 2, peak, sigma)) + rho, 0.0)
    x = np.linspace(-cut, cut, max(4097, math.ceil(32 * cut * math.sqrt(curv)) + 1))
    ell = log_density(x)
    weight = np.exp(ell - ell.max())
    return float(np.sum(x ** moment * weight) / np.sum(weight))
