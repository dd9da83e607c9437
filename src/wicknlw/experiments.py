"""The headline studies: measure invariance, chaos moments, scaling limit.

Every study is seed-deterministic: Monte Carlo units (samples, chains,
epsilon rows) derive their randomness from counter-based streams, so a
rerun with the same configuration reproduces all numbers bit-exactly on
one platform regardless of how work is chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import engine
from .dynamics import (DynParams, IntegrationError, Trajectory, evolve,
                       record_count, records, step_schedule, wick_kick)
from .fields import (
    _scratch,
    alias_free_grid,
    grid_from_half,
    half_from_grid,
    half_weights,
    project,
    sobolev_norm,
)
from .free_field import (
    MuParams,
    _block_size,
    _sample_block,
    chaos_second_moment,
    covariance_field,
    point_variance,
    sample_free_field,
    sample_pair_half,
)
from .gibbs import ChainOptions, sample_gibbs_arrays
from .wick import WickContext, hermite_values, wick_power

__all__ = [
    "DEFAULT_OBSERVABLES",
    "CHAOS_MODES",
    "HERMITE_POINTS",
    "observable_matrix",
    "InvarianceReport",
    "invariance_test",
    "ChaosReport",
    "chaos_convergence_study",
    "hermite_moment_study",
    "Nonlinearity",
    "NONLINEARITIES",
    "counterterm_mass",
    "scaled_forcing_grid",
    "scaled_force_fn",
    "evolve_scaled",
    "UniversalityReport",
    "universality_experiment",
]

DEFAULT_OBSERVABLES = (
    "wick_mass",
    "wick_potential",
    "mode_sq_0_0",
    "mode_sq_1_0",
    "mode_sq_1_1",
    "quadratic_energy",
)

# modes whose Wick-power coefficients chaos_convergence_study estimates
CHAOS_MODES = ((0, 0), (1, 0), (2, 1))
# torus points whose field values hermite_moment_study pairs
HERMITE_POINTS = ((0.0, 0.0), (0.4, 0.0), (1.1, 2.2))


def _mode_coeff(half: np.ndarray, n_max: int, mode: tuple[int, int]) -> np.ndarray:
    """Coefficient of a mode from the half layout (conjugate for n2 < 0)."""
    n1, n2 = mode
    if abs(n1) > n_max or abs(n2) > n_max:
        return np.zeros(half.shape[:-2], dtype=complex)
    if n2 >= 0:
        return half[..., n1 + n_max, n2]
    return np.conj(half[..., -n1 + n_max, -n2])


def observable_matrix(u: np.ndarray, v: np.ndarray, ctx: WickContext,
                      work: dict | None = None) -> np.ndarray:
    """Default observables per sample, columns as in DEFAULT_OBSERVABLES.

    The potential's grids are buffers of the workspace ``work`` when one
    is given (see :func:`engine.wick_potential_values`).
    """
    n = ctx.n_max
    cols = [
        engine.wick_mass_values(u, ctx),
        engine.wick_potential_values(u, ctx, work),
        *(np.abs(_mode_coeff(u, n, mo)) ** 2 for mo in ((0, 0), (1, 0), (1, 1))),
        engine.quadratic_energy_values(u, v, ctx.n_max, ctx.rho),
    ]
    return np.stack(cols, axis=-1)


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of vals and its standard error: the sample deviation
    (n - 1 degrees of freedom) over sqrt(n)."""
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


# ---------------------------------------------------------------------------
# invariance of the Gibbs measure under the truncated flow
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    """Per-observable drift between the initial and evolved ensembles."""

    observables: list[dict]
    n_samples: int
    n_failed: int
    t_final: float
    dt: float
    max_rel_energy_drift: float
    mean_rel_energy_drift: float
    sampler_diagnostics: dict
    z_threshold: float
    drift_tol: float
    passed: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _zscore(a0: np.ndarray, a1: np.ndarray) -> tuple[float, float, float, float, float]:
    (m0, s0), (m1, s1) = _mean_se(a0), _mean_se(a1)
    # an overflowed mean or standard error has no z; NaN fails the row
    finite = all(map(math.isfinite, (m0, s0, m1, s1)))
    z = math.nan if not finite else 0.0 if m1 == m0 else (m1 - m0) / math.hypot(s0, s1)
    return m0, s0, m1, s1, z


def invariance_test(dyn: DynParams, t_final: float, n_samples: int, seed: int,
                    method: str = "hmc", opts: ChainOptions | None = None,
                    z_threshold: float = 3.0, drift_tol: float = 1e-3,
                    ) -> InvarianceReport:
    """Draw Gibbs samples, evolve each by t_final, and z-test every default
    observable between the two time slices.

    PASS requires all |z| <= z_threshold and a maximal relative energy
    drift below drift_tol.  The z denominator combines the two slices'
    standard errors without the (favorable) cross-covariance, which makes
    the test conservative for independent samples.

    The evolution streams: one block of ``engine.step_rows(ctx)`` samples
    at a time, on one workspace, gets its t = 0 observables, its Strang
    segment and partial step, its finite mask and the t = T observables
    of its finite rows.  Only the two observable matrices and the mask
    outlive a block, besides the sampler's arrays.  Rows are independent
    and keep their order, so the report equals that of one pass over the
    whole ensemble.
    """
    if t_final < 0:
        raise ValueError("final time must be nonnegative")
    if n_samples < 2:
        raise ValueError("need at least two samples for standard errors")
    if method == "importance" and t_final > 0:
        # the importance ensemble is weighted; the paired z-test below
        # assumes equally weighted samples
        raise ValueError("invariance testing needs an unweighted sampler "
                         "(metropolis or hmc)")
    ctx = dyn.ctx
    u, v, _, diag = sample_gibbs_arrays(ctx, seed, n_samples, method, opts)
    n_steps, remainder = step_schedule(t_final, dyn.dt)
    work: dict = {}
    kick = wick_kick(dyn, work)
    obs0 = np.empty((n_samples, len(DEFAULT_OBSERVABLES)))
    obs1 = np.empty_like(obs0)
    ok = np.empty(n_samples, dtype=bool)
    block = engine.step_rows(ctx)
    # a diverged run is reported through n_failed and null z and drift, so
    # its overflows are not warned about as well
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_samples, block):
            blk = slice(lo, lo + block)
            ub, vb = u[blk], v[blk]
            obs0[blk] = observable_matrix(ub, vb, ctx, work)
            if n_steps:
                ub, vb = engine.run_steps(ub, vb, ctx.n_max, ctx.rho, dyn.dt,
                                          n_steps, kick, work)
            if remainder:
                ub, vb = engine.run_steps(ub, vb, ctx.n_max, ctx.rho,
                                          remainder, 1, kick, work)
            okb = ok[blk]
            np.logical_and(np.isfinite(ub).reshape(len(ub), -1).all(axis=1),
                           np.isfinite(vb).reshape(len(vb), -1).all(axis=1),
                           out=okb)
            obs1[blk][okb] = observable_matrix(ub[okb], vb[okb], ctx, work)
        n_failed = n_samples - int(ok.sum())
        if n_samples - n_failed < 2:
            # no standard error without two finite evolved samples
            raise IntegrationError(t_final)

        # H = quadratic_energy + wick_potential, as in engine.hamiltonian_values
        obs0, obs1 = obs0[ok], obs1[ok]
        h0 = obs0[:, 5] + obs0[:, 1]
        h1 = obs1[:, 5] + obs1[:, 1]
        drift = np.abs(h1 - h0) / (1.0 + np.abs(h0))

        rows = []
        all_pass = True
        for j, name in enumerate(DEFAULT_OBSERVABLES):
            m0, s0, m1, s1, z = _zscore(obs0[:, j], obs1[:, j])
            rows.append({"observable": name, "mean_t0": m0, "stderr_t0": s0,
                         "mean_T": m1, "stderr_T": s1, "z_score": z})
            all_pass &= abs(z) <= z_threshold
        max_drift, mean_drift = float(drift.max()), float(drift.mean())
    passed = bool(all_pass and max_drift <= drift_tol and n_failed == 0)
    return InvarianceReport(rows, n_samples, n_failed, t_final, dyn.dt,
                            max_drift, mean_drift, diag, z_threshold,
                            drift_tol, passed)


# ---------------------------------------------------------------------------
# Wiener chaos: second moments, orthogonality, Cauchy refinement
# ---------------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Monte Carlo chaos moments against the exact convolution oracle."""

    moment_rows: list[dict]
    cross_rows: list[dict]
    cauchy_rows: list[dict]
    n_samples: int
    t_eval: float
    eps_reg: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _subtract_padded(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a -= b in place in half layout, b's smaller cutoff zero-padded to a's."""
    n_a, n_b = (a.shape[-2] - 1) // 2, (b.shape[-2] - 1) // 2
    a[..., n_a - n_b : n_a + n_b + 1, : n_b + 1] -= b
    return a


def _half_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b in half layout, the smaller cutoff zero-padded to the larger."""
    if a.shape[-2] < b.shape[-2]:
        return -_half_difference(b, a)
    return _subtract_padded(a.copy(), b)


# bench/tracer.py wraps the study's former name for wick.wick_power; it
# stays bound only for it, outside __all__
wick_power_spectrum = wick_power


def chaos_convergence_study(ell_max: int, n_list: list[int], rho: float,
                            t_eval: float, eps_reg: float, n_samples: int,
                            seed: int, cauchy: bool = True) -> ChaosReport:
    """Moments of Wick powers of the free evolution against exact values.

    For each degree ell <= ell_max and cutoff N in n_list, estimates
    E|<wick power, e_n>|^2 on the modes CHAOS_MODES and the cross moments
    between distinct modes (exactly zero in law).  With ``cauchy`` also
    estimates d(N) = E ||:z_N^ell: - :z_{2N}^ell:||_{H^{-eps_reg}} from the
    same nested samples, the refinement sequence whose decay certifies
    convergence of the renormalized powers.

    Samples run in blocks sized by ``_block_size`` from the largest
    Hermite grid, so peak memory is set by the cutoffs, not by
    ``n_samples``; only a few scalars per sample are kept across blocks.
    """
    if ell_max < 1 or ell_max > 4:
        raise ValueError("chaos degree must be in 1..4")
    if n_samples < 2:
        raise ValueError("need at least two samples for standard errors")
    if not n_list:
        raise ValueError("cutoff list is empty")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        # a repeated cutoff would feed every sample to its accumulators twice
        raise ValueError(f"cutoff list {list(n_list)} must be strictly increasing")
    if cauchy and 0 in n_list:
        # 2 * 0 = 0: d(0) would compare the cutoff-0 power with itself
        raise ValueError("cutoff 0 is its own double, so d(0) would compare it "
                         "with itself; drop it or turn cauchy off")
    n_hi = 2 * max(n_list) if cauchy else max(n_list)
    params = MuParams(n_hi, rho, seed)
    cuts = sorted({*n_list, *(2 * n for n in n_list)} if cauchy else set(n_list))
    sig = {n: point_variance(n, rho) for n in cuts}

    m_big = max(alias_free_grid(c, 2 * ell_max - 1) for c in cuts)
    block = _block_size(m_big * m_big)

    # one workspace for the whole study: each spectrum is the workspace's
    # `half` buffer, read at once; a cutoff whose 2N partner is still to
    # come keeps a copy, and d(N) is taken in place in the 2N spectrum
    work = {}
    acc_sq = {}    # (ell, n_cut, mode) -> list of |c|^2 block arrays
    acc_cross = {}
    acc_d = {}
    for lo in range(0, n_samples, block):
        hi = min(lo + block, n_samples)
        u0, v0 = sample_pair_half(params, hi - lo, lo, work)
        z_t, _ = engine.rotate(u0, v0, n_hi, rho, t_eval, work)
        kept = {}  # (ell, 2N) -> copy of the cutoff-N spectrum
        for n_cut in cuts:
            z_n = project(z_t, n_cut)
            for ell in range(1, ell_max + 1):
                sp = wick_power(z_n, ell, sig[n_cut], work)
                if n_cut in n_list:
                    coeffs = {mo: _mode_coeff(sp, ell * n_cut, mo)
                              for mo in CHAOS_MODES}
                    for mo in CHAOS_MODES:
                        acc_sq.setdefault((ell, n_cut, mo), []).append(
                            np.abs(coeffs[mo]) ** 2)
                    for mo_a, mo_b in combinations(CHAOS_MODES, 2):
                        acc_cross.setdefault((ell, n_cut, mo_a, mo_b), []).append(
                            coeffs[mo_a] * np.conj(coeffs[mo_b]))
                    if cauchy:
                        kept[(ell, 2 * n_cut)] = sp.copy()
                small = kept.pop((ell, n_cut), None)
                if small is not None:
                    acc_d.setdefault((ell, n_cut // 2), []).append(sobolev_norm(
                        _subtract_padded(sp, small), -eps_reg, work))
    moment_rows = []
    for (ell, n_cut, mo), chunks in acc_sq.items():
        mean, se = _mean_se(np.concatenate(chunks))
        moment_rows.append({
            "ell": ell, "n_max": n_cut, "mode": list(mo),
            "mc_estimate": mean, "stderr": se,
            "analytic": chaos_second_moment(ell, n_cut, rho, mo),
        })
    cross_rows = []
    for (ell, n_cut, mo_a, mo_b), chunks in acc_cross.items():
        vals = np.concatenate(chunks)
        (m_re, se_re), (m_im, se_im) = _mean_se(vals.real), _mean_se(vals.imag)
        cross_rows.append({
            "ell": ell, "n_max": n_cut,
            "mode_a": list(mo_a), "mode_b": list(mo_b),
            "mean_real": m_re, "stderr_real": se_re,
            "mean_imag": m_im, "stderr_imag": se_im,
        })
    cauchy_rows = []
    for (ell, n_cut), chunks in acc_d.items():
        mean, se = _mean_se(np.concatenate(chunks))
        cauchy_rows.append({"ell": ell, "n_max": n_cut, "distance": mean,
                            "stderr": se})
    return ChaosReport(moment_rows, cross_rows, cauchy_rows, n_samples,
                       t_eval, eps_reg)


# ---------------------------------------------------------------------------
# Gaussian moment identities for Hermite polynomials of field evaluations
# ---------------------------------------------------------------------------


def hermite_moment_study(n_max: int, rho: float, k_max: int, n_samples: int,
                         seed: int, t_eval: float = 0.0) -> list[dict]:
    """Monte Carlo E[H_k(W_x) H_m(W_y)] against delta_{km} k! <f, g>^k.

    W_x is the normalized field evaluation z(t, x)/sqrt(sigma); the unit
    test directions have exact inner product gamma(x - y)/sigma, computed
    from the covariance coefficients.  With x0 the first of HERMITE_POINTS,
    the pairs are (x0, x0) plus (x0, y) for each later point y.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for standard errors")
    if k_max < 0:
        raise ValueError("Hermite degree k_max must be nonnegative")
    params = MuParams(n_max, rho, seed)
    sigma = point_variance(n_max, rho)
    n1 = np.arange(-n_max, n_max + 1)[:, None]
    n2 = np.arange(n_max + 1)

    def weights(x) -> np.ndarray:
        # e^{i n.x} on the half columns, times their Parseval weights
        return half_weights(n_max) * np.exp(1j * (n1 * x[0] + n2 * x[1]))

    def evaluate(half: np.ndarray, w: np.ndarray) -> np.ndarray:
        # sum_n c_n e^{i n.x} over the full square of a real field
        return np.sum((half * w).real, axis=(-2, -1))

    gam = covariance_field(n_max, rho)[:, n_max:]
    x0 = HERMITE_POINTS[0]
    pairs = [(x0, x0)] + [(x0, q) for q in HERMITE_POINTS[1:]]
    phases = [(weights(x), weights(y)) for x, y in pairs]

    vals_x = [[] for _ in pairs]
    vals_y = [[] for _ in pairs]
    block = _sample_block(n_max)
    for lo in range(0, n_samples, block):
        hi = min(lo + block, n_samples)
        u0, v0 = sample_pair_half(params, hi - lo, start_index=lo)
        z, _ = engine.rotate(u0, v0, n_max, rho, t_eval)
        for idx, (px, py) in enumerate(phases):
            vals_x[idx].append(evaluate(z, px) / math.sqrt(sigma))
            vals_y[idx].append(evaluate(z, py) / math.sqrt(sigma))

    rows = []
    for idx, (x, y) in enumerate(pairs):
        wx = np.concatenate(vals_x[idx])
        wy = np.concatenate(vals_y[idx])
        inner = float(evaluate(gam, weights((x[0] - y[0], x[1] - y[1])))) / sigma
        for k in range(k_max + 1):
            hk = hermite_values(k, wx, 1.0)
            for m in range(k_max + 1):
                hm = hermite_values(m, wy, 1.0)
                mean, se = _mean_se(hk * hm)
                expected = math.factorial(k) * inner ** k if k == m else 0.0
                rows.append({
                    "x": list(x), "y": list(y), "k": k, "m": m,
                    "mc_estimate": mean, "stderr": se, "expected": expected,
                })
    return rows


# ---------------------------------------------------------------------------
# weak universality scaling limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nonlinearity:
    """A microscopic nonlinearity with the derivatives the scaling needs."""

    name: str
    fn: object            # vectorized x -> f(x)
    d1: float             # f'(0)
    d3: float             # f'''(0)
    d4_bound: float       # sup |f''''| on the operating range

    @property
    def limit_coupling(self) -> float:
        """Coefficient of the limiting renormalized cubic term: f'''(0)/6."""
        return self.d3 / 6.0


NONLINEARITIES = {
    "sin": Nonlinearity("sin", np.sin, 1.0, -1.0, 1.0),
    "cubic": Nonlinearity("cubic", lambda x: -(x ** 3) / 6.0, 0.0, -1.0, 0.0),
    "linear": Nonlinearity("linear", lambda x: x, 1.0, 0.0, 0.0),
}


def counterterm_mass(f: Nonlinearity, eps: float, rho: float) -> float:
    """The mass tuning f'(0) + eps^2 rho + eps^2 sigma_eps f'''(0)/2.

    sigma_eps is the point variance at the data cutoff floor(1/eps); with
    this choice the linear term of the rescaled forcing cancels exactly.
    """
    if not 0 < eps <= 1:
        raise ValueError("scaling parameter eps must lie in (0, 1]")
    sigma_eps = point_variance(int(math.floor(1.0 / eps)), rho)
    return f.d1 + eps * eps * rho + eps * eps * sigma_eps * f.d3 / 2.0


def _linear_coeff(f: Nonlinearity, eps: float, rho: float) -> float:
    """The coefficient (eps^2 rho - rho_eps) / eps^2 of u in the rescaled forcing."""
    return (eps * eps * rho - counterterm_mass(f, eps, rho)) / (eps * eps)


def _forcing(f: Nonlinearity, eps: float, lin: float, g: np.ndarray,
             work: dict | None) -> np.ndarray:
    """eps^{-3} f(eps g) + lin * g in place over the float grid g: a ufunc f
    (np.sin) writes over eps g, buffer ``scaled``; other maps return new arrays."""
    x = np.multiply(g, eps, out=_scratch(work, "scaled", g.shape))
    vals = f.fn(x, out=x) if isinstance(f.fn, np.ufunc) else f.fn(x)
    vals *= eps ** -3
    g *= lin
    vals += g
    return vals


def scaled_forcing_grid(f: Nonlinearity, eps: float, rho: float,
                        values: np.ndarray) -> np.ndarray:
    """Pointwise rescaled forcing eps^{-3} f(eps u) + lin u, as the hook computes it."""
    return _forcing(f, eps, _linear_coeff(f, eps, rho),
                    np.array(values, dtype=float), None)


def scaled_force_fn(f: Nonlinearity, eps: float, rho: float, n_cut: int,
                    work: dict | None = None):
    """Spectral kick for the rescaled microscopic equation at cutoff n_cut.

    Pointwise evaluation on a grid alias-safe through the quartic Taylor
    order, then projection back to the working cutoff.  Like
    :func:`wicknlw.dynamics.wick_kick`, the hook ``force(u)`` draws its
    grids from the workspace ``work`` when one is given and returns the
    same buffer on every call; without one it returns fresh arrays.
    """
    m_grid = alias_free_grid(n_cut, 4)
    lin = _linear_coeff(f, eps, rho)

    def force(u: np.ndarray) -> np.ndarray:
        g = grid_from_half(u, m_grid, work)
        return half_from_grid(_forcing(f, eps, lin, g, work), n_cut, work)

    return force


def _rung(master: tuple[np.ndarray, np.ndarray], n_cut: int, f: Nonlinearity,
          rho: float, dt: float) -> tuple[np.ndarray, np.ndarray, DynParams]:
    """(u, v, dyn) of one ladder run at cutoff n_cut: the data projected from
    the free sample ``master``, the limit's cubic coupling f'''(0)/6."""
    u, v = (project(a, n_cut) for a in master)
    dyn = DynParams(WickContext.create(n_cut, rho, 1), dt, lam=f.limit_coupling)
    return u, v, dyn


def evolve_scaled(eps: float, f: Nonlinearity, rho: float, t_final: float,
                  dt: float, seed: int, record_every: int = 1,
                  n_master: int | None = None) -> Trajectory:
    """Integrate the rescaled microscopic equation at cutoff floor(1/eps).

    Initial data is the projection of the first free sample under ``seed``,
    drawn at cutoff ``n_master`` (default: the working cutoff), so runs at
    different eps under one seed share nested data.
    """
    n_cut = int(math.floor(1.0 / eps))
    if n_master is None:
        n_master = n_cut
    master = sample_free_field(MuParams(n_master, rho, seed))
    u, v, dyn = _rung(master, n_cut, f, rho, dt)
    return evolve(u, v, t_final, dyn, record_every=record_every,
                  force=scaled_force_fn(f, eps, rho, n_cut, {}))


@dataclass
class UniversalityReport:
    """Distance ladder between rescaled solutions and the renormalized limit."""

    rows: list[dict]
    f_name: str
    s: float
    t_final: float
    dt: float
    seed: int
    n_ref: int
    ref_refinement_distance: float | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def distances(self) -> list[float]:
        return [r["sup_distance"] for r in self.rows if not r["failed"]]


def _sup_distance(us, ref: np.ndarray, s: float) -> float:
    """sup over the records of ||u - ref||_{H^s} at the larger cutoff.

    ``us`` yields the u records one at a time (a run's records, or the
    rows of a stack) and is consumed as it goes; ``ref`` is a stack with
    the same recording times.
    """
    sup, n = None, 0
    for n, u in enumerate(us, 1):
        if n > len(ref):
            break
        d = sobolev_norm(_half_difference(u, ref[n - 1]), s)
        # the comparison of Python's max(), NaN included
        if sup is None or d > sup:
            sup = d
    if n != len(ref):
        raise ValueError("record stacks must share recording times")
    return float(sup)


def universality_experiment(f: Nonlinearity, eps_list: list[float],
                            rho: float, s: float, t_final: float, dt: float,
                            seed: int) -> UniversalityReport:
    """Distance ladder sup_t ||u_eps(t) - u(t)||_{H^s} for decreasing eps.

    The limit u solves the renormalized cubic equation with coupling
    f'''(0)/6 at the reference cutoff n_ref = floor(1/min eps), the
    largest rung cutoff; all runs share one master free sample at n_ref
    under ``seed``, so the data are nested truncations.  Every run records
    u about 40 times over t_final (every max(1, round(t_final/dt/40))
    steps) and is compared with the reference record by record.
    """
    eps_arr = list(eps_list)
    if not eps_arr:
        raise ValueError("eps ladder is empty")
    if any(not 0 < e <= 1 for e in eps_arr):
        raise ValueError("eps values must lie in (0, 1]")
    if not all(a > b for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if s >= 0:
        raise ValueError("comparison regularity s must be negative")
    n_ref = int(math.floor(1.0 / min(eps_arr)))
    record_every = max(1, int(round(t_final / dt / 40.0)))
    master = sample_free_field(MuParams(n_ref, rho, seed))

    def us(n_cut: int, force=None):
        u, v, dyn = _rung(master, n_cut, f, rho, dt)
        return (u for _, u, _ in records(u, v, t_final, dyn, record_every,
                                         force))

    # the one stack the ladder keeps; every other run is compared with it
    # record by record as it is integrated
    ref = np.empty((record_count(t_final, dt, record_every),)
                   + master[0].shape, dtype=complex)
    for i, u in enumerate(us(n_ref)):
        ref[i] = u
    ref_refine = (None if n_ref < 2 else  # cutoff 1 has no coarser reference
                  _sup_distance(us(n_ref // 2), ref, s))

    rows = []
    for eps in eps_arr:
        n_cut = int(math.floor(1.0 / eps))
        row = {"eps": eps, "n_cut": n_cut,
               "rho_eps": counterterm_mass(f, eps, rho),
               "sup_distance": float("nan"), "failed": False}
        try:
            row["sup_distance"] = _sup_distance(
                us(n_cut, scaled_force_fn(f, eps, rho, n_cut, {})), ref, s)
        except IntegrationError:
            row["failed"] = True
        rows.append(row)
    return UniversalityReport(rows, f.name, s, t_final, dt, seed, n_ref,
                              ref_refine)
