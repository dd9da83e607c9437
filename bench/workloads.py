"""The benchmark's workloads: CLI arguments from the seed, and output checks.

Every check recomputes its reference from first principles (closed forms,
sums over the lattice, direct convolutions) and never compares against a
stored copy of earlier output.  A check returns a list of problems; an
empty list means the round's outputs are correct.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# family-wise false-alarm probability of one round's Monte Carlo comparisons
FAMILY_ALPHA = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    args: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [self.subcommand, *self.args, "--seed", str(seed),
                "--out", str(out)]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def family_z(n_comparisons: int) -> float:
    """Two-sided Bonferroni threshold for FAMILY_ALPHA over n comparisons."""
    return statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * n_comparisons))


# ---------------------------------------------------------------------------
# invariance_hmc
# ---------------------------------------------------------------------------

INVARIANCE_OBSERVABLES = ("wick_mass", "wick_potential", "mode_sq_0_0",
                          "mode_sq_1_0", "mode_sq_1_1", "quadratic_energy")


def check_invariance(out: Path, report: dict) -> list[str]:
    problems = []
    cfg, rep = report["config"], report["report"]
    rows = _read_csv(out / "invariance.csv")
    if [r["observable"] for r in rows] != list(INVARIANCE_OBSERVABLES):
        problems.append(f"unexpected observables {[r['observable'] for r in rows]}")
    for r in rows:
        m0, s0, m1, s1 = (float(r[k]) for k in
                          ("mean_t0", "stderr_t0", "mean_T", "stderr_T"))
        z = (m1 - m0) / math.hypot(s0, s1)
        if not math.isclose(z, float(r["z_score"]), rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{r['observable']}: z {r['z_score']} != recomputed {z}")
        if abs(z) > cfg["z_threshold"]:
            problems.append(f"{r['observable']}: |z| {abs(z):.3f} above "
                            f"threshold {cfg['z_threshold']}")
    if not rep["max_rel_energy_drift"] <= cfg["drift_tol"]:
        problems.append(f"energy drift {rep['max_rel_energy_drift']} above "
                        f"{cfg['drift_tol']}")
    if rep["n_failed"] != 0 or rep["n_samples"] != cfg["samples"]:
        problems.append(f"{rep['n_failed']} failed of {rep['n_samples']} samples")
    diag = rep["sampler_diagnostics"]
    if not diag["acceptance_rate"] >= 0.9:
        problems.append(f"HMC acceptance {diag['acceptance_rate']:.3f} below 0.9")
    if report["passed"] is not True:
        problems.append(f"invariance verdict passed={report['passed']}")
    return problems


# ---------------------------------------------------------------------------
# chaos_moments
# ---------------------------------------------------------------------------


def covariance_ball(n_cut: int, rho: float) -> np.ndarray:
    """Gamma_n = 1/(rho + |n|^2) on the ball |n| <= n_cut, on [-N, N]^2."""
    k = np.arange(-n_cut, n_cut + 1)
    n2 = k[:, None] ** 2 + k[None, :] ** 2
    return np.where(n2 <= n_cut * n_cut, 1.0 / (rho + n2), 0.0)


def convolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-d convolution by shifted sums over the nonzero entries of a."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i, j in zip(*np.nonzero(a)):
        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def chaos_table(ell: int, n_cut: int, rho: float) -> np.ndarray:
    """ell! (Gamma^{*ell})(n) on [-ell N, ell N]^2: E|<:z_N^ell:, e_n>|^2."""
    gam = covariance_ball(n_cut, rho)
    table = gam
    for _ in range(ell - 1):
        table = convolve_full(table, gam)
    return math.factorial(ell) * table


def _at(table: np.ndarray, n1: int, n2: int) -> float:
    r = (table.shape[0] - 1) // 2
    if abs(n1) > r or abs(n2) > r:
        return 0.0
    return float(table[n1 + r, n2 + r])


def exact_cauchy_rms(ell: int, n_cut: int, rho: float, eps_reg: float) -> float:
    """sqrt(E ||:z_N^ell: - :z_2N^ell:||^2_{H^-eps}) for nested cutoffs.

    The cross moment of nested Wick powers is the smaller cutoff's table,
    so the mean square difference is the difference of the two tables.
    """
    small, big = chaos_table(ell, n_cut, rho), chaos_table(ell, 2 * n_cut, rho)
    lo = (big.shape[0] - small.shape[0]) // 2
    diff = big.copy()
    diff[lo : lo + small.shape[0], lo : lo + small.shape[1]] -= small
    r = (big.shape[0] - 1) // 2
    k = np.arange(-r, r + 1)
    weight = (1.0 + k[:, None] ** 2 + k[None, :] ** 2) ** (-eps_reg)
    return math.sqrt(float(np.sum(weight * diff)))


def _within(mean: float, se: float, truth: float, z: float) -> bool:
    if se == 0.0:
        return mean == truth
    return abs(mean - truth) <= z * se


def check_chaos(out: Path, report: dict) -> list[str]:
    problems = []
    cfg = report["config"]
    rho, eps_reg = cfg["rho"], cfg["eps_reg"]
    ells = range(1, cfg["ell_max"] + 1)
    cuts = [int(x) for x in cfg["n_list"].split(",")]
    moments = _read_csv(out / "chaos_moments.csv")
    cross = _read_csv(out / "chaos_cross.csv")
    cauchy = _read_csv(out / "chaos_cauchy.csv")
    if {(int(r["ell"]), int(r["n_max"])) for r in moments} != {
            (e, n) for e in ells for n in cuts}:
        problems.append("moment rows do not cover every (ell, N)")
    if len(cauchy) != len(ells) * len(cuts):
        problems.append(f"{len(cauchy)} Cauchy rows for {len(ells) * len(cuts)}")
    z = family_z(len(moments) + 2 * len(cross) + len(cauchy))
    tables = {(e, n): chaos_table(e, n, rho) for e in ells for n in cuts}
    desk = {}
    for r in moments:
        ell, n_cut = int(r["ell"]), int(r["n_max"])
        mode = (int(r["mode_1"]), int(r["mode_2"]))
        exact = _at(tables[(ell, n_cut)], *mode)
        analytic = float(r["analytic"])
        desk[(ell, n_cut, mode)] = analytic
        if not math.isclose(analytic, exact, rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"analytic {analytic} != exact {exact} at "
                            f"ell={ell} N={n_cut} n={mode}")
        if not _within(float(r["mc_estimate"]), float(r["stderr"]), exact, z):
            problems.append(f"Monte Carlo {r['mc_estimate']} +- {r['stderr']} "
                            f"misses exact {exact} at ell={ell} N={n_cut} n={mode}")
    # at rho = 1: Gamma_(1,0) = 1/2, and 2 sum_{|k|<=1} Gamma_k^2 = 2 (1 + 4/4) = 4
    for key, want in (((1, 1, (1, 0)), 0.5), ((2, 1, (0, 0)), 4.0)):
        if not math.isclose(desk.get(key, math.nan), want, rel_tol=1e-12):
            problems.append(f"desk value {key}: {desk.get(key)} != {want}")
    for r in cross:
        for part in ("real", "imag"):
            if not _within(float(r[f"mean_{part}"]), float(r[f"stderr_{part}"]),
                           0.0, z):
                problems.append(f"cross moment ({part}) {r[f'mean_{part}']} not "
                                f"zero at ell={r['ell']} N={r['n_max']}")
    for r in cauchy:
        ell, n_cut = int(r["ell"]), int(r["n_max"])
        rms = exact_cauchy_rms(ell, n_cut, rho, eps_reg)
        # Jensen: E||d|| <= sqrt(E||d||^2); the estimate may exceed it by noise
        if not float(r["distance"]) <= rms + z * float(r["stderr"]):
            problems.append(f"Cauchy d({n_cut}) = {r['distance']} above the exact "
                            f"RMS {rms} at ell={ell}")
    return problems


# ---------------------------------------------------------------------------
# universality_ladder
# ---------------------------------------------------------------------------


def point_variance(n_cut: int, rho: float) -> float:
    """sigma_N = sum over |n| <= N of 1/(rho + |n|^2)."""
    return float(np.sum(covariance_ball(n_cut, rho)))


SIN_D1, SIN_D3 = 1.0, -1.0  # sin'(0), sin'''(0)


def check_universality(out: Path, report: dict) -> list[str]:
    problems = []
    cfg = report["config"]
    rho = cfg["rho"]
    rows = _read_csv(out / "universality.csv")
    eps = [float(x) for x in cfg["eps_list"].split(",")]
    if cfg["f"] != "sin":
        problems.append(f"the rho_eps check knows f = sin only, not {cfg['f']}")
    if [float(r["eps"]) for r in rows] != eps:
        problems.append("rungs do not match the eps ladder")
    if any(r["failed"] != "False" for r in rows):
        problems.append("a rung failed")
    dists = [float(r["sup_distance"]) for r in rows]
    if not all(a > b for a, b in zip(dists, dists[1:])):
        problems.append(f"distances not strictly decreasing: {dists}")
    for r in rows:
        e = float(r["eps"])
        n_cut = math.floor(1.0 / e)
        sigma = point_variance(n_cut, rho)
        want = SIN_D1 + e * e * rho + e * e * sigma * SIN_D3 / 2.0
        if int(r["n_cut"]) != n_cut:
            problems.append(f"eps {e}: cutoff {r['n_cut']} != {n_cut}")
        if not math.isclose(float(r["rho_eps"]), want, rel_tol=1e-12):
            problems.append(f"eps {e}: rho_eps {r['rho_eps']} != {want}")
    problems += check_cubic_forcing(eps, rho, seed=cfg["seed"])
    return problems


def check_cubic_forcing(eps_list: list[float], rho: float, seed: int) -> list[str]:
    """The rescaled pure-cubic forcing is -H_3(x; sigma_eps)/6 exactly.

    Evaluates the program's pointwise forcing on seeded random grids and
    compares with the closed form -(x^3 - 3 sigma x)/6.
    """
    from wicknlw.experiments import NONLINEARITIES, scaled_forcing_grid

    rng = np.random.default_rng(seed)
    problems = []
    for e in eps_list:
        sigma = point_variance(math.floor(1.0 / e), rho)
        x = 3.0 * rng.standard_normal((16, 16))
        got = scaled_forcing_grid(NONLINEARITIES["cubic"], e, rho, x)
        want = -(x ** 3 - 3.0 * sigma * x) / 6.0
        err = float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
        if err > 1e-10:
            problems.append(f"eps {e}: cubic forcing off by {err:.2e}")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "invariance_hmc",
            "HMC sampling then batched Strang evolution at N = 8: the engine "
            "force kernels and their FFTs; no fields transforms, no Hermite "
            "recurrence",
            "invariance",
            ("--n", "8", "--m", "1", "--rho", "1", "--method", "hmc",
             "--chains", "16", "--burn-in", "200", "--thin", "2",
             "--samples", "512", "--T", "0.1", "--dt", "1e-3"),
            check_invariance),
        Workload(
            "chaos_moments",
            "free sampling, fields transforms on grids up to 100^2 and the "
            "generic Hermite recurrence; no engine force kernel, no Gibbs "
            "sampler; peaks near 1 GB",
            "chaos",
            ("--ell-max", "3", "--n-list", "1,4,8", "--rho", "1",
             "--t-eval", "0.3", "--samples", "2048"),
            check_chaos),
        Workload(
            "universality_ladder",
            "single trajectories (batch 1) at cutoffs up to 64: per-call "
            "overhead in fields, engine.run_steps and the Trajectory path",
            "universality",
            ("--f", "sin", "--eps-list", "0.125,0.0625,0.03125,0.015625",
             "--rho", "1", "--s", "-0.1", "--T", "0.5", "--dt", "1e-3"),
            check_universality),
    )
}
