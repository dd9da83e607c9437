"""Command-line driver: configuration, seeding, dispatch, result emission.

Subcommands: sample | evolve | gibbs | invariance | chaos | universality.
Every run setting is one :class:`RunConfig` field.  Its key is accepted in
``key = value`` lines of an optional ``--config`` file, and its flag
``--key`` (``_`` written as ``-``; ``--no-key`` for a setting that is on
by default) by the subcommands that ``_SUBCOMMANDS`` lists it for.  Flags
override the file; :meth:`RunConfig.validate` checks the resolved values,
and the fully resolved configuration is echoed into every JSON report.
Exit codes: 0 success / statistical PASS, 2 configuration error, 3
numerical failure, 4 statistical FAIL.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from . import engine
from .dynamics import DynParams, IntegrationError, default_dt, evolve, record_count
from .experiments import (
    NONLINEARITIES,
    chaos_convergence_study,
    invariance_test,
    observable_matrix,
    universality_experiment,
)
from .fields import full_from_half
from .free_field import MuParams, _block_size, sample_free_field, sample_pair_half
from .gibbs import ChainOptions, sample_gibbs_arrays
from .reporting import (
    provenance,
    trajectory_table,
    write_csv,
    write_field_csv,
    write_json_report,
)
from .wick import WickContext

__all__ = ["RunConfig", "parse_config", "dispatch", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STATISTICAL = 4

# most Strang steps T / dt one run may plan; criterion 08 takes 1000
MAX_STEPS = 10 ** 6
# most bytes of recorded (u, v) states one evolve run may keep
MAX_RECORD_BYTES = 2 ** 30


def _setting(default, help_text: str):
    """A RunConfig field whose flag shows ``help_text`` in ``--help``."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    """Fully resolved run configuration (validated by dispatch)."""

    subcommand: str
    n: int = _setting(8, "spectral cutoff")
    rho: float = _setting(1.0, "mass parameter")
    m: int = _setting(1, "nonlinearity index")
    dt: float = _setting(0.0, "time step")      # 0 -> derived default
    T: float = _setting(1.0, "final time")
    samples: int = _setting(1000, "Monte Carlo samples")
    seed: int = _setting(0, "master RNG seed")
    out: str = _setting("runs", "output directory")
    record_every: int = 0        # 0 -> auto
    init: str = "mu"             # evolve initial data: mu | zero
    dump_states: bool = _setting(False,
                                 "also write recorded states to states.npz")
    method: str = "hmc"          # gibbs sampler method
    chains: int = 32
    burn_in: int = 400
    thin: int = 8
    blend: float = 1.0
    drift_tol: float = 1e-3
    z_threshold: float = 3.0
    ell_max: int = 3
    n_list: str = "1,4,8"
    t_eval: float = 0.0
    eps_reg: float = 0.25
    cauchy: bool = True
    eps_list: str = "0.125,0.0625,0.03125"
    s: float = -0.1
    f: str = "sin"

    def validate(self) -> None:
        for f in dc_fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.rho <= 0:
            raise ConfigError("rho must be positive (massless zero mode is not normalizable)")
        if self.n < 0:
            raise ConfigError("n must be nonnegative")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.dt < 0:
            raise ConfigError("dt must be positive (or omitted for the default)")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.method not in ("hmc", "metropolis", "importance"):
            raise ConfigError(f"unknown sampler method {self.method!r}")
        if self.init not in ("mu", "zero"):
            raise ConfigError(f"unknown init {self.init!r}")
        if self.f not in NONLINEARITIES:
            raise ConfigError(f"unknown nonlinearity {self.f!r}; "
                              f"choices: {sorted(NONLINEARITIES)}")
        if not 0 < self.blend <= 1:
            raise ConfigError("blend must lie in (0, 1]")
        steps = self.T / self.resolved_dt()
        if steps > MAX_STEPS:
            raise ConfigError(f"T / dt = {self.T:g} / {self.resolved_dt():g} "
                              f"plans {steps:.3g} steps, above the budget of "
                              f"{MAX_STEPS:g}; raise dt or lower T")
        if self.subcommand == "evolve":
            rec = self.resolved_record_every()
            records = record_count(self.T, self.resolved_dt(), rec)
            nbytes = records * 2 * (2 * self.n + 1) * (self.n + 1) * 16
            if nbytes > MAX_RECORD_BYTES:
                raise ConfigError(
                    f"T / dt / record_every = {self.T:g} / {self.resolved_dt():g}"
                    f" / {rec} keeps {records:.3g} records, {nbytes / 2**20:.0f}"
                    f" MiB of states, above the budget of "
                    f"{MAX_RECORD_BYTES / 2**20:.0f} MiB; raise record_every or"
                    f" dt, or lower T")

    def resolved_dt(self) -> float:
        return self.dt if self.dt > 0 else default_dt(self.n, self.rho)

    def resolved_record_every(self) -> int:
        """record_every, or about 200 records over T when it is 0."""
        return self.record_every or max(1, int(round(self.T / self.resolved_dt() / 200)))

    def eps_values(self) -> list[float]:
        try:
            return [float(x) for x in self.eps_list.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad eps_list: {exc}") from exc

    def n_values(self) -> list[int]:
        try:
            return [int(x) for x in self.n_list.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad n_list: {exc}") from exc

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


class ConfigError(ValueError):
    pass


_COMMON_KEYS = ("n", "rho", "m", "dt", "T", "samples", "seed", "out")
_SAMPLER_KEYS = ("method", "chains", "burn_in", "thin", "blend")
# subcommand -> (help text, the RunConfig keys it takes besides _COMMON_KEYS)
_SUBCOMMANDS = {
    "sample": ("draw free-measure samples", ()),
    "evolve": ("integrate one trajectory",
               ("record_every", "init", "dump_states")),
    "gibbs": ("sample the truncated Gibbs measure", _SAMPLER_KEYS),
    "invariance": ("Gibbs invariance z-test",
                   _SAMPLER_KEYS + ("drift_tol", "z_threshold")),
    "chaos": ("Wiener chaos moment study",
              ("ell_max", "n_list", "t_eval", "eps_reg", "cauchy")),
    "universality": ("weak-universality scaling ladder",
                     ("eps_list", "s", "f")),
}
# field annotation -> parser of a flag or config-file value
_TYPES = {"int": int, "float": float, "str": str}


def _parse_value(key: str, raw: str):
    kind = RunConfig.__dataclass_fields__[key].type
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    return _TYPES[kind](raw)


def read_config_file(path: str | Path) -> dict:
    """Plain-text ``key = value`` configuration; unknown keys are rejected."""
    known = set(RunConfig.__dataclass_fields__) - {"subcommand"}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _parse_value(key, raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wicknlw",
        description="Wick-ordered NLW simulation and verification experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    known = RunConfig.__dataclass_fields__
    for name, (help_text, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="plain-text key = value configuration file")
        for key in _COMMON_KEYS + keys:
            f = known[key]
            flag = key.replace("_", "-")
            # an unset flag parses to None and leaves the file or default
            kw = {"dest": key, "default": None, "help": f.metadata.get("help")}
            if f.type != "bool":
                p.add_argument("--" + flag, type=_TYPES[f.type], **kw)
            elif f.default:
                p.add_argument("--no-" + flag, action="store_false", **kw)
            else:
                p.add_argument("--" + flag, action="store_true", **kw)
    return parser


def _resolve(ns: argparse.Namespace, file_values: dict) -> RunConfig:
    """Defaults < config-file values < the flags set in ns."""
    values = {"subcommand": ns.subcommand, **file_values}
    for key, val in vars(ns).items():
        if key in ("config", "subcommand") or val is None:
            continue
        values[key] = val
    return RunConfig(**values)


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve defaults < config file < flags into a RunConfig.

    The values are checked by :func:`dispatch`, once the output directory
    for the error record exists.
    """
    ns = _build_parser().parse_args(argv)
    return _resolve(ns, read_config_file(ns.config) if ns.config else {})


def _report_payload(cfg: RunConfig, body: dict) -> dict:
    return {"config": cfg.to_dict(), "provenance": provenance(), **body}


def _write_rows(path: Path, rows: list[dict]) -> None:
    """CSV table of flat row dicts, headed by their keys."""
    write_csv(path, list(rows[0]), [list(r.values()) for r in rows])


def _run_sample(cfg: RunConfig, outdir: Path) -> int:
    params = MuParams(cfg.n, cfg.rho, cfg.seed)
    rows = []
    step = _block_size(4 * (2 * cfg.n + 1) ** 2)
    for lo in range(0, cfg.samples, step):
        u, v = sample_pair_half(params, min(step, cfg.samples - lo), lo)
        if lo == 0:
            write_field_csv(u[0], outdir / "field_u_0.csv")
        cols = np.column_stack([
            engine.l2_norm_sq(u, cfg.n), engine.l2_norm_sq(v, cfg.n),
            engine.quadratic_energy_values(u, v, cfg.n, cfg.rho)])
        rows += [[lo + i, *r] for i, r in enumerate(cols.tolist())]
    write_csv(outdir / "samples.csv",
              ["index", "l2_u_sq", "l2_v_sq", "quadratic_energy"], rows)
    mean_l2 = float(np.mean([r[1] for r in rows]))
    write_json_report(outdir / "report.json", _report_payload(cfg, {
        "subcommand": "sample",
        "mean_l2_u_sq": mean_l2,
        "n_samples": cfg.samples,
    }))
    return EXIT_OK


def _run_evolve(cfg: RunConfig, outdir: Path) -> int:
    ctx = WickContext.create(cfg.n, cfg.rho, cfg.m)
    dt = cfg.resolved_dt()
    dyn = DynParams(ctx, dt)
    if cfg.init == "zero":
        u = v = np.zeros((2 * cfg.n + 1, cfg.n + 1), dtype=complex)
    else:
        u, v = sample_free_field(MuParams(cfg.n, cfg.rho, cfg.seed))
    rec = cfg.resolved_record_every()
    traj = evolve(u, v, cfg.T, dyn, record_every=rec)
    header, rows = trajectory_table(traj, ctx)
    write_csv(outdir / "trajectory.csv", header, rows)
    if cfg.dump_states:
        np.savez(outdir / "states.npz", times=traj.times,
                 u=full_from_half(traj.u), v=full_from_half(traj.v))
    h = [r[1] for r in rows]
    write_json_report(outdir / "report.json", _report_payload(cfg, {
        "subcommand": "evolve",
        "dt": dt,
        "record_every": rec,
        "energy_initial": h[0],
        "energy_final": h[-1],
        "max_rel_energy_drift": max(abs(x - h[0]) for x in h) / (1 + abs(h[0])),
    }))
    return EXIT_OK


def _chain_opts(cfg: RunConfig) -> ChainOptions:
    return ChainOptions(n_chains=cfg.chains, burn_in=cfg.burn_in,
                        thin=cfg.thin, blend=cfg.blend)


def _run_gibbs(cfg: RunConfig, outdir: Path) -> int:
    ctx = WickContext.create(cfg.n, cfg.rho, cfg.m)
    params = MuParams(cfg.n, cfg.rho, cfg.seed)
    u, v, pots, diag = sample_gibbs_arrays(params, ctx, cfg.samples, cfg.method,
                                           _chain_opts(cfg))
    obs = observable_matrix(u, v, ctx)
    # columns as in DEFAULT_OBSERVABLES: mass, potential, three modes, energy
    rows = [[i, p, -p, o[0], o[5], o[2], o[3], o[4]]
            for i, (p, o) in enumerate(zip(pots.tolist(), obs.tolist()))]
    write_csv(outdir / "gibbs_samples.csv",
              ["index", "wick_potential", "log_density", "wick_mass",
               "quadratic_energy", "mode_sq_0_0", "mode_sq_1_0", "mode_sq_1_1"],
              rows)
    write_json_report(outdir / "report.json", _report_payload(cfg, {
        "subcommand": "gibbs",
        "diagnostics": diag,
    }))
    return EXIT_OK


def _run_invariance(cfg: RunConfig, outdir: Path) -> int:
    ctx = WickContext.create(cfg.n, cfg.rho, cfg.m)
    dyn = DynParams(ctx, cfg.resolved_dt())
    report = invariance_test(dyn, cfg.T, cfg.samples, cfg.seed,
                             method=cfg.method, opts=_chain_opts(cfg),
                             z_threshold=cfg.z_threshold,
                             drift_tol=cfg.drift_tol)
    _write_rows(outdir / "invariance.csv", report.observables)
    write_json_report(outdir / "report.json", _report_payload(cfg, {
        "subcommand": "invariance",
        "report": report.to_dict(),
        "passed": report.passed,
    }))
    return EXIT_OK if report.passed else EXIT_STATISTICAL


def _run_chaos(cfg: RunConfig, outdir: Path) -> int:
    report = chaos_convergence_study(cfg.ell_max, cfg.n_values(), cfg.rho,
                                     cfg.t_eval, cfg.eps_reg, cfg.samples,
                                     cfg.seed, cauchy=cfg.cauchy)
    write_csv(outdir / "chaos_moments.csv",
              ["ell", "n_max", "mode_1", "mode_2", "mc_estimate", "stderr",
               "analytic"],
              [[r["ell"], r["n_max"], r["mode"][0], r["mode"][1],
                r["mc_estimate"], r["stderr"], r["analytic"]]
               for r in report.moment_rows])
    write_csv(outdir / "chaos_cross.csv",
              ["ell", "n_max", "mode_a1", "mode_a2", "mode_b1", "mode_b2",
               "mean_real", "stderr_real", "mean_imag", "stderr_imag"],
              [[r["ell"], r["n_max"], r["mode_a"][0], r["mode_a"][1],
                r["mode_b"][0], r["mode_b"][1], r["mean_real"],
                r["stderr_real"], r["mean_imag"], r["stderr_imag"]]
               for r in report.cross_rows])
    if report.cauchy_rows:
        _write_rows(outdir / "chaos_cauchy.csv", report.cauchy_rows)
    write_json_report(outdir / "report.json", _report_payload(cfg, {
        "subcommand": "chaos",
        "report": report.to_dict(),
    }))
    return EXIT_OK


def _run_universality(cfg: RunConfig, outdir: Path) -> int:
    report = universality_experiment(NONLINEARITIES[cfg.f], cfg.eps_values(),
                                     cfg.rho, cfg.s, cfg.T, cfg.resolved_dt(),
                                     cfg.seed)
    _write_rows(outdir / "universality.csv", report.rows)
    dists = report.distances()
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    write_json_report(outdir / "report.json", _report_payload(cfg, {
        "subcommand": "universality",
        "report": report.to_dict(),
        "strictly_decreasing": monotone,
    }))
    if any(r["failed"] for r in report.rows):
        return EXIT_NUMERICAL
    return EXIT_OK if monotone else EXIT_STATISTICAL


_RUNNERS = {
    "sample": _run_sample,
    "evolve": _run_evolve,
    "gibbs": _run_gibbs,
    "invariance": _run_invariance,
    "chaos": _run_chaos,
    "universality": _run_universality,
}


def dispatch(cfg: RunConfig) -> int:
    """Validate cfg and run its subcommand, writing artifacts under cfg.out."""
    outdir = Path(cfg.out) / cfg.subcommand
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg.validate()
        return _RUNNERS[cfg.subcommand](cfg, outdir)
    except IntegrationError as exc:
        write_json_report(outdir / "error.json", _report_payload(cfg, {
            "error": "integration_failure",
            "message": str(exc),
            "time": exc.time,
        }))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError from validate, or parameters that only the study
        # itself can reject, e.g. a non-decreasing eps ladder or zero chains
        return _config_error(cfg, exc)


def _config_error(cfg: RunConfig, exc: ValueError) -> int:
    """Record a configuration error in <out>/<subcommand>/error.json."""
    outdir = Path(cfg.out) / cfg.subcommand
    outdir.mkdir(parents=True, exist_ok=True)
    write_json_report(outdir / "error.json", _report_payload(cfg, {
        "error": "configuration",
        "message": str(exc),
    }))
    print(f"configuration error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        # the config file failed: record under the flags' --out, no file value
        return _config_error(_resolve(_build_parser().parse_args(argv), {}), exc)
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
