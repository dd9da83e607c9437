"""One fresh process: import wicknlw from this checkout and run its CLI once.

Usage::

    python3 bench/child.py RESULT_JSON MODE [-- WICKNLW_ARGV...]

MODE is ``plain`` (untraced run), ``trace`` (run with every layer wrapped,
see ``tracer.py``) or ``probe`` (the fixed-size kernel baselines).  The
result file receives CLOCK_MONOTONIC timestamps, so the parent can time
set-up from before it spawned this process.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_cli():
    if not (SRC / "wicknlw" / "cli.py").is_file():
        sys.exit(f"no wicknlw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wicknlw.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "wicknlw":
        sys.exit(f"imported wicknlw from {cli.__file__}, not from {SRC}")
    return cli


def run_cli(argv: list[str], mode: str, result: dict, spans_path: Path) -> int:
    cli = _import_cli()
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    dispatch = cli.dispatch  # the traced root span when tracing

    def timed_dispatch(cfg):
        result["t_ready"] = monotonic()
        rc = dispatch(cfg)
        result["t_done"] = monotonic()
        result["wall_s"] = result["t_done"] - result["t_ready"]
        return rc

    cli.dispatch = timed_dispatch
    rc = cli.main(argv)
    if mode == "trace":
        tracer.uninstall()
        result["metrics"] = layer_metrics(tracer.spans, tracer.counts)
        tracer.dump(spans_path)
    return rc


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes(result: dict) -> int:
    """The fixed-size per-kernel baselines at N = 8, rho = 1 (default grids)."""
    _import_cli()
    from wicknlw import engine
    from wicknlw.free_field import MuParams, sample_pair_half
    from wicknlw.wick import WickContext

    ctx = WickContext.create(8, 1.0, 1)
    params = MuParams(8, 1.0, seed=8)
    u, v = sample_pair_half(params, 400)
    kick = lambda x: -engine.wick_force(x, ctx)
    engine.wick_force(u, ctx)
    engine.wick_potential_values(u, ctx)
    result["metrics"] = {
        "probe.engine.wick_force.b400_ms":
            1e3 * _median_time(lambda: engine.wick_force(u, ctx), 25),
        "probe.engine.wick_potential_values.b400_ms":
            1e3 * _median_time(lambda: engine.wick_potential_values(u, ctx), 25),
        "probe.engine.run_steps.b400x100_s": _median_time(
            lambda: engine.run_steps(u, v, 8, 1.0, 1e-3, 100, kick), 3),
        "probe.free_field.sample_pair_half.n2000_ms":
            1e3 * _median_time(lambda: sample_pair_half(params, 2000), 5),
    }
    return 0


def main() -> int:
    result_path, mode = Path(sys.argv[1]), sys.argv[2]
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else sys.argv[3:]
    result: dict = {"mode": mode}
    if mode == "probe":
        rc = run_probes(result)
    else:
        rc = run_cli(argv, mode, result, result_path.with_suffix(".spans.json"))
    result["rc"] = rc
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
