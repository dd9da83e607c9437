"""Benchmark entry point: whole CLI runs of one workload, each in a fresh process.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload through ``wicknlw.cli.main``
round after round, each round a fresh process, until ``--seconds`` have
passed; it checks the outputs and prints the end-to-end metrics as medians
over the rounds (set-up is timed once per round).  With ``--trace 1`` it alternates untraced and traced rounds, then
runs the fixed-size kernel probes, and prints the per-layer metrics of the
traced round with the median wall time.  The last line of standard output
is the JSON result; notes go to standard error.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# every run, its set-up processes included, ends well inside 180 s
DEADLINE_S = 165.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Spawns child processes against one output directory, within a deadline."""

    def __init__(self, work: Path, t_start: float):
        self.work = work
        self.t_start = t_start
        self.count = 0

    def spawn(self, mode: str, argv: list[str] = ()) -> dict | None:
        """Run child.py once; None when the process failed or timed out."""
        self.count += 1
        result_path = self.work / f"{self.count:03d}-{mode}.json"
        log_path = result_path.with_suffix(".log")
        timeout = DEADLINE_S - (monotonic() - self.t_start)
        if timeout <= 0:
            note(f"deadline reached before {mode} process {self.count}")
            return None
        t_spawn = monotonic()
        try:
            with open(log_path, "w") as log:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(result_path),
                     mode, "--", *argv],
                    cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout)
        except subprocess.TimeoutExpired:
            note(f"{mode} process {self.count} killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result_path.exists():
            note(f"{mode} process {self.count} exited {proc.returncode}; "
                 f"log: {log_path.read_text()[-2000:]}")
            return None
        result = json.loads(result_path.read_text())
        if "t_ready" in result:
            result["setup_s"] = result["t_ready"] - t_spawn
        return result


def output_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def lower_median_index(values: list[float]) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_start = monotonic()
    if not (ROOT / "src" / "wicknlw" / "cli.py").is_file():
        note(f"no wicknlw sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        note(f"unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload]

    # the build: byte-compile once so no timed process pays for it
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        note("byte-compiling src failed")
        return 2

    work = OUT / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, t_start)
    cli_out = work / "out"
    result_dir = cli_out / wl.subcommand
    cli_argv = wl.argv(args.seed, cli_out)

    modes = ("plain", "trace") if args.trace else ("plain",)
    rounds: dict[str, list[dict]] = {m: [] for m in modes}
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    t0 = monotonic()
    while attempted == 0 or monotonic() - t0 < args.seconds:
        for mode in modes:
            attempted += 1
            shutil.rmtree(result_dir, ignore_errors=True)
            r = runner.spawn(mode, cli_argv)
            if r is None or r["rc"] != 0:
                failed += 1
                if r is not None:
                    note(f"round {attempted} ({mode}): wicknlw exited {r['rc']}")
                continue
            digest = output_digest(result_dir)
            if reference is None:
                report = json.loads((result_dir / "report.json").read_text())
                problems += wl.check(result_dir, report)
                reference = digest
                if wl.subcommand == "invariance":
                    diag = report["report"]["sampler_diagnostics"]
                    note(f"split R-hat {diag['r_hat']:.3f}, acceptance "
                         f"{diag['acceptance_rate']:.3f}, ESS {diag['ess']:.0f}")
            elif digest != reference:
                problems.append(f"round {attempted} ({mode}) output differs "
                                "from the first round under the same seed")
            rounds[mode].append(r)
        if monotonic() - t_start > DEADLINE_S:
            break
    for p in problems:
        note(f"CHECK FAILED: {p}")

    if args.trace:
        metrics = trace_metrics(rounds, runner)
        wanted = spec["per_layer"]
    else:
        metrics = {}
        if rounds["plain"]:
            walls = [r["wall_s"] for r in rounds["plain"]]
            setups = [r["setup_s"] for r in rounds["plain"]]
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in rounds["plain"]),
            }
            note(f"{wl.name} seed {args.seed}: {len(walls)} rounds, wall_s "
                 f"{min(walls):.3f}..{max(walls):.3f}, setup_s "
                 f"{min(setups):.3f}..{max(setups):.3f}")
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        note(f"no measurement for {missing}")
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def trace_metrics(rounds: dict, runner: Runner) -> dict:
    """Layer metrics of the median traced round, its overhead, the probes."""
    traced, plain = rounds["trace"], rounds["plain"]
    if not traced or not plain:
        return {}
    walls = [r["wall_s"] for r in traced]
    metrics = dict(traced[lower_median_index(walls)]["metrics"])
    metrics["trace.overhead_s"] = (statistics.median(walls)
                                   - statistics.median(r["wall_s"] for r in plain))
    probe = runner.spawn("probe")
    if probe is not None:
        metrics.update(probe["metrics"])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
