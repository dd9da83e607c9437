"""The tracer partitions a dispatch's wall time and leaves outputs unchanged."""

import hashlib
import json
from pathlib import Path

import wicknlw.cli as cli
from tracer import LAYERS, Tracer, layer_metrics

ARGV = ["invariance", "--n", "2", "--chains", "2", "--burn-in", "2",
        "--thin", "1", "--samples", "4", "--T", "0.01", "--dt", "1e-3",
        "--seed", "3"]


def digest(directory):
    # report.json names the output directory, so compare the tables only
    return hashlib.sha256(b"".join(
        p.read_bytes() for p in sorted(directory.glob("*.csv")))).hexdigest()


def test_layer_self_times_add_up_to_wall(tmp_path):
    assert cli.main(ARGV + ["--out", str(tmp_path / "plain")]) == 0
    dispatch = cli.dispatch
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(ARGV + ["--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert cli.dispatch is dispatch
    m = layer_metrics(tracer.spans, tracer.counts)
    total = sum(m[f"layer.{name}.self_s"] for name in LAYERS)
    assert abs(total + m["trace.unattributed_s"] - m["trace.wall_s"]) < 1e-9
    assert m["engine.wick_force.calls"] > 0 and m["scipy_fft.calls"] > 0
    assert m["gibbs.chain_moves"] == 2 * (2 + 1 * 2)
    assert m["engine.wick_force.rows"] >= m["engine.wick_force.calls"]
    assert (digest(tmp_path / "plain" / "invariance")
            == digest(tmp_path / "traced" / "invariance"))
    # every per-layer metric but the run-level ones comes from one traced round
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    wanted = {x["name"] for x in spec["per_layer"]
              if x["name"] != "trace.overhead_s" and not x["name"].startswith("probe.")}
    assert set(m) == wanted
