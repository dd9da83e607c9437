"""Spans and counts recorded from outside wicknlw, by wrapping its functions.

Each wrapped function is replaced in every ``wicknlw`` module namespace that
binds it, so callers that imported it by name and callers that look it up
on its module both reach the wrapper.  ``scipy.fft.rfft2``/``irfft2`` are
wrapped on ``scipy.fft`` itself, where the package looks them up, as the
layer ``scipy_fft``.  A span is ``[name, start, end, parent]``; spans stay in
memory until the traced run ends.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# layers are the modules of src/wicknlw, plus the FFT library they call
LAYERS = ("engine", "fields", "free_field", "wick", "gibbs", "dynamics",
          "experiments", "reporting", "scipy_fft")
ROOT = "cli.dispatch"


def _rows(a) -> int:
    """Independent samples in a batched half-spectrum array (..., K, N+1)."""
    return int(np.prod(np.shape(a)[:-2], dtype=np.int64))


# a count callback gets (counts, args, kwargs, result, name of the caller's span)


def _count_rows(key):
    def count(c, args, kwargs, out, parent):
        c[key] += _rows(args[0])
    return count


def _count_run_steps(c, args, kwargs, out, parent):
    n_steps = max(args[5] if len(args) > 5 else kwargs["n_steps"], 0)
    c["engine.run_steps.sample_steps"] += _rows(args[0]) * n_steps
    if parent == "dynamics.evolve":
        c["dynamics.evolve.steps"] += n_steps


def _count_grid_from_half(c, args, kwargs, out, parent):
    c["fields.grid_from_half.points"] += int(np.size(out))


def _count_half_from_grid(c, args, kwargs, out, parent):
    c["fields.half_from_grid.points"] += int(np.size(args[0]))


def _count_sample_pair_half(c, args, kwargs, out, parent):
    c["free_field.sample_pair_half.samples"] += int(args[1])


def _count_hermite(c, args, kwargs, out, parent):
    c["wick.hermite_values.points"] += int(np.size(out))


def _count_gibbs(c, args, kwargs, out, parent):
    diag = out[3]
    if "moves_per_chain" in diag:
        c["gibbs.chain_moves"] += diag["n_chains"] * diag["moves_per_chain"]
        c["gibbs.acceptance_rate"] = diag["acceptance_rate"]
    c["gibbs.ess"] = diag["ess"]


def _count_bytes(c, args, kwargs, out, parent):
    c["reporting.bytes"] += os.path.getsize(out)


def _count_fft_points(c, args, kwargs, out, parent):
    # real grid points: the input of rfft2, the output of irfft2
    c["scipy_fft.points"] += int(np.size(args[0] if np.isrealobj(args[0]) else out))


# (module, function, count); every public function the studies reach, so the
# layer self times cover the run
TARGETS = (
    ("engine", "wick_force", _count_rows("engine.wick_force.rows")),
    ("engine", "run_steps", _count_run_steps),
    ("engine", "wick_potential_values",
     _count_rows("engine.wick_potential_values.rows")),
    ("engine", "rotate", None),
    ("engine", "quadratic_energy_values", None),
    ("engine", "hamiltonian_values", None),
    ("engine", "wick_mass_values", None),
    ("engine", "l2_norm_sq", None),
    ("fields", "grid_from_half", _count_grid_from_half),
    ("fields", "half_from_grid", _count_half_from_grid),
    ("fields", "sobolev_norm", None),
    ("fields", "project", None),
    ("fields", "to_grid", None),
    ("fields", "from_grid", None),
    ("free_field", "sample_pair_half", _count_sample_pair_half),
    ("free_field", "sample_free_field", None),
    ("free_field", "point_variance", None),
    ("free_field", "chaos_second_moment", None),
    ("wick", "hermite_values", _count_hermite),
    ("wick", "wick_power", None),
    ("gibbs", "sample_gibbs_arrays", _count_gibbs),
    ("dynamics", "evolve", None),
    ("experiments", "invariance_test", None),
    ("experiments", "chaos_convergence_study", None),
    ("experiments", "universality_experiment", None),
    ("experiments", "observable_matrix", None),
    ("experiments", "wick_power_spectrum", None),
    ("experiments", "evolve_scaled", None),
    ("reporting", "write_json_report", _count_bytes),
    ("reporting", "write_csv", _count_bytes),
    ("reporting", "provenance", None),
    ("cli", "dispatch", None),
)
FFT_TARGETS = ("rfft2", "irfft2")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self.originals: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out, spans[stack[-1]][0] if stack else None)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target where wicknlw's callers look it up."""
        import scipy.fft

        for mod_name, attr, count in TARGETS:
            original = getattr(sys.modules[f"wicknlw.{mod_name}"], attr)
            self._replace(attr, original,
                          self.wrap(f"{mod_name}.{attr}", original, count))
        # the force closure of the scaled equations does pointwise work that
        # would otherwise be charged to engine.run_steps
        factory = sys.modules["wicknlw.experiments"].scaled_force_fn
        self._replace("scaled_force_fn", factory, lambda *a, **k: self.wrap(
            "experiments.scaled_force_fn.force", factory(*a, **k)))
        for attr in FFT_TARGETS:
            original = getattr(scipy.fft, attr)
            self.originals.append((scipy.fft, attr, original))
            setattr(scipy.fft, attr,
                    self.wrap(f"scipy_fft.{attr}", original, _count_fft_points))

    def _replace(self, attr: str, original, wrapped) -> None:
        for name, ns in list(sys.modules.items()):
            if name.split(".")[0] == "wicknlw" and vars(ns).get(attr) is original:
                self.originals.append((ns, attr, original))
                setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self.originals):
            setattr(ns, attr, original)
        self.originals.clear()

    def dump(self, path: Path) -> None:
        """Write the spans and counts (the raw record behind the metrics)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.array([s[2] - s[1] for s in spans])
    own = dur.copy()
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    return own


# per-function metrics: "calls", "s" (inclusive), "self_s", or a count that the
# wrapper recorded as "<function>.<count>"
FUNCTION_METRICS = (
    ("engine.wick_force", ("calls", "rows", "s", "self_s")),
    ("engine.run_steps", ("calls", "sample_steps", "self_s")),
    ("engine.wick_potential_values", ("calls", "rows", "s")),
    ("gibbs.sample_gibbs_arrays", ("self_s",)),
    ("fields.grid_from_half", ("calls", "points", "s")),
    ("fields.half_from_grid", ("calls", "points", "s")),
    ("fields.sobolev_norm", ("calls", "s")),
    ("free_field.sample_pair_half", ("calls", "samples", "s")),
    ("free_field.sample_free_field", ("calls", "s")),
    ("wick.hermite_values", ("calls", "points", "s")),
    ("dynamics.evolve", ("calls", "steps", "self_s")),
    ("experiments.invariance_test", ("self_s",)),
    ("experiments.chaos_convergence_study", ("self_s",)),
    ("experiments.universality_experiment", ("self_s",)),
    ("cli.dispatch", ("s",)),
)


def layer_metrics(spans: list[list], counts: dict) -> dict:
    """Per-layer metrics of one traced dispatch, named as in BENCHMARK.json.

    The layer self times and ``trace.unattributed_s`` (the self time of the
    root span: code in ``cli`` and in functions nobody wraps) add up to
    ``trace.wall_s``, the root span's duration.
    """
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT and s[3] < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root {ROOT} span, found {len(roots)}")
    root = roots[0]
    # spans are appended in call order, so the root's subtree is contiguous
    end = next((j for j in range(root + 1, len(spans)) if spans[j][3] < 0),
               len(spans))
    own = self_times(spans)
    calls: dict = defaultdict(int)
    incl: dict = defaultdict(float)
    excl: dict = defaultdict(float)
    layer = dict.fromkeys(LAYERS, 0.0)
    for i in range(root, end):
        name = spans[i][0]
        calls[name] += 1
        incl[name] += spans[i][2] - spans[i][1]
        excl[name] += own[i]
        prefix = name.split(".", 1)[0]
        if prefix in layer:
            layer[prefix] += own[i]
    wall = incl[ROOT]

    m = {}
    for name, kinds in FUNCTION_METRICS:
        timed = {"calls": calls[name], "s": incl[name], "self_s": excl[name]}
        for kind in kinds:
            m[f"{name}.{kind}"] = timed.get(kind, counts.get(f"{name}.{kind}", 0))
    rows = m["engine.wick_force.rows"]
    m["engine.wick_force.us_per_row"] = (
        1e6 * m["engine.wick_force.s"] / rows if rows else 0.0)
    m["scipy_fft.calls"] = sum(calls[f"scipy_fft.{f}"] for f in FFT_TARGETS)
    m["scipy_fft.points"] = counts.get("scipy_fft.points", 0)
    m["scipy_fft.s"] = sum(incl[f"scipy_fft.{f}"] for f in FFT_TARGETS)
    for key in ("gibbs.chain_moves", "gibbs.acceptance_rate", "gibbs.ess"):
        m[key] = counts.get(key, 0)
    gibbs_s = incl["gibbs.sample_gibbs_arrays"]
    m["gibbs.ess_per_s"] = m["gibbs.ess"] / gibbs_s if gibbs_s else 0.0
    m["reporting.s"] = sum(t for n, t in incl.items() if n.startswith("reporting."))
    m["reporting.bytes"] = counts.get("reporting.bytes", 0)
    for name, value in layer.items():
        m[f"layer.{name}.self_s"] = value
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = excl[ROOT]
    m["trace.spans"] = end - root
    if not math.isclose(sum(layer.values()) + excl[ROOT], wall,
                        rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError("layer self times do not add up to the wall time")
    return m
