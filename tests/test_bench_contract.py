"""The names the benchmark harness looks up in wicknlw must keep existing.

``bench/tracer.py`` wraps every ``(module, name)`` in its ``TARGETS`` with
``getattr``, and ``bench/child.py`` builds its kernel probes from a fixed
context, so a renamed or deleted function breaks every traced benchmark run.
The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from wicknlw import WickContext, experiments

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, name) for mod, name, _ in tracer.TARGETS]


@pytest.mark.parametrize("mod, name", _tracer_targets())
def test_tracer_target_resolves(mod, name):
    assert callable(getattr(importlib.import_module(f"wicknlw.{mod}"), name))


def test_scaled_force_names_and_probe_context():
    assert callable(experiments.scaled_force_fn)
    assert callable(experiments.scaled_forcing_grid)
    ctx = WickContext.create(8, 1.0, 1)
    assert (ctx.n_max, ctx.rho, ctx.m) == (8, 1.0, 1)
