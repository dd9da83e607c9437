"""The names and arguments the benchmark harness uses must keep working.

``bench/tracer.py`` wraps every ``(module, name)`` in its ``TARGETS`` with
``getattr``, ``bench/child.py`` builds its kernel probes from a fixed
context, and ``bench/workloads.py`` runs the CLI with fixed arguments, so a
renamed function or flag breaks every benchmark run.  The benchmark files
are loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from wicknlw import WickContext, cli, experiments

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return [(mod, name) for mod, name, _ in _load("tracer").TARGETS]


@pytest.mark.parametrize("mod, name", _tracer_targets())
def test_tracer_target_resolves(mod, name):
    assert callable(getattr(importlib.import_module(f"wicknlw.{mod}"), name))


@pytest.mark.parametrize("workload", _load("workloads").WORKLOADS.values(),
                         ids=lambda w: w.name)
def test_workload_argv_parses(workload, tmp_path):
    cfg = cli.parse_config(workload.argv(29, tmp_path))
    cfg.validate()
    assert (cfg.subcommand, cfg.seed, cfg.out) == (workload.subcommand, 29,
                                                   str(tmp_path))
    passed = dict(zip(workload.args[::2], workload.args[1::2]))
    for key in ("samples", "method", "n_list", "eps_list"):
        flag = "--" + key.replace("_", "-")
        if flag in passed:
            assert str(getattr(cfg, key)) == passed[flag], key


def test_scaled_force_names_and_probe_context():
    assert callable(experiments.scaled_force_fn)
    assert callable(experiments.scaled_forcing_grid)
    ctx = WickContext.create(8, 1.0, 1)
    assert (ctx.n_max, ctx.rho, ctx.m) == (8, 1.0, 1)
