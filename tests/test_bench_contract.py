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

import numpy as np

from wicknlw import MuParams, WickContext, cli, engine, experiments
from wicknlw.free_field import sample_pair_half

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


def test_kernel_probe_calls_without_a_workspace():
    # the probes' calls, with no workspace, at 4 rows and 3 steps: fresh
    # results equal to the same calls on a workspace
    ctx = WickContext.create(8, 1.0, 1)
    u, v = sample_pair_half(MuParams(8, 1.0, seed=8), 4)
    assert u.shape == v.shape == (4, 17, 9)
    work = {}
    np.testing.assert_array_equal(engine.wick_force(u, ctx),
                                  engine.wick_force(u, ctx, work))
    np.testing.assert_array_equal(engine.wick_potential_values(u, ctx),
                                  engine.wick_potential_values(u, ctx, work))
    kick = lambda x: -engine.wick_force(x, ctx)
    got = engine.run_steps(u, v, 8, 1.0, 1e-3, 3, kick)
    want = engine.run_steps(u, v, 8, 1.0, 1e-3, 3, kick, work)
    for j in range(2):
        np.testing.assert_array_equal(got[j], want[j])
        assert np.isfinite(got[j]).all()


def test_cubic_forcing_check_passes():
    # the universality workload's check calls scaled_forcing_grid with
    # four positional arguments, at a dyadic and a non-dyadic eps
    assert _load("workloads").check_cubic_forcing([0.5, 0.3], 1.0, seed=29) == []
