"""The names and arguments the benchmark harness uses must keep working.

``bench/tracer.py`` wraps every ``(module, name)`` in its ``TARGETS`` with
``getattr``, ``bench/child.py`` builds its kernel probes from a fixed
context, and ``bench/workloads.py`` runs the CLI with fixed arguments, so a
renamed function or flag breaks every benchmark run.  The benchmark files
are loaded by path and only read.  The workloads' outputs at seed 7 are
also pinned to their golden sha256 digests, so a refactor that changes
any output bit fails here.
"""

import hashlib
import importlib
import importlib.util
import os
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


# sha256 of every CSV of the three workloads at seed 7, recorded under
# numpy 2.4.6 with scipy-openblas 0.3.31.188.0.  The invariance and chaos
# files have the same bytes with OPENBLAS_NUM_THREADS=1.  universality.csv
# does not: its N = 64 products cross OpenBLAS's threading threshold, so its
# bytes depend on the thread count (389e6bca79cf... with one thread).  Its
# digest is the one at default threads on a 2-CPU machine, and is checked
# only there (THREAD_BOUND).
GOLDEN_FINGERPRINT = ("2.4.6", "scipy-openblas", "0.3.31.188.0")
GOLDEN_DIGESTS = {
    "invariance_hmc": {
        "invariance.csv":
            "01c0849b17087257835d5f7aed5287807893e8b90b2ecee381a6c8bcdf1f44b2",
    },
    "chaos_moments": {
        "chaos_moments.csv":
            "db4fd61119d92efca7ab458ca9e7e1e1f1a37a83f45108673db4cd3cd74be937",
        "chaos_cross.csv":
            "7fc712331c1daed20b9149ab6d7367a15b1b30121c2b5ed620e04d3ba94a057c",
        "chaos_cauchy.csv":
            "9207f3cfd8b7d558a0d5183627c2456147d369afe70704378ffa1c1c0b94b63e",
    },
    "universality_ladder": {
        "universality.csv":
            "d6e29387c49bb8eccaa822a70376d796a9492ae04b9f333d29fca6e5fcf2d1da",
    },
}
THREAD_BOUND = {"universality_ladder"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _fingerprint() -> tuple:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return np.__version__, blas.get("name"), blas.get("version")


@pytest.mark.parametrize("name", GOLDEN_DIGESTS)
def test_workload_outputs_keep_their_golden_digests(name, tmp_path):
    if _fingerprint() != GOLDEN_FINGERPRINT:
        pytest.skip(f"digests recorded under numpy/BLAS {GOLDEN_FINGERPRINT}, "
                    f"running under {_fingerprint()}")
    if name in THREAD_BOUND and (os.cpu_count() != 2
                                 or any(v in os.environ for v in THREAD_VARS)):
        pytest.skip(f"{name}'s digest holds at default BLAS threads on 2 CPUs; "
                    f"running on {os.cpu_count()} CPUs with "
                    f"{ {v: os.environ.get(v) for v in THREAD_VARS} }")
    assert cli.main(_load("workloads").WORKLOADS[name].argv(7, tmp_path)) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.rglob("*.csv")}
    assert got == GOLDEN_DIGESTS[name]


def test_cubic_forcing_check_passes():
    # the universality workload's check calls scaled_forcing_grid with
    # four positional arguments, at a dyadic and a non-dyadic eps
    assert _load("workloads").check_cubic_forcing([0.5, 0.3], 1.0, seed=29) == []
