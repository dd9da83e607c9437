"""Configuration resolution, dispatch, artifacts, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wicknlw import (DynParams, MuParams, WickContext, evolve,
                     sample_free_field)
from wicknlw import cli as cli_module
from wicknlw.experiments import observable_matrix
from wicknlw.fields import ball_mask, full_from_half, mode_norms_sq
from wicknlw.reporting import provenance
from wicknlw.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_STATISTICAL,
    ConfigError,
    RunConfig,
    dispatch,
    main,
    parse_config,
    read_config_file,
)

from conftest import half_from_full


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


COMMON_FLAGS = ("--config", "--n", "--rho", "--m", "--dt", "--T", "--samples",
                "--seed", "--out")
SAMPLER_FLAGS = ("--method", "--chains", "--burn-in", "--thin", "--blend")
# the flags each subcommand takes besides COMMON_FLAGS
FLAGS = {
    "sample": (),
    "evolve": ("--record-every", "--init", "--dump-states"),
    "gibbs": SAMPLER_FLAGS,
    "invariance": SAMPLER_FLAGS + ("--drift-tol", "--z-threshold"),
    "chaos": ("--ell-max", "--n-list", "--t-eval", "--eps-reg", "--no-cauchy"),
    "universality": ("--eps-list", "--s", "--f"),
}
# a value of each field type that no setting has as its default
VALUES = {"int": "5", "float": "0.5", "str": "x"}


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["sample"])
        assert cfg.subcommand == "sample"
        assert cfg.rho == 1.0

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 9\nrho = 2.5\n")
        cfg = parse_config(["sample", "--config", str(cfg_file), "--seed", "42"])
        assert cfg.seed == 42       # flag wins
        assert cfg.rho == 2.5       # file applies where no flag given

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("not_a_key = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            read_config_file(cfg_file)

    def test_comments_and_blanks(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\n\nn = 4  # trailing\n")
        assert read_config_file(cfg_file) == {"n": 4}

    def test_zero_mass_rejected(self, tmp_path):
        assert main(["sample", "--rho", "0", "--out", str(tmp_path)]) == EXIT_CONFIG
        record = json.loads((tmp_path / "sample" / "error.json").read_text())
        assert "rho" in record["message"]

    def test_zero_mass_exit_code(self, tmp_path, capsys):
        assert main(["sample", "--rho", "0", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "rho" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sample", "--bogus", "1"])
        assert exc.value.code == 2

    def test_removed_workers_flag_exits_two(self):
        # the FFT-thread flag is gone and is rejected like any unknown flag
        with pytest.raises(SystemExit) as exc:
            parse_config(["sample", "--workers", "2"])
        assert exc.value.code == 2

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(subcommand="gibbs", method="nuts").validate()

    @pytest.mark.parametrize("sub", FLAGS)
    def test_flag_set(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config([sub, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert flags == {"--help", *COMMON_FLAGS, *FLAGS[sub]}

    @pytest.mark.parametrize("sub, flag", [
        (sub, flag) for sub, flags in FLAGS.items()
        for flag in COMMON_FLAGS[1:] + flags])
    def test_flag_matches_config_line(self, tmp_path, sub, flag):
        key = flag[2:].removeprefix("no-").replace("-", "_")
        kind = RunConfig.__dataclass_fields__[key].type
        if kind == "bool":
            args, value = [flag], str(not flag.startswith("--no-")).lower()
        else:
            args, value = [flag, VALUES[kind]], VALUES[kind]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        from_flag = parse_config([sub, *args])
        from_file = parse_config([sub, "--config", str(cfg_file)])
        assert from_flag == from_file != RunConfig(sub)


class TestDispatch:
    def test_sample_writes_artifacts(self, tmp_path):
        cfg = parse_config(["sample", "--n", "2", "--samples", "4", "--out",
                            str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        report = json.loads((tmp_path / "sample" / "report.json").read_text())
        assert report["config"]["n"] == 2
        assert (tmp_path / "sample" / "samples.csv").exists()
        assert (tmp_path / "sample" / "field_u_0.csv").exists()

    def test_evolve_zero_init_zero_trajectory(self, tmp_path):
        cfg = parse_config(["evolve", "--n", "2", "--T", "0.05", "--dt", "0.01",
                            "--init", "zero", "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        rows = read_csv(tmp_path / "evolve" / "trajectory.csv")
        assert all(float(r["mode_sq_0_0"]) == 0.0 for r in rows)
        assert all(float(r["quadratic_energy"]) == 0.0 for r in rows)

    def test_evolve_state_dump(self, tmp_path):
        cfg = parse_config(["evolve", "--n", "2", "--T", "0.03", "--dt", "0.01",
                            "--dump-states", "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        snap = np.load(tmp_path / "evolve" / "states.npz")
        assert snap["u"].shape[1:] == (5, 5)
        assert snap["v"].shape == snap["u"].shape
        assert len(snap["times"]) == snap["u"].shape[0]
        # full Hermitian squares: c(-n) = conj(c(n))
        for a in (snap["u"], snap["v"]):
            np.testing.assert_array_equal(a, np.conj(a[:, ::-1, ::-1]))

    def test_sample_field_dump_is_the_mirrored_first_draw(self, tmp_path):
        # reference: sample 0's half spectrum mirrored mode by mode onto the
        # full square, c(n1, n2) = conj(c(-n1, -n2)) for n2 < 0, exact zeros
        # outside the ball; rows n1-major, floats as repr
        cfg = parse_config(["sample", "--n", "3", "--samples", "2", "--rho", "1.5",
                            "--seed", "13", "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        h = sample_free_field(MuParams(3, 1.5, 13))[0]
        want = [["n1", "n2", "re", "im"]]
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                c = h[n1 + 3, n2] if n2 >= 0 else np.conj(h[3 - n1, -n2])
                if n1 * n1 + n2 * n2 > 9:
                    c = 0j
                want.append([str(n1), str(n2), repr(float(c.real)),
                             repr(float(c.imag))])
        with open(tmp_path / "sample" / "field_u_0.csv", newline="") as fh:
            assert list(csv.reader(fh)) == want

    def test_evolve_state_dump_is_the_mirrored_trajectory(self, tmp_path):
        cfg = parse_config(["evolve", "--n", "3", "--T", "0.05", "--dt", "0.01",
                            "--seed", "5", "--dump-states", "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        snap = np.load(tmp_path / "evolve" / "states.npz")
        dyn = DynParams(WickContext.create(3, cfg.rho, cfg.m), cfg.resolved_dt())
        traj = evolve(*sample_free_field(MuParams(3, cfg.rho, 5)), cfg.T, dyn,
                      record_every=cfg.resolved_record_every())
        assert snap["times"].tobytes() == traj.times.tobytes()
        for key, half in (("u", traj.u), ("v", traj.v)):
            assert snap[key].dtype == complex
            assert snap[key].tobytes() == full_from_half(half).tobytes(), key

    def test_sample_rows_match_per_index_draws(self, tmp_path):
        cfg = parse_config(["sample", "--n", "3", "--samples", "7", "--rho", "1.5",
                            "--seed", "13", "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        rows = read_csv(tmp_path / "sample" / "samples.csv")
        assert [int(r["index"]) for r in rows] == list(range(7))
        lam2 = 1.5 + mode_norms_sq(3)
        for r in rows:
            # references on the full coefficient squares, which are
            # Hermitian and vanish outside the ball
            u, v = (full_from_half(a) for a in
                    sample_free_field(MuParams(3, 1.5, 13), int(r["index"])))
            for a in (u, v):
                np.testing.assert_array_equal(a, np.conj(a[::-1, ::-1]))
                assert np.all(a[~ball_mask(3)] == 0)
            quad = 0.5 * np.sum(lam2 * np.abs(u) ** 2 + np.abs(v) ** 2)
            for key, want in (("l2_u_sq", np.sum(np.abs(u) ** 2)),
                              ("l2_v_sq", np.sum(np.abs(v) ** 2)),
                              ("quadratic_energy", quad)):
                assert float(r[key]) == pytest.approx(want, rel=1e-12), key

    def test_evolve_table_matches_observables(self, tmp_path):
        cfg = parse_config(["evolve", "--n", "4", "--T", "0.05", "--dt", "0.01",
                            "--dump-states", "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        rows = read_csv(tmp_path / "evolve" / "trajectory.csv")
        snap = np.load(tmp_path / "evolve" / "states.npz")
        ctx = WickContext.create(4, 1.0, 1)
        obs = observable_matrix(np.ascontiguousarray(half_from_full(snap["u"])),
                                np.ascontiguousarray(half_from_full(snap["v"])), ctx)
        got = np.array([[float(r[k]) for k in ("t", "hamiltonian_wick",
                                               "quadratic_energy", "wick_mass",
                                               "wick_potential", "mode_sq_0_0",
                                               "mode_sq_1_0", "mode_sq_1_1")]
                        for r in rows])
        np.testing.assert_array_equal(got[:, 0], snap["times"])
        np.testing.assert_allclose(got[:, 1], obs[:, 5] + obs[:, 1], rtol=1e-12)
        np.testing.assert_allclose(got[:, 2], obs[:, 5], rtol=1e-12)
        np.testing.assert_allclose(got[:, 3:], obs[:, :5], rtol=1e-12, atol=1e-12)

    def test_chaos_contains_exact_value_four(self, tmp_path):
        cfg = parse_config(["chaos", "--ell-max", "2", "--n-list", "1",
                            "--samples", "300", "--no-cauchy",
                            "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        rows = read_csv(tmp_path / "chaos" / "chaos_moments.csv")
        match = [r for r in rows
                 if r["ell"] == "2" and r["mode_1"] == "0" and r["mode_2"] == "0"]
        assert match and float(match[0]["analytic"]) == 4.0

    def test_invariance_zero_time_passes(self, tmp_path):
        cfg = parse_config(["invariance", "--n", "2", "--T", "0",
                            "--samples", "100", "--method", "importance",
                            "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        rows = read_csv(tmp_path / "invariance" / "invariance.csv")
        assert all(float(r["z_score"]) == 0.0 for r in rows)

    def test_gibbs_writes_diagnostics(self, tmp_path):
        cfg = parse_config(["gibbs", "--n", "1", "--samples", "50",
                            "--method", "metropolis", "--chains", "4",
                            "--burn-in", "20", "--thin", "2",
                            "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        report = json.loads((tmp_path / "gibbs" / "report.json").read_text())
        assert "acceptance_rate" in report["diagnostics"]

    def test_universality_small(self, tmp_path):
        cfg = parse_config(["universality", "--eps-list", "0.5,0.25",
                            "--T", "0.05", "--dt", "0.01", "--s", "-0.1",
                            "--f", "sin", "--out", str(tmp_path)])
        code = dispatch(cfg)
        rows = read_csv(tmp_path / "universality" / "universality.csv")
        assert len(rows) == 2
        assert code == EXIT_OK

    def test_universality_reference_cutoff_one_reports_null(self, tmp_path):
        # cutoff 1 has no coarser reference: the refinement distance is
        # null, not the distance 0.0 of the reference to itself
        code = main(["universality", "--eps-list", "1,0.75", "--T", "0.05",
                     "--dt", "1e-2", "--seed", "3", "--out", str(tmp_path)])
        report = json.loads(
            (tmp_path / "universality" / "report.json").read_text())
        assert code == EXIT_OK
        assert report["report"]["n_ref"] == 1
        assert report["report"]["ref_refinement_distance"] is None

    @pytest.mark.parametrize("argv, keys", [
        (["sample", "--n", "2", "--samples", "4"], {"mean_l2_u_sq", "n_samples"}),
        (["evolve", "--n", "2", "--T", "0.05", "--dt", "0.01"],
         {"dt", "record_every", "energy_initial", "energy_final",
          "max_rel_energy_drift"}),
        (["gibbs", "--n", "1", "--samples", "20", "--method", "metropolis",
          "--chains", "2", "--burn-in", "5", "--thin", "1"], {"diagnostics"}),
        # one chain: R-hat is undefined
        (["gibbs", "--n", "4", "--samples", "1", "--method", "hmc",
          "--chains", "1", "--burn-in", "2", "--thin", "1"], {"diagnostics"}),
        # no proposal is accepted: R-hat is infinite
        (["gibbs", "--n", "4", "--samples", "20", "--chains", "4",
          "--burn-in", "5", "--thin", "1", "--m", "2"], {"diagnostics"}),
        (["invariance", "--n", "2", "--T", "0", "--samples", "20",
          "--method", "importance"], {"report", "passed"}),
        (["chaos", "--ell-max", "1", "--n-list", "1", "--samples", "8"],
         {"report"}),
        (["universality", "--eps-list", "0.5,0.25", "--T", "0.05",
          "--dt", "0.01"], {"report", "strictly_decreasing"}),
    ], ids=["sample", "evolve", "gibbs", "gibbs_one_chain",
            "gibbs_none_accepted", "invariance", "chaos", "universality"])
    def test_report_envelope(self, tmp_path, argv, keys):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK

        def reject(token):
            raise ValueError(f"bare {token} in report.json")

        report = json.loads((tmp_path / argv[0] / "report.json").read_text(),
                            parse_constant=reject)
        assert set(report) == {"config", "provenance", "subcommand", *keys}
        assert report["subcommand"] == argv[0]
        if argv[0] == "gibbs":
            diag = report["diagnostics"]
            # the one-chain and no-accept runs at N = 4 have no finite R-hat
            assert (diag["r_hat"] is None) == (argv[2] == "4")
            # the flag is a JSON boolean, true above 1.1 or when undefined
            assert diag["r_hat_high"] is (diag["r_hat"] is None
                                          or diag["r_hat"] > 1.1)

    def test_integration_failure_exits_three_with_record(self, tmp_path, capsys):
        assert main(["evolve", "--n", "4", "--T", "20", "--dt", "2",
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        record = json.loads((tmp_path / "evolve" / "error.json").read_text())
        assert record["error"] == "integration_failure"
        assert record["time"] == 10.0
        assert not (tmp_path / "evolve" / "report.json").exists()
        assert "numerical failure" in capsys.readouterr().err

    INVARIANCE_BLOW_UP = ["invariance", "--n", "4", "--samples", "16",
                          "--chains", "4", "--burn-in", "5", "--thin", "1",
                          "--seed", "1"]

    def test_invariance_without_two_finite_samples_exits_three(self, tmp_path):
        argv = self.INVARIANCE_BLOW_UP + ["--dt", "0.2", "--T", "5"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_NUMERICAL
        record = json.loads((tmp_path / "invariance" / "error.json").read_text())
        assert record["error"] == "integration_failure"
        assert record["time"] == 5.0
        assert not (tmp_path / "invariance" / "report.json").exists()

    def test_invariance_partial_failure_exits_four(self, tmp_path):
        argv = self.INVARIANCE_BLOW_UP + ["--dt", "0.25", "--T", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_STATISTICAL
        report = json.loads(
            (tmp_path / "invariance" / "report.json").read_text())
        assert report["report"]["n_failed"] == 5
        assert report["passed"] is False
        assert len(read_csv(tmp_path / "invariance" / "invariance.csv")) == 6

    def test_invariance_overflowed_observables_have_null_z(self, tmp_path):
        # the 11 finite evolved rows overflow every observable's mean or
        # standard error: no z exists, so each row fails and reads null,
        # never a passing 0.0 beside a null standard error
        argv = self.INVARIANCE_BLOW_UP + ["--dt", "0.25", "--T", "2"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_STATISTICAL
        report = json.loads(
            (tmp_path / "invariance" / "report.json").read_text())
        rows = report["report"]["observables"]
        assert len(rows) == 6
        assert all(r["z_score"] is None for r in rows)

    def test_invariance_divergence_prints_no_warnings(self, tmp_path):
        # the report records the failure (exit 4, n_failed, null z), so
        # numpy's overflow warnings on stderr would only repeat it; a fresh
        # interpreter shows every warning at least once per location
        argv = self.INVARIANCE_BLOW_UP + ["--dt", "0.25", "--T", "2",
                                          "--out", str(tmp_path)]
        script = ("import sys\n"
                  "from wicknlw.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-W", "default", "-c", script,
                               *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == EXIT_STATISTICAL, proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        report = json.loads(
            (tmp_path / "invariance" / "report.json").read_text())
        assert report["report"]["n_failed"] == 5
        rows = report["report"]["observables"]
        assert [r["z_score"] for r in rows] == [None] * 6

    def test_deterministic_outputs(self, tmp_path):
        args = ["gibbs", "--n", "1", "--samples", "30", "--method",
                "metropolis", "--chains", "3", "--burn-in", "10", "--thin", "2"]
        cfg_a = parse_config(args + ["--out", str(tmp_path / "a")])
        cfg_b = parse_config(args + ["--out", str(tmp_path / "b")])
        dispatch(cfg_a)
        dispatch(cfg_b)
        csv_a = (tmp_path / "a" / "gibbs" / "gibbs_samples.csv").read_bytes()
        csv_b = (tmp_path / "b" / "gibbs" / "gibbs_samples.csv").read_bytes()
        assert csv_a == csv_b

    @pytest.mark.parametrize("argv", [
        ["evolve", "--n", "2", "--T", "0"],
        ["evolve", "--n", "2", "--record-every", "-1"],
        ["gibbs", "--n", "1", "--chains", "0"],
        ["gibbs", "--n", "1", "--thin", "0"],
        ["universality", "--eps-list", "0.25,0.5"],
        ["universality", "--eps-list", "a"],
        ["universality", "--s", "0.1"],
        ["chaos", "--ell-max", "5"],
        ["chaos", "--n-list", "4,1"],
        ["chaos", "--n-list", "4,4"],
        ["chaos", "--samples", "1"],
        ["invariance", "--n", "2", "--T", "-1"],
        ["invariance", "--n", "2", "--samples", "1", "--T", "0.01"],
        ["sample", "--rho", "0"],
        ["invariance", "--method", "importance", "--T", "1"],
        ["gibbs", "--method", "nuts"],
        ["evolve", "--init", "foo"],
        ["sample", "--rho", "nan"],
        ["chaos", "--t-eval", "nan"],
        ["evolve", "--T", "inf", "--dt", "0.01"],
        ["evolve", "--T", "nan"],
        ["evolve", "--dt", "nan"],
        ["evolve", "--n", "2", "--T", "1e7", "--dt", "0.01"],
        ["evolve", "--n", "8", "--T", "1000", "--dt", "1e-3",
         "--record-every", "1"],
        ["universality", "--s", "nan"],
    ], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
    def test_bad_study_input_exits_two_with_record(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        record = json.loads((tmp_path / argv[0] / "error.json").read_text())
        assert record["error"] == "configuration"
        assert record["message"]
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["universality", "--eps-list", ""], "eps ladder is empty"),
        (["chaos", "--n-list", ""], "cutoff list is empty"),
    ], ids=["eps_list", "n_list"])
    def test_empty_list_is_named(self, tmp_path, argv, message):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        record = json.loads((tmp_path / argv[0] / "error.json").read_text())
        assert record["message"] == message

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--rho", "nan"], "rho must be finite"),
        (["evolve", "--T", "inf"], "T must be finite"),
        (["invariance", "--z-threshold=-inf"], "z_threshold must be finite"),
        (["chaos", "--n-list", "4,4"],
         "cutoff list [4, 4] must be strictly increasing"),
        (["chaos", "--n-list", "0,1"],
         "cutoff 0 is its own double, so d(0) would compare it with itself; "
         "drop it or turn cauchy off"),
        (["evolve", "--n", "8", "--T", "1000", "--dt", "1e-3",
          "--record-every", "1"],
         "T / dt / record_every = 1000 / 0.001 / 1 keeps 1e+06 records, "
         "4669 MiB of states, above the budget of 1024 MiB; raise "
         "record_every or dt, or lower T"),
    ], ids=["rho_nan", "T_inf", "z_threshold_minus_inf", "n_list_repeated",
            "n_list_zero_with_cauchy", "record_budget"])
    def test_rejected_setting_is_named(self, tmp_path, argv, message):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        record = json.loads((tmp_path / argv[0] / "error.json").read_text())
        assert record["message"] == message

    def test_every_float_setting_must_be_finite(self):
        floats = [f for f, spec in RunConfig.__dataclass_fields__.items()
                  if spec.type == "float"]
        assert "rho" in floats and "s" in floats
        for key in floats:
            for bad in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigError, match=f"^{key} must be finite$"):
                    RunConfig("sample", **{key: bad}).validate()

    @pytest.mark.parametrize("text, message", [
        ("n = x\n", "run.cfg:1: invalid literal"),
        ("seed = 3\nnot_a_key = 3\n", "run.cfg:2: unknown key"),
        ("cauchy = maybe\n", "bad boolean"),
        (None, "cannot read config file"),
        (b"\xff", "cannot read config file"),
    ], ids=["bad_int", "unknown_key", "bad_bool", "missing_file",
            "bad_encoding"])
    def test_bad_config_file_exits_two_with_record(self, tmp_path, capsys,
                                                   text, message):
        cfg_file = tmp_path / "run.cfg"
        if isinstance(text, bytes):
            cfg_file.write_bytes(text)
        elif text is not None:
            cfg_file.write_text(text)
        out = tmp_path / "out"
        argv = ["sample", "--config", str(cfg_file), "--n", "3", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        record = json.loads((out / "sample" / "error.json").read_text())
        assert record["error"] == "configuration"
        assert message in record["message"]
        # the record echoes the flags, none of the file's values
        assert record["config"]["n"] == 3
        assert record["config"]["seed"] == 0
        assert "configuration error" in capsys.readouterr().err

    def test_report_echoes_resolved_config(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 7\nn = 2\n")
        cfg = parse_config(["sample", "--config", str(cfg_file),
                            "--samples", "3", "--seed", "42",
                            "--out", str(tmp_path)])
        dispatch(cfg)
        report = json.loads((tmp_path / "sample" / "report.json").read_text())
        assert report["config"]["seed"] == 42
        assert report["config"]["n"] == 2
        assert "provenance" in report

    def test_provenance_names_the_blas_threading(self, monkeypatch):
        # the ladder's bits depend on the BLAS thread count, so the report
        # records the CPU count and both threading variables
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        prov = provenance()
        assert prov["cpu_count"] == os.cpu_count()
        assert prov["OPENBLAS_NUM_THREADS"] == "1"
        assert prov["OMP_NUM_THREADS"] is None


def test_json_report_writes_undefined_values_as_null(tmp_path):
    from wicknlw.reporting import write_json_report

    nan, inf = float("nan"), float("inf")
    path = write_json_report(tmp_path / "r.json", {
        "a": nan, "b": [inf, -inf, 1.5], "c": np.float64(nan),
        "d": np.float32(inf), "e": np.array([nan, 2.0]), "f": (np.int64(3),),
        "g": {"h": nan}, "i": None})
    assert json.loads(path.read_text()) == {
        "a": None, "b": [None, None, 1.5], "c": None, "d": None,
        "e": [None, 2.0], "f": [3], "g": {"h": None}, "i": None}
    assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()


def test_package_runs_with_scipy_unimportable(tmp_path):
    # a fresh interpreter (the test process itself imports scipy.signal) in
    # which every scipy import raises ImportError: all six subcommands and
    # the N = 0 oracle run on numpy alone, and no scipy module is loaded
    script = f"""
import sys
sys.modules["scipy"] = None
import wicknlw
import wicknlw.cli as cli
out = {str(tmp_path)!r}
for argv in (["sample", "--n", "2", "--samples", "4"],
             ["evolve", "--n", "2", "--T", "0.05", "--dt", "0.01"],
             ["gibbs", "--n", "1", "--samples", "20", "--method", "metropolis",
              "--chains", "2", "--burn-in", "5", "--thin", "1"],
             ["invariance", "--n", "2", "--T", "0", "--samples", "20",
              "--method", "importance"],
             ["chaos", "--ell-max", "2", "--n-list", "1,2", "--samples", "8"],
             ["universality", "--eps-list", "0.5,0.25", "--T", "0.05",
              "--dt", "0.01"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
print(wicknlw.single_mode_moment_quadrature(1.0, 3, 2))
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" and sys.modules[m] is not None))
"""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, loaded = proc.stdout.strip().splitlines()
    assert float(value) == pytest.approx(14.0521580350001, rel=1e-11)
    assert loaded == "[]"
