"""Configuration resolution, dispatch, artifacts, exit codes."""

import csv
import json
from pathlib import Path

import pytest

from wicknlw.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    RunConfig,
    dispatch,
    main,
    parse_config,
    read_config_file,
)


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


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

    def test_zero_mass_rejected(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config(["sample", "--rho", "0"])

    def test_zero_mass_exit_code(self, capsys):
        assert main(["sample", "--rho", "0"]) == EXIT_CONFIG
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
        import numpy as np

        cfg = parse_config(["evolve", "--n", "2", "--T", "0.03", "--dt", "0.01",
                            "--dump-states", "--out", str(tmp_path)])
        assert dispatch(cfg) == EXIT_OK
        snap = np.load(tmp_path / "evolve" / "states.npz")
        assert snap["u"].shape[1:] == (5, 5)
        assert len(snap["times"]) == snap["u"].shape[0]

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
