"""Command-line surface: schemas, exit codes, and harness coherence."""

import json
import math

import numpy as np
import pytest

from ripless.cli import main
from ripless.ensembles import EnsembleSpec
from ripless.estimates import empirical_estimate
from ripless.core import SupportSet, matrix_to_csv, vector_to_csv
from ripless.harness import (
    ExperimentConfig,
    GridCell,
    replay_trial,
    run_experiment,
)


def write_problem(tmp_path, noise=0.0, csv=False):
    rng = np.random.default_rng(7)
    m, n = 40, 64
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    x = np.zeros(n)
    x[[5, 17, 40]] = [1.0, -1.0, 1.0]
    y = A @ x + noise * rng.standard_normal(m)
    doc = {"sigma_m": noise}
    if csv:
        matrix_to_csv(A, str(tmp_path / "a.csv"))
        vector_to_csv(y, str(tmp_path / "y.csv"))
        doc |= {"a": {"csv": "a.csv"}, "y": {"csv": "y.csv"}}
    else:
        doc |= {"a": A.tolist(), "y": y.tolist()}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path), x


class TestSolve:
    def test_bp_recovers(self, tmp_path, capsys):
        path, x = write_problem(tmp_path)
        assert main(["solve", "--program", "bp", "--problem", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] and out["program"] == "bp"
        assert np.linalg.norm(np.array(out["x_hat"]) - x) <= 1e-6
        assert out["lambda"] is None

    def test_csv_references_resolve_relative(self, tmp_path, capsys):
        path, x = write_problem(tmp_path, csv=True)
        assert main(["solve", "--program", "bp", "--problem", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert np.linalg.norm(np.array(out["x_hat"]) - x) <= 1e-6

    def test_lasso_default_and_override(self, tmp_path, capsys):
        path, _ = write_problem(tmp_path, noise=0.01)
        assert main(["solve", "--program", "lasso", "--problem", path]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["lambda"] == pytest.approx(10 * math.sqrt(math.log(64)))
        assert main(["solve", "--program", "lasso", "--problem", path,
                     "--lambda", "5.0"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["lambda"] == 5.0
        assert second["objective"] != first["objective"]

    def test_tol_flag_loosens_stopping(self, tmp_path, capsys):
        # 8 Gaussian entries from 20 rows of 64 columns lie below the
        # transition: the l1 minimiser is not the planted signal and the
        # default tolerance takes a few hundred iterations; at --tol 1e-3 a
        # point whose certificate is within 1e-3, but not within the
        # default, ends the run sooner
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 64)) / math.sqrt(20)
        x = np.zeros(64)
        x[rng.choice(64, 8, replace=False)] = rng.standard_normal(8)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"a": A.tolist(), "y": (A @ x).tolist()}))
        main(["solve", "--program", "bp", "--problem", str(path)])
        tight = json.loads(capsys.readouterr().out)
        main(["solve", "--program", "bp", "--problem", str(path), "--tol", "1e-3"])
        loose = json.loads(capsys.readouterr().out)
        assert loose["iterations"] < tight["iterations"]
        assert loose["converged"] and tight["converged"]
        assert tight["kkt_residual"] <= 1e-7 < loose["kkt_residual"] <= 1e-3

    def test_bad_inputs_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": [[1.0, 2.0]], "y": [1.0, 2.0]}))
        assert main(["solve", "--program", "bp", "--problem", str(bad)]) == 1
        assert "shape mismatch" in capsys.readouterr().err
        bad.write_text(json.dumps({"y": [1.0]}))
        assert main(["solve", "--program", "bp", "--problem", str(bad)]) == 1
        assert main(["solve", "--program", "bp", "--problem",
                     str(tmp_path / "missing.json")]) == 1


class TestCertify:
    def test_rows_match_harness_cell(self, capsys):
        args = ["certify", "--ensemble", '{"family": "subsampled_dft", "n": 64}',
                "--s", "2", "--m", "300", "--trials", "4", "--seed", "9"]
        assert main(args) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert set(rows[0]) == {"success", "q_norms", "margins", "batches_used"}
        cfg = ExperimentConfig(kind="certificate_rate",
                               ensemble=EnsembleSpec("subsampled_dft", 64),
                               grid=(GridCell(64, 2, 300),), trials=4, seed=9)
        for t, row in enumerate(rows):
            rep = replay_trial(cfg, 0, t)
            assert row["success"] == rep["success"]
            assert row["batches_used"] == rep["batches_used"]
            assert row["q_norms"] == pytest.approx(list(rep["q_norms"]))

    def test_margin_keys(self, capsys):
        main(["certify", "--ensemble", "subsampled_dft", "--n", "64",
              "--s", "1", "--m", "150", "--trials", "2"])
        rows = json.loads(capsys.readouterr().out)
        assert set(rows[0]["margins"]) == \
            {"gram_inverse", "cross_column", "sign_gap", "off_support"}

    def test_ensemble_argument_forms(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(EnsembleSpec("gaussian", 32).to_json())
        assert main(["certify", "--ensemble", str(spec_file), "--s", "1",
                     "--m", "80", "--trials", "1", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["certify", "--ensemble", "gaussian", "--s", "1",
                     "--m", "80", "--trials", "1"]) == 1
        assert "bare family name" in capsys.readouterr().err
        assert main(["certify", "--ensemble", str(spec_file), "--n", "64",
                     "--s", "1", "--m", "80", "--trials", "1"]) == 1
        assert "disagrees" in capsys.readouterr().err


class TestEstimate:
    def test_e_rows_match_direct_call(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            [{"ensemble": {"family": "subsampled_dft", "n": 64},
              "s": 3, "m": 40, "level": 0.5}]))
        assert main(["estimate", "--which", "e1", "--grid", str(grid),
                     "--trials", "50", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("which,family,n,s,m,level,trials,"
                            "empirical_rate,bound,ci_upper,pass")
        fields = lines[1].split(",")
        rng = np.random.default_rng(np.random.SeedSequence(2, spawn_key=(0,)))
        idx = np.sort(rng.choice(64, 3, replace=False))
        report = empirical_estimate("E1", EnsembleSpec("subsampled_dft", 64), 40,
                                    SupportSet(tuple(int(k) for k in idx), 64),
                                    0.5, 50, rng=rng, mu=1.0)
        assert float(fields[7]) == report.empirical_rate
        assert float(fields[8]) == report.theoretical_bound
        assert fields[10] == ("true" if report.passed else "false")

    def test_weakrip_generous_delta_passes(self, capsys):
        grid = json.dumps([{"ensemble": "gaussian", "n": 16, "s": 2, "r": 1,
                            "m": 200, "delta": 3.0}])
        assert main(["estimate", "--which", "weakrip", "--grid", grid,
                     "--trials", "5", "--seed", "1"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert "delta,mode" in header
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["empirical_rate"] == "0.0"
        assert fields["bound"] == ""  # no named constant to evaluate
        assert fields["pass"] == "true"

    def test_noise_bound_is_half_over_n(self, capsys):
        grid = json.dumps([{"ensemble": "subsampled_dft", "n": 32, "m": 32}])
        assert main(["estimate", "--which", "noise", "--grid", grid,
                     "--trials", "100", "--seed", "4"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["bound"]) == 1.0 / 64.0

    def test_cell_validation(self, capsys):
        grid = json.dumps([{"ensemble": "gaussian", "n": 16, "s": 2, "m": 20}])
        assert main(["estimate", "--which", "e1", "--grid", grid,
                     "--trials", "5"]) == 1
        assert "missing" in capsys.readouterr().err
        assert main(["estimate", "--which", "e1", "--grid", "[]",
                     "--trials", "5"]) == 1
        capsys.readouterr()
        assert main(["estimate", "--which", "noise", "--grid", "[5]",
                     "--trials", "5"]) == 1
        assert capsys.readouterr().err == "error: grid cell 0 must be an object, got 5\n"
        with pytest.raises(SystemExit):
            main(["estimate", "--which", "e9", "--grid", "[]"])

    @pytest.mark.parametrize("which, cell, key", [
        ("noise", {"m": 32, "sigam": 0.25}, "sigam"),
        ("e1", {"s": 2, "m": 40, "level": 0.5, "delta": 0.5}, "delta"),
        ("weakrip", {"s": 2, "r": 1, "m": 40, "delta": 0.5, "level": 0.5}, "level"),
    ])
    def test_unknown_cell_keys_are_rejected(self, capsys, which, cell, key):
        # a misspelt optional key used to run with its default and exit 0
        grid = json.dumps([{"ensemble": "subsampled_dft", "n": 32, **cell}])
        assert main(["estimate", "--which", which, "--grid", grid, "--trials", "5"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: grid cell 0 has unknown keys for {which}: ['{key}']\n"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("which, cell, key", [
        ("e1", {"s": 2.7, "m": 40, "level": 0.5}, "s"),
        ("e1", {"s": True, "m": 40, "level": 0.5}, "s"),
        ("e1", {"s": 2, "m": "40", "level": 0.5}, "m"),
        ("e1", {"s": 2, "m": 40, "level": "0.5"}, "level"),
        ("weakrip", {"s": 2, "r": 1, "m": 40, "delta": 0.5, "budget": 10.5}, "budget"),
        ("noise", {"m": 40.9}, "m"),
        ("noise", {"m": 40, "sigma": None}, "sigma"),
    ])
    def test_cell_values_are_typed_like_config_documents(self, capsys, which, cell, key):
        grid = json.dumps([{"ensemble": "gaussian", "n": 16, **cell}])
        assert main(["estimate", "--which", which, "--grid", grid, "--trials", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: grid cell 0 key '{key}'") and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["certify", "--ensemble", "subsampled_dft", "--n", "64", "--s", "1", "--m", "150"],
        ["estimate", "--which", "e1", "--grid", "[]"],
    ])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_a_usage_error(self, capsys, command, trials):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err


class TestRunReplay:
    def config_file(self, tmp_path, **extra):
        doc = {"kind": "phase_transition",
               "ensemble": {"family": "gaussian", "n": 64},
               "grid": [{"n": 64, "s": 3, "m": 30}], "trials": 5, "seed": 4,
               **extra}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_writes_and_prints(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        csv_path = out_dir / "results.csv"
        assert captured.out == csv_path.read_text()
        assert (out_dir / "config.json").exists()
        config = ExperimentConfig.from_doc(json.loads(cfg.read_text()))
        assert captured.out == run_experiment(config).csv_text()

    def test_out_defaults_to_config_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self.config_file(tmp_path, out="from_config")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "results.csv").exists()

    def test_threads_flag_keeps_bytes(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"),
              "--threads", "1"])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--threads", "4"])
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("grid", {"n": 64, "s": 3, "m": 30}),
        ("ensemble", "gaussian"),
        ("grid", [{"n": 64.7, "s": 3, "m": 30}]),
    ])
    def test_run_rejects_malformed_config(self, tmp_path, capsys, key, value):
        cfg = self.config_file(tmp_path, **{key: value})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("power", [math.nan, math.inf, 0.0, -3.0])
    def test_run_rejects_a_bad_signal_power(self, tmp_path, capsys, power):
        cfg = self.config_file(tmp_path, signal="decay", signal_power=power)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: signal_power") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["family", "n"])
    def test_run_names_a_missing_ensemble_key(self, tmp_path, capsys, missing):
        ensemble = {"family": "gaussian", "n": 64}
        del ensemble[missing]
        cfg = self.config_file(tmp_path, ensemble=ensemble)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: ensemble is missing required key '{missing}'\n"

    def test_replay_round_trip(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        out_dir = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["replay", "--result", str(out_dir / "results.csv"),
                     "--cell", "0", "--trial", "2"]) == 0
        got = json.loads(capsys.readouterr().out)
        config = ExperimentConfig.from_doc(json.loads(cfg.read_text()))
        want = replay_trial(config, 0, 2)
        assert got["success"] == want["success"]
        assert got["rel_error"] == want["rel_error"]

    def test_replay_guards(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        out_dir = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["replay", "--result", str(out_dir / "results.csv"),
                     "--cell", "0", "--trial", "99"]) == 1
        # orphan CSV with no sidecar
        orphan = tmp_path / "orphan.csv"
        orphan.write_text("x\n")
        assert main(["replay", "--result", str(orphan), "--cell", "0",
                     "--trial", "0"]) == 1
        assert "sidecar" in capsys.readouterr().err
        # tampered sidecar no longer matches its own recorded hash
        side_path = out_dir / "config.json"
        side = json.loads(side_path.read_text())
        side["config"]["trials"] = 50
        side_path.write_text(json.dumps(side))
        assert main(["replay", "--result", str(out_dir / "results.csv"),
                     "--cell", "0", "--trial", "0"]) == 1
        assert "hash" in capsys.readouterr().err
