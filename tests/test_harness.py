"""Experiment driver: determinism, persistence, and the per-kind claims."""

import json
import math

import numpy as np
import pytest

from ripless.core import SupportSet
from ripless.ensembles import EnsembleSpec
from ripless.estimates import empirical_estimate
from ripless import harness
from ripless.harness import (
    ExperimentConfig,
    GridCell,
    config_hash,
    plant_signal,
    replay_trial,
    run_experiment,
    trial_rng,
)

GAUSS64 = EnsembleSpec("gaussian", 64)
DFT64 = EnsembleSpec("subsampled_dft", 64)


def phase_config(grid, trials=10, seed=1, **kw):
    return ExperimentConfig(kind="phase_transition", ensemble=GAUSS64,
                            grid=grid, trials=trials, seed=seed, **kw)


class TestConfig:
    def test_grid_cell_validation(self):
        GridCell(8, 0, 1)
        with pytest.raises(ValueError):
            GridCell(0, 0, 1)
        with pytest.raises(ValueError):
            GridCell(8, 9, 4)
        with pytest.raises(ValueError):
            GridCell(8, 2, 0)
        with pytest.raises(ValueError):
            GridCell(8, 2, 4, sigma=-0.1)
        with pytest.raises(ValueError):
            GridCell.from_doc({"n": 8, "s": 2, "m": 4, "rows": 5})
        cell = GridCell(8, 2, 4, 0.25)
        assert GridCell.from_doc(cell.to_doc()) == cell

    def test_kind_constraints(self):
        noisy = (GridCell(64, 2, 30, 0.5),)
        clean = (GridCell(64, 2, 30),)
        with pytest.raises(ValueError):
            phase_config(noisy)
        with pytest.raises(ValueError):
            phase_config(clean, program="lasso")
        with pytest.raises(ValueError):
            ExperimentConfig(kind="error_scaling", ensemble=GAUSS64, grid=clean,
                             trials=5, seed=1, program="lasso")
        with pytest.raises(ValueError):
            ExperimentConfig(kind="error_scaling", ensemble=GAUSS64, grid=noisy,
                             trials=5, seed=1, program="bp")
        with pytest.raises(ValueError):
            ExperimentConfig(kind="certificate_rate", ensemble=GAUSS64,
                             grid=(GridCell(64, 0, 200),), trials=5, seed=1)
        with pytest.raises(ValueError):
            # 36-row floor times the required batch count
            ExperimentConfig(kind="certificate_rate", ensemble=GAUSS64,
                             grid=(GridCell(64, 2, 80),), trials=5, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="estimate_sweep", ensemble=GAUSS64, grid=clean,
                             trials=5, seed=1, level=0.5)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="estimate_sweep", ensemble=GAUSS64, grid=clean,
                             trials=5, seed=1, which="E1")
        with pytest.raises(ValueError):
            phase_config(())
        with pytest.raises(ValueError):
            phase_config(clean, trials=0)
        with pytest.raises(ValueError):
            phase_config((GridCell(32, 2, 8),))  # n mismatch with ensemble
        with pytest.raises(ValueError):
            phase_config(clean, lam=0.0)

    @pytest.mark.parametrize("which, s, level, match", [
        ("E1", 0, 0.5, "s >= 1, got s = 0"),
        ("E3", 0, 0.5, "s >= 1, got s = 0"),
        ("E2", 2, -0.1, "level >= 0, got -0.1"),
        ("E4", 2, 1.5, "level <= sqrt"),
    ])
    def test_estimate_cells_that_cannot_run_are_refused(self, which, s, level, match):
        # refused before any trial draws, not after every trial has run
        grid = (GridCell(64, 3, 40), GridCell(64, s, 40))
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(kind="estimate_sweep", ensemble=GAUSS64, grid=grid,
                             trials=5, seed=1, which=which, level=level)

    @pytest.mark.parametrize("beta", [math.nan, 0.0, -5.0])
    def test_beta_must_be_positive(self, beta):
        # a bad beta would turn certificate_rate's rate_reference into 0.0
        with pytest.raises(ValueError, match="beta"):
            ExperimentConfig(kind="certificate_rate", ensemble=DFT64,
                             grid=(GridCell(64, 2, 300),), trials=4, seed=9, beta=beta)
        doc = phase_config((GridCell(64, 2, 30),)).to_doc()
        with pytest.raises(ValueError, match="beta"):
            ExperimentConfig.from_doc({**doc, "beta": beta})

    @pytest.mark.parametrize("power", [math.nan, math.inf, 0.0, -3.0])
    def test_signal_power_must_be_finite_and_positive(self, power):
        # a NaN power failed only inside basis_pursuit, and a negative one
        # grew the "decay" magnitudes as i^3 without complaint
        with pytest.raises(ValueError, match="signal_power"):
            phase_config((GridCell(64, 2, 30),), signal="decay", signal_power=power)
        doc = phase_config((GridCell(64, 2, 30),)).to_doc()
        with pytest.raises(ValueError, match="signal_power"):
            ExperimentConfig.from_doc({**doc, "signal": "decay", "signal_power": power})

    @pytest.mark.parametrize("key, value", [
        ("beta", math.inf), ("lam", math.inf), ("level", math.inf), ("level", math.nan),
        ("sigma", math.inf),
    ])
    def test_non_finite_numbers_are_refused_naming_the_key(self, key, value):
        # "lam": Infinity gave x_hat = 0 on every LASSO trial and exited 0,
        # and "sigma": Infinity failed only inside the solver
        doc = ExperimentConfig(kind="error_scaling", ensemble=GAUSS64,
                               grid=(GridCell(64, 2, 30, 0.5),), trials=2, seed=1,
                               program="lasso").to_doc()
        if key == "sigma":
            doc["grid"] = [{**doc["grid"][0], "sigma": value}]
        else:
            doc[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            ExperimentConfig.from_doc(doc)

    def test_which_is_normalized(self):
        cfg = ExperimentConfig(kind="estimate_sweep", ensemble=DFT64,
                               grid=(GridCell(64, 2, 30),), trials=5, seed=1,
                               which="e3", level=0.4)
        assert cfg.which == "E3"

    def test_doc_round_trip(self):
        cfg = ExperimentConfig(
            kind="ensemble_compare", ensemble=GAUSS64, ensembles=(DFT64,),
            grid=(GridCell(64, 3, 40), GridCell(64, 3, 64)), trials=7, seed=9,
            signal="gaussian", beta=0.5)
        back = ExperimentConfig.from_doc(cfg.to_doc())
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)
        with pytest.raises(ValueError):
            ExperimentConfig.from_doc({**cfg.to_doc(), "bogus": 1})
        missing = cfg.to_doc()
        del missing["seed"]
        with pytest.raises(ValueError):
            ExperimentConfig.from_doc(missing)

    def test_malformed_documents_raise_value_error_naming_the_key(self):
        good = phase_config((GridCell(64, 2, 30),)).to_doc()
        with pytest.raises(ValueError, match="'grid'"):
            ExperimentConfig.from_doc({**good, "grid": {"n": 64, "s": 2, "m": 30}})
        with pytest.raises(ValueError, match="'ensemble'"):
            ExperimentConfig.from_doc({**good, "ensemble": "gaussian"})
        with pytest.raises(ValueError, match="'ensembles'"):
            ExperimentConfig.from_doc({**good, "ensembles": "subsampled_dft"})
        with pytest.raises(ValueError, match="'ensembles'"):
            ExperimentConfig.from_doc({**good, "ensembles": ["subsampled_dft"]})
        with pytest.raises(ValueError, match="'trials'"):
            ExperimentConfig.from_doc({**good, "trials": 5.5})
        with pytest.raises(ValueError, match="'n'"):
            GridCell.from_doc({"n": 16.7, "s": 2, "m": 4})
        with pytest.raises(ValueError, match="'m'"):
            GridCell.from_doc({"n": 16, "s": 2, "m": "4"})
        with pytest.raises(ValueError, match="'s'"):
            GridCell.from_doc({"n": 16, "m": 4})
        with pytest.raises(ValueError, match="grid cell"):
            GridCell.from_doc([16, 2, 4])
        with pytest.raises(ValueError, match="'sigma'"):
            GridCell.from_doc({"n": 16, "s": 2, "m": 4, "sigma": None})
        with pytest.raises(ValueError, match="'beta'"):
            ExperimentConfig.from_doc({**good, "beta": [1.0]})
        with pytest.raises(ValueError, match="'lam'"):
            ExperimentConfig.from_doc({**good, "lam": "2"})
        with pytest.raises(ValueError, match="'which'"):
            ExperimentConfig.from_doc({**good, "kind": "estimate_sweep", "which": 1,
                                       "level": 0.5})
        # an ensemble n of 64.7 or "64" used to truncate to the grid's 64
        for bad in (64.7, "64", True):
            with pytest.raises(ValueError, match="ensemble key 'n'"):
                ExperimentConfig.from_doc({**good, "ensemble": {"family": "gaussian", "n": bad}})
        with pytest.raises(ValueError, match="ensemble key 'seed'"):
            ExperimentConfig.from_doc({**good, "ensemble": {"family": "gaussian", "n": 64,
                                                             "seed": 1.5}})
        # integral floats are integers
        assert GridCell.from_doc({"n": 16.0, "s": 2, "m": 4}) == GridCell(16, 2, 4)

    def test_hash_semantics(self):
        grid = (GridCell(64, 2, 30),)
        base = phase_config(grid, seed=3)
        # key order cannot matter
        shuffled = ExperimentConfig.from_doc(
            dict(reversed(list(base.to_doc().items()))))
        assert config_hash(shuffled) == config_hash(base)
        assert config_hash(phase_config(grid, seed=4)) != config_hash(base)
        assert config_hash(phase_config(grid, seed=3, trials=11)) != config_hash(base)
        # the output hint is not part of the experiment's identity
        assert config_hash(phase_config(grid, seed=3, out="elsewhere")) == config_hash(base)

    def test_trial_streams_are_distinct(self):
        a = trial_rng(5, 0, 1).integers(0, 2**63, 4)
        b = trial_rng(5, 1, 0).integers(0, 2**63, 4)
        c = trial_rng(5, 0, 1).integers(0, 2**63, 4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestSignals:
    def test_sparse_models(self):
        rng = np.random.default_rng(0)
        x = plant_signal(32, 5, "pm1", 2.0, rng)
        assert np.count_nonzero(x) == 5
        assert set(np.unique(x[x != 0])) <= {-1.0, 1.0}
        g = plant_signal(32, 5, "gaussian", 2.0, np.random.default_rng(1))
        assert np.count_nonzero(g) == 5
        assert plant_signal(32, 0, "pm1", 2.0, rng).any() == False

    def test_decay_model(self):
        x = plant_signal(16, 3, "decay", 1.5, np.random.default_rng(2))
        mags = np.sort(np.abs(x))[::-1]
        expected = np.arange(1, 17, dtype=float) ** -1.5
        assert np.allclose(mags, expected)
        assert np.count_nonzero(x) == 16

    def test_deterministic(self):
        a = plant_signal(32, 4, "gaussian", 2.0, np.random.default_rng(7))
        b = plant_signal(32, 4, "gaussian", 2.0, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestPhaseTransition:
    def test_zero_signal_and_invertible_cells(self):
        cfg = phase_config((GridCell(64, 0, 10), GridCell(64, 3, 64)), trials=8)
        res = run_experiment(cfg)
        assert res.records[0]["success_rate"] == 1.0
        assert res.records[1]["success_rate"] == 1.0
        assert res.records[0]["m_sufficient"] == 0

    def test_transition_monotone_in_m(self):
        lo = math.ceil(3 * math.log(64))
        hi = math.ceil(10 * 3 * math.log(64))
        cfg = phase_config((GridCell(64, 3, lo), GridCell(64, 3, hi)),
                           trials=20, seed=13)
        res = run_experiment(cfg, threads=2)
        assert res.records[1]["success_rate"] > res.records[0]["success_rate"]
        assert res.records[1]["success_rate"] >= 0.9

    def test_threads_do_not_change_bytes(self):
        cfg = phase_config((GridCell(64, 3, 30), GridCell(64, 2, 20)),
                           trials=6, seed=21)
        assert run_experiment(cfg, threads=1).csv_text() == \
            run_experiment(cfg, threads=4).csv_text()

    @pytest.mark.parametrize("threads", [0, -5])
    def test_threads_below_one_raise(self, threads):
        # they used to run serially
        with pytest.raises(ValueError, match="threads"):
            run_experiment(phase_config((GridCell(64, 3, 30),), trials=2), threads=threads)

    def test_replay_matches_aggregate(self):
        cfg = phase_config((GridCell(64, 3, 25),), trials=10, seed=2)
        res = run_experiment(cfg)
        rate = sum(replay_trial(cfg, 0, t)["success"] for t in range(10)) / 10
        assert rate == res.records[0]["success_rate"]


class TestErrorScaling:
    def test_vanishing_noise_reaches_solver_tolerance(self):
        # m >= n so the quadratic is strongly convex and the tiny penalty
        # cannot hide an interpolating nullspace component
        cfg = ExperimentConfig(kind="error_scaling", ensemble=GAUSS64,
                               grid=(GridCell(64, 3, 128, 1e-8),), trials=6,
                               seed=5, program="lasso")
        res = run_experiment(cfg, threads=2)
        assert res.records[0]["l2_sq_median"] <= 1e-10

    def test_doubling_m_halves_squared_error(self):
        n, s = 256, 4
        spec = EnsembleSpec("gaussian", n)
        unit = math.ceil(s * math.log(n))
        cfg = ExperimentConfig(
            kind="error_scaling", ensemble=spec,
            grid=(GridCell(n, s, 16 * unit, 0.5), GridCell(n, s, 32 * unit, 0.5)),
            trials=30, seed=20260817, program="lasso")
        res = run_experiment(cfg, threads=4)
        ratio = res.records[0]["l2_sq_median"] / res.records[1]["l2_sq_median"]
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5
        slope = res.metadata["slope_log_err2_vs_log_s_over_m"]
        assert slope is not None and slope > 0.0

    def test_bounds_accompany_medians(self):
        cfg = ExperimentConfig(kind="error_scaling", ensemble=GAUSS64,
                               grid=(GridCell(64, 3, 50, 0.5),), trials=5,
                               seed=8, program="dantzig")
        rec = run_experiment(cfg).records[0]
        assert rec["l2_bound"] > 0.0 and rec["l1_bound"] >= rec["l2_bound"]


class TestCertificateRate:
    def test_s1_cell(self):
        cfg = ExperimentConfig(kind="certificate_rate", ensemble=DFT64,
                               grid=(GridCell(64, 1, 200),), trials=10, seed=3)
        rec = run_experiment(cfg, threads=2).records[0]
        assert rec["success_rate"] >= 0.9
        assert rec["batches_used_median"] >= 2.0
        assert rec["rate_reference"] == pytest.approx(1 - 1 / 64 - math.exp(-1))

    def test_rate_increases_with_m(self):
        cfg = ExperimentConfig(kind="certificate_rate", ensemble=DFT64,
                               grid=(GridCell(64, 2, 110), GridCell(64, 2, 600)),
                               trials=15, seed=4)
        res = run_experiment(cfg, threads=2)
        assert res.records[1]["success_rate"] >= res.records[0]["success_rate"]
        assert res.records[1]["success_rate"] >= 0.9

    def test_desk_scale_rate(self):
        n, s = 256, 4
        spec = EnsembleSpec("subsampled_dft", n)
        cfg = ExperimentConfig(kind="certificate_rate", ensemble=spec,
                               grid=(GridCell(n, s, int(60 * s * math.log(n))),),
                               trials=30, seed=6)
        rec = run_experiment(cfg, threads=2).records[0]
        assert rec["success_rate"] >= 0.9
        assert rec["sign_margin_median"] > 0.0
        assert rec["off_margin_median"] > 0.0

    def test_replay_matches(self):
        cfg = ExperimentConfig(kind="certificate_rate", ensemble=DFT64,
                               grid=(GridCell(64, 2, 300),), trials=8, seed=9)
        res = run_experiment(cfg)
        rate = sum(replay_trial(cfg, 0, t)["success"] for t in range(8)) / 8
        assert rate == res.records[0]["success_rate"]


class TestEstimateSweep:
    def test_matches_direct_call(self):
        cfg = ExperimentConfig(kind="estimate_sweep", ensemble=DFT64,
                               grid=(GridCell(64, 3, 40),), trials=40, seed=11,
                               which="E1", level=0.5)
        rec = run_experiment(cfg, threads=3).records[0]
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(0,)))
        idx = np.sort(rng.choice(64, 3, replace=False))
        report = empirical_estimate(
            "E1", DFT64, 40, SupportSet(tuple(int(k) for k in idx), 64),
            0.5, 40, rng=rng, mu=1.0)
        assert rec["empirical_rate"] == report.empirical_rate
        assert rec["theoretical_bound"] == report.theoretical_bound
        assert rec["passed"] == report.passed

    def test_vector_estimates_and_replay(self):
        cfg = ExperimentConfig(kind="estimate_sweep", ensemble=GAUSS64,
                               grid=(GridCell(64, 2, 25),), trials=30, seed=17,
                               which="E2", level=0.5)
        rec = run_experiment(cfg).records[0]
        events = sum(replay_trial(cfg, 0, t)["event"] for t in range(30))
        assert events / 30 == rec["empirical_rate"]
        assert rec["passed"]


class TestEnsembleCompare:
    def test_fourier_matches_gaussian_at_ample_m(self):
        n, s = 256, 5
        m = math.ceil(10 * s * math.log(n))
        cfg = ExperimentConfig(
            kind="ensemble_compare", ensemble=EnsembleSpec("gaussian", n),
            ensembles=(EnsembleSpec("subsampled_dft", n),),
            grid=(GridCell(n, s, m),), trials=20, seed=23)
        res = run_experiment(cfg, threads=4)
        assert [rec["ensemble"] for rec in res.records] == ["gaussian", "subsampled_dft"]
        for rec in res.records:
            assert rec["success_rate"] >= 0.8
        # flattened index seeds the replays
        out = replay_trial(cfg, 1, 3)
        assert out["ensemble"] == "subsampled_dft"

    def test_row_order_is_cell_major(self):
        cfg = ExperimentConfig(
            kind="ensemble_compare", ensemble=GAUSS64, ensembles=(DFT64,),
            grid=(GridCell(64, 2, 20), GridCell(64, 2, 40)), trials=3, seed=2)
        res = run_experiment(cfg)
        assert [rec["cell"] for rec in res.records] == [0, 1, 2, 3]
        assert [rec["m"] for rec in res.records] == [20, 20, 40, 40]


class TestPersistence:
    def test_csv_shape_and_written_files(self, tmp_path):
        cfg = phase_config((GridCell(64, 2, 25),), trials=4, seed=31)
        res = run_experiment(cfg)
        text = res.csv_text()
        header, row = text.splitlines()[:2]
        assert header == "cell,n,s,m,sigma,trials,success_rate,nonconverged,m_sufficient"
        assert len(row.split(",")) == len(res.columns)
        assert "wall_time" not in header
        assert all("wall_time_s" in rec for rec in res.records)

        paths = res.write(str(tmp_path / "out"))
        side = json.loads(open(paths["config"]).read())
        assert side["config_hash"] == res.config_hash == config_hash(cfg)
        assert ExperimentConfig.from_doc(side["config"]) == cfg
        dat = open(paths["dat"]).read().splitlines()
        assert dat[0].startswith("# cell n s m")
        assert len(dat) == 1 + len(res.records)
        assert "plot 'plot.dat'" in open(paths["gp"]).read()

    def test_rewritten_run_is_byte_identical(self, tmp_path):
        cfg = phase_config((GridCell(64, 3, 30),), trials=5, seed=37)
        first = run_experiment(cfg).csv_text()
        second = run_experiment(ExperimentConfig.from_doc(cfg.to_doc())).csv_text()
        assert first == second

    def test_replay_bounds_checked(self):
        cfg = phase_config((GridCell(64, 2, 20),), trials=3, seed=1)
        with pytest.raises(ValueError):
            replay_trial(cfg, 1, 0)
        with pytest.raises(ValueError):
            replay_trial(cfg, 0, 3)


# one small config per kind, a few seconds in all
TINY = {
    "phase_transition": phase_config((GridCell(64, 0, 10), GridCell(64, 3, 25)),
                                     trials=4, seed=2),
    "error_scaling": ExperimentConfig(
        kind="error_scaling", ensemble=GAUSS64,
        grid=(GridCell(64, 3, 50, 0.5), GridCell(64, 2, 80, 0.5)), trials=4, seed=8,
        program="lasso"),
    "certificate_rate": ExperimentConfig(
        kind="certificate_rate", ensemble=DFT64,
        grid=(GridCell(64, 2, 300), GridCell(64, 1, 150)), trials=4, seed=9),
    "estimate_sweep": ExperimentConfig(
        kind="estimate_sweep", ensemble=GAUSS64,
        grid=(GridCell(64, 2, 25), GridCell(64, 3, 60)), trials=15, seed=17,
        which="E3", level=0.5),
    "ensemble_compare": ExperimentConfig(
        kind="ensemble_compare", ensemble=GAUSS64, ensembles=(DFT64,),
        grid=(GridCell(64, 2, 20), GridCell(64, 2, 40)), trials=3, seed=2),
}
DANTZIG = ExperimentConfig(kind="error_scaling", ensemble=GAUSS64,
                           grid=(GridCell(64, 3, 50, 0.5),), trials=3, seed=8,
                           program="dantzig")


def _cell_count(cfg):
    ensembles = len(cfg.all_ensembles) if cfg.kind == "ensemble_compare" else 1
    return len(cfg.grid) * ensembles


@pytest.mark.parametrize("kind", list(TINY))
def test_replays_recompute_every_aggregate(kind):
    cfg = TINY[kind]
    res = run_experiment(cfg, threads=1)
    assert res.csv_text() == run_experiment(cfg, threads=3).csv_text()
    assert len(res.records) == _cell_count(cfg)
    for rec in res.records:
        outs = [replay_trial(cfg, rec["cell"], t) for t in range(cfg.trials)]
        if kind == "error_scaling":
            assert float(np.median([o["l2_sq"] for o in outs])) == rec["l2_sq_median"]
        elif kind == "estimate_sweep":
            assert sum(o["event"] for o in outs) / cfg.trials == rec["empirical_rate"]
        else:
            assert sum(o["success"] for o in outs) / cfg.trials == rec["success_rate"]


@pytest.mark.parametrize("cfg", [*TINY.values(), DANTZIG],
                         ids=[*TINY, "error_scaling_dantzig"])
def test_harness_finds_rebound_names_at_call_time(cfg, monkeypatch):
    # a tracer rebinds these names in ripless.harness and must see every call
    log = []
    for name in ("trial_rng", "basis_pursuit", "lasso", "dantzig", "golfing_scheme"):
        def counted(*args, _name=name, _original=getattr(harness, name), **kwargs):
            log.append((_name, args[1:]) if _name == "trial_rng" else (_name,))
            return _original(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    run_experiment(cfg)
    # an estimate trial runs no solver, only its event on trial_rng
    solver = {"error_scaling": [(cfg.program,)], "certificate_rate": [("golfing_scheme",)],
              "estimate_sweep": []}.get(cfg.kind, [("basis_pursuit",)])
    assert log == [call for cell in range(_cell_count(cfg)) for t in range(cfg.trials)
                   for call in [("trial_rng", (cell, t)), *solver]]
