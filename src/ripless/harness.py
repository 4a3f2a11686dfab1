"""Seeded experiment driver with flat-file persistence.

Five experiment kinds cover the library's claims at desk scale: noiseless
phase transitions, noisy error scaling, golfing certificate rates,
estimate-validation sweeps, and cross-ensemble comparisons. Each kind is
defined once, in the `_KINDS` table: a trial function that runs one trial
and returns its private details, a cell function that turns a cell's
trials into CSV columns, and the CSV's column list. `run_experiment` runs
the cell functions, `replay_trial` calls the trial function, and the
`certify` and `estimate` commands call `golfing_trial` and
`estimate_cell`, the same functions the certificate and estimate kinds
use.

A run is fully determined by (config, seed): every trial owns the
substream rng(seed, cell, trial) derived by SeedSequence spawn keys, and
aggregation is order-independent counting, so results are byte-identical
across thread counts. Wall-clock timings live in the result object and
the config.json sidecar, never in the CSV, to keep the CSV reproducible.

Within a recovery trial the stream is consumed in a fixed order: signal
first (support, then amplitudes), then the sensing matrix, then
measurement noise. An estimate_sweep cell instead derives one generator
from SeedSequence(seed, spawn_key=(cell,)), draws the target from it and
spawns the trials' streams from what is left.

Complex ensembles are realified for the recovery experiments: a cell's m
counts ensemble draws, the solved real system has 2m rows, and the noise
scale is sigma / sqrt(2m) per realified row, matching the per-measurement
normalization of the model on the system actually handed to the solver.

The solvers, `golfing_scheme`, `empirical_estimate` and `trial_rng` are
looked up as module globals at call time, so a caller that rebinds them
here (a tracer, a test) sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .certificates import config_from_total, default_batch_count, golfing_scheme
from .core import SupportSet, realify
from .ensembles import EnsembleSpec, build_matrix, deterministic_coherence
from .estimates import empirical_estimate
from .solvers import (
    ErrorBoundInputs,
    basis_pursuit,
    dantzig,
    default_lambda,
    l1_error_bound,
    l2_error_bound,
    lasso,
)

__all__ = [
    "KINDS",
    "GridCell",
    "ExperimentConfig",
    "ExperimentResult",
    "config_hash",
    "trial_rng",
    "plant_signal",
    "golfing_trial",
    "estimate_cell",
    "run_experiment",
    "replay_trial",
    "format_csv",
    "doc_int",
    "doc_float",
]

KINDS = (
    "phase_transition",
    "error_scaling",
    "certificate_rate",
    "estimate_sweep",
    "ensemble_compare",
)
SIGNAL_MODELS = ("pm1", "gaussian", "decay")
ESTIMATE_KINDS = ("E1", "E2", "E3", "E4")

# Exact recovery is declared at solver precision, not at machine zero.
SUCCESS_REL_TOL = 1e-5
ZERO_SIGNAL_ABS_TOL = 1e-10

try:
    from importlib.metadata import version as _pkg_version

    ARTIFACT_VERSION = _pkg_version("ripless")
except Exception:  # not installed; running from a checkout
    ARTIFACT_VERSION = "0.0.0+local"


@dataclass(frozen=True)
class GridCell:
    """One experiment cell: ambient dimension, sparsity, rows, noise."""

    n: int
    s: int
    m: int
    sigma: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0 <= self.s <= self.n):
            raise ValueError("s must lie in [0, n]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (self.sigma >= 0.0):
            raise ValueError("sigma must be >= 0")

    def to_doc(self) -> dict:
        return {"n": self.n, "s": self.s, "m": self.m, "sigma": self.sigma}

    @staticmethod
    def from_doc(doc: dict) -> "GridCell":
        if not isinstance(doc, dict):
            raise ValueError(f"a grid cell must be an object, got {doc!r}")
        extra = set(doc) - {"n", "s", "m", "sigma"}
        if extra:
            raise ValueError(f"unknown grid cell keys: {sorted(extra)}")
        return GridCell(doc_int(doc, "n", "grid cell"), doc_int(doc, "s", "grid cell"),
                        doc_int(doc, "m", "grid cell"),
                        doc_float(doc, "sigma", 0.0, "grid cell"))


_REQUIRED = object()  # the default of a key that must be present


def doc_int(doc: dict, key: str, where: str = "config", default=_REQUIRED) -> int:
    """An integer key of a JSON document; a fractional, boolean or
    non-numeric value is an error, never truncated."""
    if key not in doc and default is _REQUIRED:
        raise ValueError(f"{where} is missing required key '{key}'")
    value = doc.get(key, default)
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{where} key '{key}' must be an integer, got {value!r}")
    return int(value)


def doc_float(doc: dict, key: str, default=_REQUIRED, where: str = "config"):
    """A numeric key of a JSON document; null stands for "not given" only
    where the default is None."""
    if key not in doc and default is _REQUIRED:
        raise ValueError(f"{where} is missing required key '{key}'")
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} key '{key}' must be a number, got {value!r}")
    return float(value)


_JSON_TYPES = {dict: "an object", list: "an array"}


def _doc_of(doc: dict, key: str, kind: type):
    value = doc[key]
    if not isinstance(value, kind):
        raise ValueError(f"config key '{key}' must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


_CONFIG_KEYS = {
    "kind", "ensemble", "ensembles", "grid", "trials", "seed", "program",
    "signal", "signal_power", "lam", "beta", "which", "level", "out",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; hashable to a stable identity.

    `ensembles` lists additional row distributions for ensemble_compare
    (the primary `ensemble` is always compared first). `which`/`level`
    select the estimate for estimate_sweep. `out` is a destination hint
    and is excluded from the config hash: moving a result does not change
    the experiment.
    """

    kind: str
    ensemble: EnsembleSpec
    grid: tuple
    trials: int
    seed: int
    program: str = "bp"
    signal: str = "pm1"
    signal_power: float = 2.0
    lam: float | None = None
    beta: float = 1.0
    which: str | None = None
    level: float | None = None
    ensembles: tuple = ()
    out: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        grid = tuple(self.grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        if not all(isinstance(c, GridCell) for c in grid):
            raise ValueError("grid entries must be GridCell instances")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "ensembles", tuple(self.ensembles))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.program not in ("bp", "lasso", "dantzig"):
            raise ValueError("program must be bp, lasso, or dantzig")
        if self.signal not in SIGNAL_MODELS:
            raise ValueError(f"signal must be one of {SIGNAL_MODELS}")
        if self.lam is not None and not (self.lam > 0.0):
            raise ValueError("lam must be positive when given")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be > 0, got {self.beta!r}")
        if not (math.isfinite(self.signal_power) and self.signal_power > 0.0):
            raise ValueError(f"signal_power must be finite and > 0, got {self.signal_power!r}")
        for spec in self.all_ensembles:
            for cell in grid:
                if cell.n != spec.n:
                    raise ValueError(
                        "cell n must match the ensemble's n; parameterized "
                        "families pin n structurally, so sweep n across runs"
                    )
        if self.kind == "phase_transition":
            if any(c.sigma != 0.0 for c in grid):
                raise ValueError("phase_transition cells must be noiseless")
            if self.program != "bp":
                raise ValueError("phase transitions are defined by basis pursuit")
        if self.kind == "ensemble_compare" and self.program != "bp":
            raise ValueError("ensemble_compare runs basis pursuit")
        if self.kind == "error_scaling":
            if any(not (c.sigma > 0.0) for c in grid):
                raise ValueError("error_scaling cells need sigma > 0")
            if self.program == "bp":
                raise ValueError("error_scaling is about the noisy programs; "
                                 "use lasso or dantzig")
        if self.kind == "certificate_rate":
            for cell in grid:
                if cell.s < 1:
                    raise ValueError("certificate cells need s >= 1")
                floor = 36 * default_batch_count(cell.s)
                if cell.m < floor:
                    raise ValueError(
                        f"cell m = {cell.m} cannot hold the batch schedule "
                        f"(needs >= {floor})"
                    )
        if self.kind == "estimate_sweep":
            if self.which is None or self.which.upper() not in ESTIMATE_KINDS:
                raise ValueError(f"estimate_sweep needs which in {ESTIMATE_KINDS}")
            object.__setattr__(self, "which", self.which.upper())
            if self.level is None:
                raise ValueError("estimate_sweep needs a deviation level")

    @property
    def all_ensembles(self) -> tuple:
        return (self.ensemble,) + self.ensembles

    def to_doc(self) -> dict:
        doc = {
            "kind": self.kind,
            "ensemble": json.loads(self.ensemble.to_json()),
            "grid": [c.to_doc() for c in self.grid],
            "trials": self.trials,
            "seed": self.seed,
            "program": self.program,
            "signal": self.signal,
            "signal_power": self.signal_power,
            "lam": self.lam,
            "beta": self.beta,
            "which": self.which,
            "level": self.level,
        }
        if self.ensembles:
            doc["ensembles"] = [json.loads(e.to_json()) for e in self.ensembles]
        if self.out is not None:
            doc["out"] = self.out
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "ExperimentConfig":
        extra = set(doc) - _CONFIG_KEYS
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        for key in ("kind", "ensemble", "grid", "trials", "seed"):
            if key not in doc:
                raise ValueError(f"config is missing required key '{key}'")
        for key in ("kind", "program", "signal", "which", "out"):
            if doc.get(key) is not None and not isinstance(doc[key], str):
                raise ValueError(f"config key '{key}' must be a string, got {doc[key]!r}")
        extra_specs = _doc_of(doc, "ensembles", list) if "ensembles" in doc else []
        if not all(isinstance(e, dict) for e in extra_specs):
            raise ValueError("config key 'ensembles' must list ensemble objects")
        return ExperimentConfig(
            kind=doc["kind"],
            ensemble=EnsembleSpec.from_dict(_doc_of(doc, "ensemble", dict)),
            grid=tuple(GridCell.from_doc(c) for c in _doc_of(doc, "grid", list)),
            trials=doc_int(doc, "trials"),
            seed=doc_int(doc, "seed"),
            program=doc.get("program", "bp"),
            signal=doc.get("signal", "pm1"),
            signal_power=doc_float(doc, "signal_power", 2.0),
            lam=doc_float(doc, "lam", None),
            beta=doc_float(doc, "beta", 1.0),
            which=doc.get("which"),
            level=doc_float(doc, "level", None),
            ensembles=tuple(EnsembleSpec.from_dict(e) for e in extra_specs),
            out=doc.get("out"),
        )


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical config JSON; key order cannot affect it."""
    doc = config.to_doc()
    doc.pop("out", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def trial_rng(seed: int, cell: int, trial: int) -> np.random.Generator:
    """The deterministic substream owned by one trial of one cell."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cell, trial)))


def plant_signal(n: int, s: int, model: str, power: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw the test signal for one trial.

    "pm1" and "gaussian" put s iid amplitudes on a uniform random
    support; "decay" is the compressible model with sorted magnitudes
    i^(-power) scattered over all n coordinates, for which s only caps
    the reference error bounds.
    """
    if model == "decay":
        x = np.zeros(n)
        magnitudes = np.arange(1, n + 1, dtype=float) ** (-power)
        x[rng.permutation(n)] = magnitudes * rng.choice([-1.0, 1.0], n)
        return x
    x = np.zeros(n)
    if s == 0:
        return x
    idx = np.sort(rng.choice(n, s, replace=False))
    if model == "pm1":
        x[idx] = rng.choice([-1.0, 1.0], s)
    else:
        x[idx] = rng.standard_normal(s)
    return x


def _reference_mu(spec: EnsembleSpec) -> float:
    # gaussian coherence is stochastic; 6 log n is the standard working
    # value at desk scale (n >= 16)
    if spec.family == "gaussian":
        return 6.0 * math.log(spec.n)
    return deterministic_coherence(spec)


def _sufficient_rows(spec: EnsembleSpec, s: int) -> int:
    # row count at which the on-support isometry event is guaranteed
    # except with probability 2/n
    if s == 0:
        return 0
    return math.ceil((56.0 / 3.0) * _reference_mu(spec) * s * math.log(spec.n))


# -- trial functions: (config, spec, cell, cell index, trial) -> dict ------

def _recovery_trial(config: ExperimentConfig, spec: EnsembleSpec, cell: GridCell,
                    index: int, trial: int) -> dict:
    rng = trial_rng(config.seed, index, trial)
    x = plant_signal(cell.n, cell.s, config.signal, config.signal_power, rng)
    A = build_matrix(spec, cell.m, rng=rng)
    rows = realify(A).rows
    y = rows @ x
    m_rows = rows.shape[0]
    sigma_m = cell.sigma / math.sqrt(m_rows)
    if cell.sigma > 0.0:
        y = y + sigma_m * rng.standard_normal(m_rows)

    if config.program == "bp":
        result = basis_pursuit(rows, y)
    else:
        lam = config.lam if config.lam is not None else default_lambda(cell.n)
        solver = lasso if config.program == "lasso" else dantzig
        result = solver(rows, y, lam * sigma_m)

    diff = result.x_hat - x
    norm_x = float(np.linalg.norm(x))
    if norm_x == 0.0:
        success = float(np.linalg.norm(result.x_hat)) <= ZERO_SIGNAL_ABS_TOL
        rel_error = float(np.linalg.norm(result.x_hat))
    else:
        rel_error = float(np.linalg.norm(diff)) / norm_x
        success = rel_error <= SUCCESS_REL_TOL
    return {
        "success": bool(success),
        "converged": bool(result.converged),
        "rel_error": rel_error,
        "l2_sq": float(np.linalg.norm(diff) ** 2),
        "l1": float(np.sum(np.abs(diff))),
        "iterations": int(result.iterations),
        "x": x,
        "x_hat": result.x_hat,
        "m_rows": m_rows,
    }


def _compare_trial(config, spec, cell, index, trial) -> dict:
    return {**_recovery_trial(config, spec, cell, index, trial), "ensemble": spec.family}


def golfing_trial(spec: EnsembleSpec, cell: GridCell, seed: int, index: int, trial: int):
    """(support, signs, certificate) drawn in that order from trial_rng(seed,
    index, trial): a uniform size-s support, iid +-1 signs on it, then the
    batches of the cell's default schedule, config_from_total(n, s, m)."""
    rng = trial_rng(seed, index, trial)
    idx = np.sort(rng.choice(cell.n, cell.s, replace=False))
    signs = np.zeros(cell.n)
    signs[idx] = rng.choice([-1.0, 1.0], cell.s)
    support = SupportSet(tuple(int(k) for k in idx), cell.n)
    schedule = config_from_total(cell.n, cell.s, cell.m)
    return support, signs, golfing_scheme(spec, support, signs, schedule, rng)


def _certificate_trial(config, spec, cell, index, trial) -> dict:
    support, signs, cert = golfing_trial(spec, cell, config.seed, index, trial)
    idx = support.to_array()
    off = np.delete(cert.v, idx)
    return {
        "support": list(support.indices),
        "success": cert.success,
        "batches_used": cert.batches_used,
        "m_total": cert.m_total,
        "q_norms": list(cert.q_norms),
        "accepted": [b.accepted for b in cert.batch_log],
        "sign_margin": 0.25 - float(np.linalg.norm(cert.v[idx] - signs[idx])),
        "off_margin": 0.25 - (float(np.max(np.abs(off))) if off.size else 0.0),
    }


def _estimate_draw(which: str, cell: GridCell, seed: int, index: int):
    # (generator, support, unit vector or None), the vector for E2/E3 only
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    idx = np.sort(rng.choice(cell.n, cell.s, replace=False))
    support = SupportSet(tuple(int(k) for k in idx), cell.n)
    if which in ("E1", "E4"):
        return rng, support, None
    v = np.zeros(cell.n)
    amps = rng.standard_normal(cell.s)
    v[idx] = amps / np.linalg.norm(amps)
    return rng, support, v


def estimate_cell(which: str, spec: EnsembleSpec, cell: GridCell, level: float,
                  trials: int, seed: int, index: int, threads: int = 1):
    """empirical_estimate for one cell. SeedSequence(seed, spawn_key=(index,))
    draws the target (a uniform size-s support for E1/E4, a unit vector with
    Gaussian amplitudes on one for E2/E3), then goes to empirical_estimate
    with the coherence mu of the spec (6 log n for the gaussian family)."""
    rng, support, v = _estimate_draw(which, cell, seed, index)
    return empirical_estimate(which, spec, cell.m, support if v is None else v, level,
                              trials, rng=rng, mu=_reference_mu(spec), threads=threads)


def _event_trial(config, spec, cell, index, trial) -> dict:
    from .estimates import _event_occurs

    rng, support, v = _estimate_draw(config.which, cell, config.seed, index)
    event = _event_occurs(config.which, spec, cell.m, support, v, config.level,
                          rng.spawn(config.trials)[trial])
    return {"which": config.which, "level": config.level, "event": bool(event),
            "support": list(support.indices)}


# -- cell functions: (config, spec, cell, cell index, threads) -> columns --

def _cell_trials(config, spec, cell, index, threads) -> list:
    trial = _KINDS[config.kind][0]

    def run(t):
        return trial(config, spec, cell, index, t)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(config.trials)))
    return [run(t) for t in range(config.trials)]


def _success_cell(config, spec, cell, index, threads) -> dict:
    outs = _cell_trials(config, spec, cell, index, threads)
    return {
        "success_rate": sum(o["success"] for o in outs) / config.trials,
        "nonconverged": sum(not o["converged"] for o in outs),
        "m_sufficient": _sufficient_rows(spec, cell.s),
    }


def _error_cell(config, spec, cell, index, threads) -> dict:
    outs = _cell_trials(config, spec, cell, index, threads)
    mu = _reference_mu(spec)
    l2_bounds, l1_bounds = [], []
    for o in outs:
        inputs = ErrorBoundInputs(s=cell.s, m=o["m_rows"], n=cell.n, sigma=cell.sigma,
                                  mu=mu, beta=config.beta, x=o["x"])
        l2_bounds.append(l2_error_bound(inputs, config.program))
        l1_bounds.append(l1_error_bound(inputs, config.program))
    return {
        "l2_sq_median": float(np.median([o["l2_sq"] for o in outs])),
        "l1_median": float(np.median([o["l1"] for o in outs])),
        "l2_bound": float(np.median(l2_bounds)),
        "l1_bound": float(np.median(l1_bounds)),
        "nonconverged": sum(not o["converged"] for o in outs),
    }


def _certificate_cell(config, spec, cell, index, threads) -> dict:
    outs = _cell_trials(config, spec, cell, index, threads)
    return {
        "success_rate": sum(o["success"] for o in outs) / config.trials,
        "rate_reference": max(0.0, 1.0 - 1.0 / cell.n - math.exp(-config.beta)),
        "batches_used_median": float(np.median([o["batches_used"] for o in outs])),
        "sign_margin_median": float(np.median([o["sign_margin"] for o in outs])),
        "off_margin_median": float(np.median([o["off_margin"] for o in outs])),
    }


def _estimate_cell(config, spec, cell, index, threads) -> dict:
    report = estimate_cell(config.which, spec, cell, config.level, config.trials,
                           config.seed, index, threads)
    return {
        "which": config.which,
        "level": config.level,
        "empirical_rate": report.empirical_rate,
        "theoretical_bound": report.theoretical_bound,
        "ci_lower": report.ci_lower,
        "ci_upper": report.ci_upper,
        "passed": report.passed,
    }


_CELL_COLUMNS = ("cell", "n", "s", "m", "sigma", "trials")

# kind -> (trial function, cell function, CSV columns)
_KINDS = {
    "phase_transition": (_recovery_trial, _success_cell, _CELL_COLUMNS + (
        "success_rate", "nonconverged", "m_sufficient")),
    "error_scaling": (_recovery_trial, _error_cell, _CELL_COLUMNS + (
        "l2_sq_median", "l1_median", "l2_bound", "l1_bound", "nonconverged")),
    "certificate_rate": (_certificate_trial, _certificate_cell, _CELL_COLUMNS + (
        "success_rate", "rate_reference", "batches_used_median", "sign_margin_median",
        "off_margin_median")),
    "estimate_sweep": (_event_trial, _estimate_cell, (
        "cell", "which", "n", "s", "m", "level", "trials", "empirical_rate",
        "theoretical_bound", "ci_lower", "ci_upper", "passed")),
    "ensemble_compare": (_compare_trial, _success_cell, (
        "cell", "ensemble", "n", "s", "m", "sigma", "trials", "success_rate",
        "nonconverged", "m_sufficient")),
}


def _cells(config: ExperimentConfig) -> list:
    # (cell index, grid cell, ensemble) in CSV row order; ensemble_compare
    # is cell-major over its ensembles, so its index is the flattened
    # grid_cell * len(ensembles) + ensemble_position
    specs = config.all_ensembles if config.kind == "ensemble_compare" else (config.ensemble,)
    return [(i * len(specs) + j, cell, spec)
            for i, cell in enumerate(config.grid) for j, spec in enumerate(specs)]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> "ExperimentResult":
    """Run every cell of the config, one CSV row per cell.

    Basis pursuit succeeds when ||x_hat - x|| <= 1e-5 ||x|| (||x_hat|| <=
    1e-10 for the zero signal); a solve that does not converge fails and
    is also counted in nonconverged. m_sufficient is the row count at
    which the support isometry holds except with probability 2/n.
    error_scaling gives medians over trials of the errors and of the
    bound shapes at C = 1, and the metadata the fitted slope of log median
    squared error against log(s/m), reported, never asserted.
    certificate_rate gives the golfing success frequency, the full-scale
    guarantee 1 - 1/n - exp(-beta), and the median margins
    1/4 - ||v_T - sgn|| and 1/4 - ||v_off||_inf.
    """
    _, cell_columns, columns = _KINDS[config.kind]
    records = []
    for index, cell, spec in _cells(config):
        start = time.perf_counter()
        rec = {"cell": index, "ensemble": spec.family, **cell.to_doc(),
               "trials": config.trials}
        rec.update(cell_columns(config, spec, cell, index, threads))
        rec["wall_time_s"] = time.perf_counter() - start
        records.append(rec)
    metadata = {
        "success_threshold_rel_l2": SUCCESS_REL_TOL,
        "zero_signal_abs_tol": ZERO_SIGNAL_ABS_TOL,
        "signal_model": config.signal,
    }
    if config.kind == "error_scaling":
        metadata["slope_log_err2_vs_log_s_over_m"] = _fit_slope(records)
    return ExperimentResult(
        kind=config.kind,
        columns=columns,
        records=tuple(records),
        seed=config.seed,
        config_hash=config_hash(config),
        version=ARTIFACT_VERSION,
        metadata=metadata,
        config_doc=config.to_doc(),
    )


def _fit_slope(records) -> float | None:
    xs, ys = [], []
    for rec in records:
        if rec["l2_sq_median"] > 0.0 and rec["s"] > 0:
            xs.append(math.log(rec["s"] / rec["m"]))
            ys.append(math.log(rec["l2_sq_median"]))
    if len(set(xs)) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = repr(value)
    elif value is None:
        text = ""
    else:
        text = str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_csv(columns, records) -> str:
    """A header line, then one line per record, each ending in a newline."""
    lines = [",".join(columns)]
    lines += [",".join(_csv_field(rec[c]) for c in columns) for rec in records]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentResult:
    """Per-cell records plus the identity of the run that produced them.

    Records carry wall_time_s for inspection; the CSV omits it so
    identical (config, seed) runs serialize byte-identically.
    """

    kind: str
    columns: tuple
    records: tuple
    seed: int
    config_hash: str
    version: str
    metadata: dict = field(default_factory=dict)
    config_doc: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        return format_csv(self.columns, self.records)

    def sidecar_doc(self) -> dict:
        return {
            "config": self.config_doc,
            "config_hash": self.config_hash,
            "artifact_version": self.version,
            "kind": self.kind,
            "seed": self.seed,
            "metadata": self.metadata,
            "cell_wall_times_s": [rec.get("wall_time_s") for rec in self.records],
        }

    def write(self, out_dir: str) -> dict:
        """Persist results.csv, config.json, plot.dat, and plot.gp."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "csv": os.path.join(out_dir, "results.csv"),
            "config": os.path.join(out_dir, "config.json"),
            "dat": os.path.join(out_dir, "plot.dat"),
            "gp": os.path.join(out_dir, "plot.gp"),
        }
        with open(paths["csv"], "w") as fh:
            fh.write(self.csv_text())
        with open(paths["config"], "w") as fh:
            json.dump(self.sidecar_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(paths["dat"], "w") as fh:
            fh.write(self._dat_text())
        with open(paths["gp"], "w") as fh:
            fh.write(self._gp_text())
        return paths

    def _dat_text(self) -> str:
        lines = ["# " + " ".join(self.columns)]
        for rec in self.records:
            lines.append(" ".join(_csv_field(rec[c]) or "nan" for c in self.columns))
        return "\n".join(lines) + "\n"

    def _gp_text(self) -> str:
        col = {name: i + 1 for i, name in enumerate(self.columns)}
        header = (
            "# gnuplot script; run from the directory holding plot.dat\n"
            f"# experiment: {self.kind}, seed {self.seed}, "
            f"config {self.config_hash[:12]}\n"
            "set datafile missing 'nan'\n"
            "set key left\n"
        )
        if self.kind in ("phase_transition", "ensemble_compare"):
            body = (
                "set xlabel 'm'\nset ylabel 'success rate'\nset yrange [0:1.05]\n"
                f"plot 'plot.dat' using {col['m']}:{col['success_rate']} "
                "with linespoints title 'empirical'\n"
            )
        elif self.kind == "error_scaling":
            body = (
                "set logscale xy\nset xlabel 'm'\nset ylabel 'median squared error'\n"
                f"plot 'plot.dat' using {col['m']}:{col['l2_sq_median']} "
                "with linespoints title 'empirical', \\\n"
                f"     'plot.dat' using {col['m']}:(column({col['l2_bound']})**2) "
                "with lines title 'bound shape (squared)'\n"
            )
        elif self.kind == "certificate_rate":
            body = (
                "set xlabel 'm'\nset ylabel 'success rate'\nset yrange [0:1.05]\n"
                f"plot 'plot.dat' using {col['m']}:{col['success_rate']} "
                "with linespoints title 'golfing', \\\n"
                f"     'plot.dat' using {col['m']}:{col['rate_reference']} "
                "with lines title 'full-scale guarantee'\n"
            )
        else:
            body = (
                "set xlabel 'cell'\nset ylabel 'failure rate'\nset logscale y\n"
                f"plot 'plot.dat' using {col['cell']}:{col['empirical_rate']} "
                "with points title 'empirical', \\\n"
                f"     'plot.dat' using {col['cell']}:{col['theoretical_bound']} "
                "with lines title 'bound', \\\n"
                f"     'plot.dat' using {col['cell']}:{col['ci_upper']} "
                "with lines title '95% CI upper'\n"
            )
        return header + body


def replay_trial(config: ExperimentConfig, cell: int, trial: int) -> dict:
    """Re-execute one trial verbatim and return its private details.

    `cell` is the value of the CSV's cell column (for ensemble_compare
    that is the flattened cell-ensemble index). Raises for out-of-range
    indices. estimate_sweep replays reproduce the trial's event indicator
    by rebuilding the cell's spawned substreams.
    """
    if not (0 <= trial < config.trials):
        raise ValueError(f"trial must lie in [0, {config.trials})")
    cells = _cells(config)
    if not (0 <= cell < len(cells)):
        raise ValueError("cell out of range")
    index, grid_cell, spec = cells[cell]
    out = _KINDS[config.kind][0](config, spec, grid_cell, index, trial)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}
