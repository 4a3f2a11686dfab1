"""Command-line front end: solve, certify, estimate, run, replay.

The commands are thin wrappers over the library; anything they print can
be reproduced by the documented calls. `certify` runs the harness's
`golfing_trial`, so its row t equals trial t of cell 0 of a
certificate_rate run at the same seed, and the e1..e4 rows of `estimate`
run `estimate_cell`, so row i equals cell i of an estimate_sweep run at
the same seed. The weakrip and noise rows draw from the same per-cell
generator, SeedSequence(seed, spawn_key=(i,)).

File schemas (all JSON):

problem.json (for `solve`)
    {"a": [[...], ...] | {"csv": "matrix.csv"},
     "y": [...]        | {"csv": "rhs.csv"},
     "sigma_m": 0.05}
    Arrays are real (realify complex systems first); csv paths resolve
    relative to the problem file. sigma_m is the per-measurement noise
    scale, default 0; the penalized programs use lambda * sigma_m.

grid.json (for `estimate`)
    a list of cells, or {"cells": [...]}. Every cell names its ensemble
    ({"family": ..., "n": ..., ...} inline, or a family string plus "n").
    Per kind the cell carries:
      e1..e4   s, m, level
      weakrip  s, r, m, delta, optional mode ("exhaustive"|"sampled"),
               optional budget (sampled mode draws, default 1000)
      noise    m, optional sigma (default 1)
    Counts must be integers and levels numbers, as in a config document;
    any other key is an error.

cfg.json (for `run`) is the experiment config document; see
ExperimentConfig.to_doc / from_doc. `replay` reads the config.json
sidecar written next to the results CSV.

Exit status: 0 when every requested cell completed, 1 on any error,
2 for bad usage. Pass/fail of a statistical check is data in the
output, never the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .certificates import verify_inexact_duality
from .core import SupportSet, matrix_from_csv, vector_from_csv
from .ensembles import EnsembleSpec, build_matrix
from .estimates import clopper_pearson, noise_correlation_bound, weak_rip_empirical
from .harness import (
    ExperimentConfig,
    GridCell,
    config_hash,
    doc_float,
    doc_int,
    estimate_cell,
    format_csv,
    golfing_trial,
    replay_trial,
    run_experiment,
)
from .solvers import basis_pursuit, dantzig, default_lambda, lasso

# the keys a grid cell of each kind may carry besides "ensemble" and "n"
_CELL_KEYS = {**dict.fromkeys(("e1", "e2", "e3", "e4"), {"s", "m", "level"}),
              "weakrip": {"s", "r", "m", "delta", "mode", "budget"}, "noise": {"m", "sigma"}}


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _load_doc(text: str):
    """Inline JSON or a path to a JSON file."""
    candidate = text.strip()
    if candidate.startswith(("{", "[")):
        return json.loads(candidate)
    with open(text) as fh:
        return json.load(fh)


def _ensemble_from_arg(raw, n=None) -> EnsembleSpec:
    """EnsembleSpec from inline JSON, a file path, or a bare family name."""
    if isinstance(raw, dict):
        doc = dict(raw)
    else:
        candidate = raw.strip()
        if candidate.startswith("{"):
            doc = json.loads(candidate)
        elif os.path.exists(raw):
            with open(raw) as fh:
                doc = json.load(fh)
        else:
            if n is None:
                raise ValueError(
                    f"ensemble {raw!r} is a bare family name; pass --n (or an inline spec)")
            doc = {"family": candidate, "n": int(n)}
    if n is not None and "n" in doc and int(doc["n"]) != int(n):
        raise ValueError(f"--n {n} disagrees with the ensemble's n={doc['n']}")
    if n is not None:
        doc.setdefault("n", int(n))
    return EnsembleSpec.from_json(json.dumps(doc))


def _problem_arrays(doc: dict, base_dir: str):
    def load(entry, loader, what):
        if isinstance(entry, dict):
            if set(entry) != {"csv"}:
                raise ValueError(f"{what} must be an array or {{\"csv\": path}}")
            return loader(os.path.join(base_dir, entry["csv"]))
        return np.asarray(entry, dtype=float)

    if "a" not in doc or "y" not in doc:
        raise ValueError("problem file needs 'a' and 'y'")
    A = load(doc["a"], matrix_from_csv, "'a'")
    y = load(doc["y"], vector_from_csv, "'y'")
    if A.ndim != 2 or y.ndim != 1 or y.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: a is {A.shape}, y is {y.shape}")
    sigma_m = float(doc.get("sigma_m", 0.0))
    if sigma_m < 0:
        raise ValueError("sigma_m must be nonnegative")
    return A, y, sigma_m


def cmd_solve(args) -> int:
    path = args.problem
    doc = _load_doc(path)
    base = os.path.dirname(os.path.abspath(path)) if os.path.exists(path) else "."
    A, y, sigma_m = _problem_arrays(doc, base)
    n = A.shape[1]
    tol_kw = {} if args.tol is None else {"tol_abs": args.tol, "tol_rel": args.tol}

    if args.program == "bp":
        result = basis_pursuit(A, y, **tol_kw)
        lam = None
    else:
        lam = args.lam if args.lam is not None else default_lambda(n)
        solver = lasso if args.program == "lasso" else dantzig
        result = solver(A, y, lam * sigma_m, **tol_kw)

    out = {
        "program": args.program,
        "m": int(A.shape[0]),
        "n": int(n),
        "lambda": lam,
        "sigma_m": sigma_m,
        "x_hat": _jsonable(result.x_hat),
        "iterations": result.iterations,
        "kkt_residual": result.kkt_residual,
        "tube_value": result.tube_value,
        "objective": result.objective,
        "converged": result.converged,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_certify(args) -> int:
    spec = _ensemble_from_arg(args.ensemble, args.n)
    cell = GridCell(spec.n, args.s, args.m)
    rows = []
    for t in range(args.trials):
        support, signs, cert = golfing_trial(spec, cell, args.seed, 0, t)
        report = verify_inexact_duality(cert, cert.matrix, support, signs)
        rows.append({
            "success": cert.success,
            "q_norms": _jsonable(cert.q_norms),
            "margins": _jsonable(report.margins()),
            "batches_used": cert.batches_used,
        })
    print(json.dumps(rows, indent=2))
    return 0


def _estimate_cell_spec(cell: dict, i: int, which: str) -> EnsembleSpec:
    if not isinstance(cell, dict):
        raise ValueError(f"grid cell {i} must be an object, got {cell!r}")
    if "ensemble" not in cell:
        raise ValueError(f"grid cell {i} has no 'ensemble'")
    extra = set(cell) - _CELL_KEYS[which] - {"ensemble", "n"}
    if extra:
        raise ValueError(f"grid cell {i} has unknown keys for {which}: {sorted(extra)}")
    return _ensemble_from_arg(cell["ensemble"], cell.get("n"))


def _report_columns(report) -> dict:
    return {"empirical_rate": report.empirical_rate, "bound": report.theoretical_bound,
            "ci_upper": report.ci_upper, "pass": report.passed}


def cmd_estimate(args) -> int:
    doc = _load_doc(args.grid)
    cells = doc["cells"] if isinstance(doc, dict) else doc
    if not isinstance(cells, list) or not cells:
        raise ValueError("grid must be a nonempty list of cells")
    which = args.which.lower()
    rows = []
    for i, cell in enumerate(cells):
        spec = _estimate_cell_spec(cell, i, which)
        where = f"grid cell {i}"
        head = {"which": which, "family": spec.family, "n": spec.n}
        if which in ("e1", "e2", "e3", "e4"):
            grid_cell = GridCell(spec.n, doc_int(cell, "s", where), doc_int(cell, "m", where))
            level = doc_float(cell, "level", where=where)
            report = estimate_cell(which.upper(), spec, grid_cell, level, args.trials,
                                   args.seed, i)
            rows.append({**head, "s": grid_cell.s, "m": grid_cell.m, "level": level,
                         "trials": args.trials, **_report_columns(report)})
            continue
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(i,)))
        if which == "weakrip":
            s, r, m = (doc_int(cell, key, where) for key in ("s", "r", "m"))
            delta = doc_float(cell, "delta", where=where)
            mode = cell.get("mode", "exhaustive")
            budget = doc_int(cell, "budget", where, default=1000)
            violations = 0
            for _ in range(args.trials):
                idx = np.sort(rng.choice(spec.n, s, replace=False))
                support = SupportSet(tuple(int(k) for k in idx), spec.n)
                A = build_matrix(spec, m, rng=rng)
                res = weak_rip_empirical(A, support, r, delta, mode=mode, budget=budget,
                                         rng=rng)
                violations += not res.satisfied
            _, upper = clopper_pearson(violations, args.trials)
            # the guarantee's constant is unnamed, so there is no numeric
            # bound column; pass records a clean sheet (any violation
            # disproves the isometry at this delta on the checked family)
            rows.append({**head, "s": s, "r": r, "m": m, "delta": delta, "mode": mode,
                         "trials": args.trials, "empirical_rate": violations / args.trials,
                         "bound": None, "ci_upper": upper, "pass": violations == 0})
        else:
            m = doc_int(cell, "m", where)
            sigma = doc_float(cell, "sigma", 1.0, where)
            A = build_matrix(spec, m, rng=rng)
            report = noise_correlation_bound(A, sigma).exceedance(args.trials, rng=rng)
            rows.append({**head, "m": m, "sigma": sigma, "trials": args.trials,
                         **_report_columns(report)})
    # every row of one kind has the same keys, in column order
    print(format_csv(tuple(rows[0]), rows), end="")
    return 0


def cmd_run(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    config = ExperimentConfig.from_doc(doc)
    out_dir = args.out or config.out or f"ripless-{config.kind}-{config_hash(config)[:8]}"
    result = run_experiment(config, threads=args.threads)
    paths = result.write(out_dir)
    print(f"wrote {paths['csv']}", file=sys.stderr)
    print(f"wrote {paths['config']}", file=sys.stderr)
    print(result.csv_text(), end="")
    return 0


def cmd_replay(args) -> int:
    sidecar = os.path.join(os.path.dirname(os.path.abspath(args.result)), "config.json")
    if not os.path.exists(sidecar):
        raise ValueError(f"no config.json sidecar next to {args.result}")
    with open(sidecar) as fh:
        side = json.load(fh)
    config = ExperimentConfig.from_doc(side["config"])
    recorded = side.get("config_hash")
    if recorded is not None and recorded != config_hash(config):
        raise ValueError("config.json hash does not match its own config document")
    out = replay_trial(config, args.cell, args.trial)
    print(json.dumps(_jsonable(out), indent=2))
    return 0


def _trial_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripless",
        description="Sensing-ensemble laboratory: l1 recovery, dual certificates, "
                    "concentration checks, and seeded experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one recovery program on a problem file")
    p.add_argument("--program", required=True, choices=("bp", "lasso", "dantzig"))
    p.add_argument("--problem", required=True,
                   help="problem JSON (inline or path); see module docs for the schema")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="penalty multiplier, default 10*sqrt(log n); scaled by sigma_m")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute and relative stopping tolerance for the solver")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="golfing dual-certificate trials")
    p.add_argument("--ensemble", required=True,
                   help="spec JSON inline, a file path, or a family name (with --n)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=_trial_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("estimate", help="Monte Carlo validation of a bound over a grid")
    p.add_argument("--which", required=True, type=str.lower, choices=tuple(_CELL_KEYS))
    p.add_argument("--grid", required=True,
                   help="grid JSON (inline or path); see module docs for the schema")
    p.add_argument("--trials", type=_trial_count, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("run", help="run an experiment config and persist results")
    p.add_argument("--config", required=True, help="path to the config JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="re-execute one recorded trial verbatim")
    p.add_argument("--result", required=True, help="path to a results CSV")
    p.add_argument("--cell", type=int, required=True)
    p.add_argument("--trial", type=int, required=True)
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
