"""End-to-end gates for the whole laboratory.

Eleven checks covering noiseless recovery rates, noisy error scaling,
program agreement, concentration-bound validation, certificate success,
oracle cross-checks, and byte-level determinism. Each test prints a
single verdict line (run pytest with -s to see them on success); the
asserted thresholds and runtime caps are part of the check.
"""

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ripless.certificates import (
    default_config,
    least_squares_dual,
    verify_inexact_duality,
)
from ripless.core import SupportSet, realify
from ripless.ensembles import EnsembleSpec, build_matrix
from ripless.estimates import (
    clopper_pearson,
    empirical_estimate,
    noise_correlation_bound,
    rip_constant_exact,
)
from ripless.harness import ExperimentConfig, GridCell, golfing_trial, run_experiment
from ripless.solvers import basis_pursuit

SEED = 20260817
_RUNS: dict = {}


def _verdict(tag, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} {tag}: {detail}"
    print(line)
    assert passed, line


def _noiseless_run(family):
    if family not in _RUNS:
        cfg = ExperimentConfig(kind="phase_transition",
                               ensemble=EnsembleSpec(family, 256),
                               grid=(GridCell(256, 5, 200),),
                               trials=100, seed=SEED)
        start = time.perf_counter()
        result = run_experiment(cfg, threads=1)
        _RUNS[family] = (cfg, result, time.perf_counter() - start)
    return _RUNS[family]


def test_01_noiseless_gaussian_recovery_rate():
    _, result, elapsed = _noiseless_run("gaussian")
    rate = result.records[0]["success_rate"]
    _verdict("noiseless gaussian recovery",
             rate >= 0.9 and elapsed <= 300.0,
             f"rate={rate:.2f} (need >= 0.90), {elapsed:.0f}s single-threaded (cap 300)")


def test_02_noiseless_fourier_recovery_rate():
    _, result, elapsed = _noiseless_run("subsampled_dft")
    rate = result.records[0]["success_rate"]
    _verdict("noiseless subsampled-DFT recovery",
             rate >= 0.8 and elapsed <= 300.0,
             f"rate={rate:.2f} (need >= 0.80), {elapsed:.0f}s (cap 300)")


def _scaling_config(program):
    n, s = 256, 4
    unit = math.ceil(s * math.log(n))
    grid = tuple(GridCell(n, s, k * unit, 0.5) for k in (4, 8, 16, 32))
    return ExperimentConfig(kind="error_scaling", ensemble=EnsembleSpec("gaussian", n),
                            grid=grid, trials=50, seed=SEED, program=program)


def test_03_noisy_error_scaling_slope():
    cfg = _scaling_config("lasso")
    start = time.perf_counter()
    result = run_experiment(cfg, threads=1)
    elapsed = time.perf_counter() - start
    ms = np.array([rec["m"] for rec in result.records], dtype=float)
    meds = np.array([rec["l2_sq_median"] for rec in result.records])
    slope = float(np.polyfit(np.log(ms), np.log(meds), 1)[0])
    _verdict("noisy error scaling",
             -1.4 <= slope <= -0.6 and elapsed <= 900.0,
             f"slope of log median sq-error vs log m = {slope:.3f} "
             f"(need within [-1.4, -0.6]), {elapsed:.0f}s (cap 900)")


def test_04_dantzig_tracks_lasso_per_seed():
    from ripless.harness import replay_trial

    cfg_l = _scaling_config("lasso")
    cfg_d = _scaling_config("dantzig")
    tasks = list(itertools.product(range(4), range(50)))

    def pair(task):
        cell, trial = task
        el = math.sqrt(replay_trial(cfg_l, cell, trial)["l2_sq"])
        ed = math.sqrt(replay_trial(cfg_d, cell, trial)["l2_sq"])
        return ed <= 4.0 * el

    with ThreadPoolExecutor(max_workers=4) as pool:
        within = sum(pool.map(pair, tasks))
    _verdict("per-seed Dantzig vs LASSO",
             within >= 0.9 * len(tasks),
             f"within 4x on {within}/{len(tasks)} trials (need >= {int(0.9 * len(tasks))})")


def _unit_vector_target(n, s, rng):
    idx = np.sort(rng.choice(n, s, replace=False))
    v = np.zeros(n)
    amps = rng.standard_normal(s)
    v[idx] = amps / np.linalg.norm(amps)
    return v


def test_05_tail_bounds_hold_across_grid():
    families = ("gaussian", "subsampled_dft", "binary")
    sizes = ((32, 2), (64, 3), (128, 4))
    levels = {"E1": 0.5, "E2": 0.5, "E3": 0.5, "E4": 1.0}
    start = time.perf_counter()
    checked = failed_cells = 0
    for wi, which in enumerate(("E1", "E2", "E3", "E4")):
        for ci, (family, (n, s)) in enumerate(itertools.product(families, sizes)):
            spec = EnsembleSpec(family, n)
            mu = 6.0 * math.log(n) if family == "gaussian" else 1.0
            m = math.ceil((56.0 / 3.0) * mu * s * math.log(n))
            rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(wi, ci)))
            if which in ("E1", "E4"):
                idx = np.sort(rng.choice(n, s, replace=False))
                target = SupportSet(tuple(int(k) for k in idx), n)
            else:
                target = _unit_vector_target(n, s, rng)
            report = empirical_estimate(which, spec, m, target, levels[which],
                                        trials=500, rng=rng, mu=mu)
            if report.theoretical_bound < 1.0:
                checked += 1
                failed_cells += not report.passed
    elapsed = time.perf_counter() - start
    _verdict("tail-bound validation grid",
             failed_cells == 0 and checked > 0 and elapsed <= 1200.0,
             f"{checked - failed_cells}/{checked} cells with bound < 1 inside "
             f"CP slack (need all), {elapsed:.0f}s (cap 1200)")


def test_06_local_isometry_threshold_frequency():
    n, s, trials = 64, 3, 1000
    outcomes = []
    for k, (family, mu) in enumerate((("gaussian", 6.0 * math.log(n)),
                                      ("subsampled_dft", 1.0))):
        m = math.ceil((56.0 / 3.0) * mu * s * math.log(n))
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(6, k)))
        idx = np.sort(rng.choice(n, s, replace=False))
        target = SupportSet(tuple(int(j) for j in idx), n)
        report = empirical_estimate("E1", EnsembleSpec(family, n), m, target,
                                    0.5, trials=trials, rng=rng, mu=mu)
        ci_lo, _ = clopper_pearson(report.failures, trials)
        outcomes.append((family, m, report.empirical_rate, ci_lo))
    ok = all(lo <= 2.0 / n for _, _, _, lo in outcomes)
    detail = "; ".join(f"{fam} m={m}: freq={rate:.4f} ci_lo={lo:.4f}"
                       for fam, m, rate, lo in outcomes)
    _verdict("half-deviation frequency vs 2/n",
             ok, f"{detail} (need ci_lo <= {2.0 / n:.4f})")


def test_07_golfing_certificate_rate_and_soundness():
    n, s, trials = 256, 4, 200
    spec = EnsembleSpec("subsampled_dft", n)
    schedule = default_config(n, s, mu=1.0)
    assert schedule.total_rows <= 40 * s * math.log(n)

    # the cell's schedule, config_from_total(n, s, m), is this default one
    cell = GridCell(n, s, int(40 * s * math.log(n)))

    def one(t):
        support, signs, cert = golfing_trial(spec, cell, SEED, 0, t)
        if not cert.success:
            return False, True
        sound = verify_inexact_duality(cert, cert.matrix, support, signs).passed
        A_r, y_r = realify(cert.matrix, cert.matrix.rows @ signs)
        x_hat = basis_pursuit(A_r.rows, y_r).x_hat
        sound &= float(np.linalg.norm(x_hat - signs)) <= 1e-6 * np.linalg.norm(signs)
        return True, sound

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(one, range(trials)))
    successes = sum(ok for ok, _ in outcomes)
    unsound = sum(ok and not sound for ok, sound in outcomes)
    _verdict("golfing certificate rate and soundness",
             successes >= 0.9 * trials and unsound == 0,
             f"{successes}/{trials} successes at {schedule.total_rows} rows "
             f"(need >= {int(0.9 * trials)}), {unsound} soundness failures (need 0)")


def _l0_search(A, y, kmax, tol):
    n = A.shape[1]
    for k in range(kmax + 1):
        hits = []
        for combo in itertools.combinations(range(n), k):
            idx = np.array(combo, dtype=int)
            if k == 0:
                resid = float(np.linalg.norm(y))
                coef = np.zeros(0)
            else:
                coef, _, _, _ = np.linalg.lstsq(A[:, idx], y, rcond=None)
                resid = float(np.linalg.norm(A[:, idx] @ coef - y))
            if resid <= tol:
                x0 = np.zeros(n)
                x0[idx] = coef
                hits.append(x0)
        if hits:
            return hits
    return []


def test_08_sparsest_solution_oracle_agreement():
    base = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(8,)))
    gated = violations = 0
    for _ in range(50):
        A = base.standard_normal((6, 8)) / math.sqrt(6)
        idx = np.sort(base.choice(8, 2, replace=False))
        x = np.zeros(8)
        x[idx] = base.standard_normal(2)
        y = A @ x
        hits = _l0_search(A, y, kmax=2, tol=1e-9 * (1.0 + float(np.linalg.norm(y))))
        if len(hits) != 1:
            continue
        x0 = hits[0]
        support = SupportSet.from_signal(x0)
        try:
            v, _ = least_squares_dual(A, support, x0)
        except ValueError:
            continue
        if not verify_inexact_duality(v, A, support, x0).passed:
            continue
        gated += 1
        x_hat = basis_pursuit(A, y).x_hat
        violations += float(np.linalg.norm(x_hat - x0)) > 1e-6
    # the off-support dual condition rarely holds at six rows, so the
    # conditional is exercised by few instances; zero violations is the claim
    _verdict("sparsest-solution oracle agreement",
             violations == 0 and gated >= 1,
             f"{gated}/50 instances gated (unique plus certified), "
             f"{violations} disagreements (need 0)")


def test_09_exact_rip_oracle_endpoints():
    signed_perm = np.zeros((16, 16))
    order = np.random.default_rng(SEED).permutation(16)
    for j, p in enumerate(order):
        signed_perm[p, j] = -1.0 if j % 2 else 1.0
    ident_ok = rip_constant_exact(np.eye(16), 2) == 0.0
    perm_ok = rip_constant_exact(signed_perm, 2) == 0.0
    dup = np.eye(8)
    dup[:, 4] = dup[:, 3]
    delta2 = rip_constant_exact(dup, 2)
    _verdict("exact restricted-isometry oracle",
             ident_ok and perm_ok and delta2 >= 1.0 - 1e-9,
             f"orthonormal delta exactly zero: {ident_ok and perm_ok}; "
             f"duplicated-column delta_2={delta2:.12f} (need >= 1 - 1e-9)")


def test_10_noise_correlation_exceedance():
    outcomes = []
    for n in (16, 64):
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(10, n)))
        report = noise_correlation_bound(np.eye(n), 1.0).exceedance(10_000, rng=rng)
        outcomes.append((n, report))
    ok = all(rep.passed for _, rep in outcomes)
    detail = "; ".join(f"n={n}: freq={rep.empirical_rate:.5f} bound={rep.theoretical_bound:.5f}"
                       for n, rep in outcomes)
    _verdict("noise-correlation exceedance", ok, f"{detail} (need freq within CP slack)")


def test_11_byte_identical_csv_across_threads():
    cfg, baseline, _ = _noiseless_run("gaussian")
    reruns = {k: run_experiment(cfg, threads=k).csv_text().encode()
              for k in (1, 4)}
    base_bytes = baseline.csv_text().encode()
    ok = all(v == base_bytes for v in reruns.values())
    _verdict("byte-identical CSV across thread counts", ok,
             f"repeat and threads {sorted(reruns)} all match the single-threaded "
             f"run byte for byte: {ok}")
