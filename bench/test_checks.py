"""Fast tests of the benchmark's own output checks.

    python3 -m pytest -q bench/test_checks.py

Each check must pass on the library's real output and fail once that
output is corrupted: a perturbed x_hat, an event count off by one, a
certificate whose v is shifted by 0.3 off the support.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import ripless  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _system(m=24, n=48, s=3, seed=5, noise=0.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    x = np.zeros(n)
    x[rng.choice(n, s, replace=False)] = rng.choice([-1.0, 1.0], s)
    return A, A @ x + noise * rng.standard_normal(m), x


def _bump(x, size=1e-3):
    out = np.array(x, dtype=float)
    out[1] += size
    return out


def test_bp_check_rejects_perturbed_solution():
    A, y, x = _system()
    x_hat = ripless.basis_pursuit(A, y).x_hat
    opt = checks.highs_bp(A, y)
    assert checks.bp_solution(A, y, x, x_hat, opt) == []
    assert checks.bp_solution(A, y, x, _bump(x_hat), opt)


def test_dantzig_check_rejects_perturbed_solution():
    A, y, _ = _system(m=40, noise=0.05)
    lam = 0.1
    x_hat = ripless.dantzig(A, y, lam).x_hat
    opt = checks.highs_dantzig(A, y, lam)
    assert checks.dantzig_solution(A, y, lam, x_hat, opt) == []
    assert checks.dantzig_solution(A, y, lam, _bump(x_hat), opt)


def test_lasso_check_rejects_perturbed_solution():
    A, y, _ = _system(m=40, noise=0.05)
    x_hat = ripless.lasso(A, y, 0.1).x_hat
    assert checks.lasso_kkt(A, y, 0.1, x_hat) == []
    assert checks.lasso_kkt(A, y, 0.1, _bump(x_hat))


def test_trivial_case_is_zero_and_checked():
    A, y, x = _system(m=40, noise=0.05)
    lam = 2.0 * float(np.max(np.abs(A.T @ y)))
    assert checks.highs_dantzig(A, y, lam) == pytest.approx(0.0, abs=1e-12)
    assert checks.is_zero("lasso", ripless.lasso(A, y, lam).x_hat, x) == []
    assert checks.is_zero("lasso", _bump(np.zeros_like(x)), x)


class _SmallTails(workloads.TailEstimates):
    N, S, EVENTS = 16, 2, 12
    LEVELS = {"E1": 0.2, "E2": 0.2, "E3": 0.2, "E4": 0.4}
    RIP_N, RIP_M, RIP_S = 8, 12, 2
    NOISE_M, NOISE_DRAWS = 10, 300


def test_tail_check_rejects_event_count_off_by_one(tmp_path):
    wl = _SmallTails(3, str(tmp_path))
    first = wl.run_round()
    assert wl.check(first, []) == []
    results = first.outputs[0]
    counts = [round(res.records[0]["empirical_rate"] * res.records[0]["trials"])
              for res in results]
    assert any(0 < c < wl.EVENTS for c in counts), "levels should make events occur"
    rec = results[0].records[0]
    failures = round(rec["empirical_rate"] * rec["trials"])
    off_by_one = failures + 1 if failures < rec["trials"] else failures - 1
    rec["empirical_rate"] = off_by_one / rec["trials"]
    assert any("recomputed" in e for e in wl.check(first, []))


def test_rip_and_noise_recomputations_match_the_library():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((10, 9)) / math.sqrt(10)
    assert checks.rip_batched(A, 3) == pytest.approx(ripless.rip_constant_exact(A, 3), abs=1e-12)
    bound = ripless.noise_correlation_bound(A, 0.3)
    report = bound.exceedance(500, rng=np.random.default_rng(4))
    assert checks.noise_failures(bound.matrix, bound.sigma, bound.threshold, 500,
                                 np.random.default_rng(4)) == report.failures


class _SmallGolf(workloads.GolfingSoundness):
    N, TRIALS = 64, 3


def test_golfing_check_rejects_shifted_certificate(tmp_path):
    wl = _SmallGolf(2, str(tmp_path))
    first = wl.run_round()
    assert all(o["success"] for o in first.outputs)
    assert wl.check(first, []) == []
    o = first.outputs[0]
    off = np.setdiff1d(np.arange(wl.N), o["idx"])
    v = np.array(o["v"])
    v[off[0]] += 0.3
    o["v"] = v
    assert any("A* w - v" in e for e in wl.check(first, []))
