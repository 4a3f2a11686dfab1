"""Recovery programs against closed forms, LP oracles, and Monte Carlo."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

from ripless.ensembles import EnsembleSpec, build_matrix
from ripless.solvers import (
    MAX_ITER,
    REL_TOL,
    ErrorBoundInputs,
    alpha_factor,
    basis_pursuit,
    dantzig,
    default_lambda,
    l1_error_bound,
    l2_error_bound,
    lasso,
)


def planted(n, s, m, seed, sigma=0.0):
    rng = np.random.default_rng(seed)
    A = build_matrix(EnsembleSpec("gaussian", n), m, rng=seed).rows
    x = np.zeros(n)
    idx = rng.choice(n, s, replace=False)
    x[idx] = rng.choice([-1.0, 1.0], s)
    y = A @ x
    if sigma > 0:
        y = y + (sigma / math.sqrt(m)) * rng.standard_normal(m)
    return A, x, y


def soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def l1_lp_oracle(A, y):
    # min 1.(p+q) s.t. A(p-q) = y, p,q >= 0: an entirely separate route to
    # the basis pursuit optimum
    m, n = A.shape
    res = linprog(np.ones(2 * n), A_eq=np.hstack([A, -A]), b_eq=y,
                  bounds=[(0, None)] * (2 * n), method="highs")
    assert res.status == 0
    return res.x[:n] - res.x[n:], res.fun


def dantzig_lp_oracle(A, y, gamma):
    m, n = A.shape
    M, c = A.T @ A, A.T @ y
    Aub = np.vstack([np.hstack([M, -M]), np.hstack([-M, M])])
    bub = np.concatenate([c + gamma, gamma - c])
    res = linprog(np.ones(2 * n), A_ub=Aub, b_ub=bub,
                  bounds=[(0, None)] * (2 * n), method="highs")
    assert res.status == 0
    return res.x[:n] - res.x[n:], res.fun


# --- basis pursuit ---------------------------------------------------------

def test_bp_zero_measurements():
    A, _, _ = planted(16, 2, 8, 0)
    res = basis_pursuit(A, np.zeros(8))
    assert np.array_equal(res.x_hat, np.zeros(16))
    assert res.converged and res.objective == 0.0


def test_bp_square_invertible_returns_unique_point():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((8, 8))
    x = rng.standard_normal(8)
    res = basis_pursuit(A, A @ x)
    assert res.converged
    assert np.linalg.norm(res.x_hat - x) <= 1e-8 * np.linalg.norm(x)


def test_bp_full_column_rank_returns_least_squares_point():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 16))
    x = rng.standard_normal(16)
    y = A @ x
    res = basis_pursuit(A, y)
    x_ls = np.linalg.lstsq(A, y, rcond=None)[0]
    assert res.iterations == 0 and res.converged
    assert np.allclose(res.x_hat, x_ls, rtol=0.0, atol=1e-12)
    # an independent dual point for sign(x_hat) closes the gap
    nu = np.linalg.lstsq(A.T, np.sign(res.x_hat), rcond=None)[0]
    assert np.max(np.abs(A.T @ nu)) <= 1.0 + 1e-12
    assert abs(res.objective - y @ nu) <= 1e-12 * res.objective
    assert res.kkt_residual <= 1e-12


def test_bp_matches_lp_oracle():
    # wide A, and a tall A whose duplicated column leaves it rank deficient
    instances = [planted(12, 2, 8, 100 + seed)[::2] for seed in range(10)]
    rng = np.random.default_rng(110)
    A_tall = rng.standard_normal((12, 7))
    A_tall = np.hstack([A_tall, A_tall[:, [2]]])
    instances.append((A_tall, A_tall[:, 2] - A_tall[:, 5]))
    for A, y in instances:
        res = basis_pursuit(A, y)
        assert res.iterations > 0  # neither system has full column rank
        x_lp, obj_lp = l1_lp_oracle(A, y)
        assert res.converged
        assert abs(res.objective - obj_lp) <= 1e-7 * max(1.0, obj_lp)
        # the LP optimum is a floor up to the certified relative gap
        assert res.objective >= obj_lp - 1e-7 * max(1.0, obj_lp)


def test_bp_monte_carlo_recovery_rate():
    hits = 0
    for seed in range(100):
        A, x, y = planted(64, 3, 40, 1000 + seed)
        res = basis_pursuit(A, y)
        hits += res.converged and np.linalg.norm(res.x_hat - x) <= 1e-6
    assert hits >= 90


def test_bp_feasibility_and_never_beaten_by_feasible_points():
    A, x, y = planted(32, 3, 20, 7)
    res = basis_pursuit(A, y)
    assert np.linalg.norm(A @ res.x_hat - y) <= 1e-9 * (1.0 + np.linalg.norm(y))
    for x0 in (x, np.linalg.lstsq(A, y, rcond=None)[0]):
        assert np.sum(np.abs(res.x_hat)) <= np.sum(np.abs(x0)) + 1e-6


def test_bp_l0_oracle_agreement_small_scale():
    import itertools
    n, s, m = 8, 2, 6
    agreements, eligible = 0, 0
    for seed in range(40):
        A, x, y = planted(n, s, m, 4000 + seed)
        # exhaustive l0 search: the sparsest support fitting y exactly
        best = []
        for k in range(1, s + 1):
            for T in itertools.combinations(range(n), k):
                sub = A[:, list(T)]
                coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
                if np.linalg.norm(sub @ coef - y) <= 1e-8:
                    cand = np.zeros(n)
                    cand[list(T)] = coef
                    best.append(cand)
            if best:
                break
        if len(best) != 1:
            continue  # l0 solution not unique at this seed
        eligible += 1
        res = basis_pursuit(A, y)
        if res.converged and np.linalg.norm(res.x_hat - best[0]) <= 1e-6:
            agreements += 1
    assert eligible >= 20
    assert agreements >= 0.6 * eligible  # BP needs more rows than l0; most succeed here


def test_bp_rejects_out_of_range_y():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, 8))
    A = np.vstack([rows, rows.sum(axis=0)])  # rank 3, 4 rows
    y_bad = np.array([0.0, 0.0, 0.0, 1.0])  # breaks the row dependency
    with pytest.raises(ValueError, match="range"):
        basis_pursuit(A, y_bad)


def test_bp_input_validation():
    with pytest.raises(ValueError):
        basis_pursuit(np.ones((2, 2)) * 1j, np.ones(2))
    with pytest.raises(ValueError, match="realify"):
        basis_pursuit(np.eye(2), np.ones(2) * 1j)
    with pytest.raises(ValueError):
        basis_pursuit(np.ones((2, 3)), np.ones(5))


def test_solvers_reject_non_finite_input():
    A, x, y = planted(16, 2, 12, 3, sigma=0.2)
    y_nan = y.copy()
    y_nan[4] = np.nan
    A_inf = A.copy()
    A_inf[2, 7] = np.inf
    solves = (lambda A, y: basis_pursuit(A, y), lambda A, y: lasso(A, y, 0.1),
              lambda A, y: dantzig(A, y, 0.1))
    for solve in solves:
        with pytest.raises(ValueError, match="NaN or infinite"):
            solve(A, y_nan)
        with pytest.raises(ValueError, match="NaN or infinite"):
            solve(A_inf, y)
    for noisy in (lasso, dantzig):
        with pytest.raises(ValueError, match="nonnegative"):
            noisy(A, y, math.nan)


# --- LASSO -------------------------------------------------------------------

def test_lasso_zero_when_penalty_dominates():
    A, x, y = planted(16, 2, 12, 5, sigma=0.2)
    gamma = 1.01 * np.max(np.abs(A.T @ y))
    res = lasso(A, y, gamma)
    assert np.array_equal(res.x_hat, np.zeros(16))
    assert res.converged and res.iterations == 0 and res.kkt_residual == 0.0
    assert res.tube_value == np.max(np.abs(A.T @ y))
    assert res.objective == 0.5 * float(y @ y)


def test_lasso_orthonormal_soft_threshold_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 10))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        y = rng.standard_normal(n)
        gamma = float(rng.uniform(0.05, 0.8))
        res = lasso(Q, y, gamma)
        assert res.converged
        assert np.max(np.abs(res.x_hat - soft(Q.T @ y, gamma))) <= 1e-8


def test_lasso_single_column_coordinate_oracle():
    # closed form for one unknown: x = soft(a.y, gamma) / ||a||^2
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal((6, 1))
        y = rng.standard_normal(6)
        gamma = float(rng.uniform(0.0, 2.0))
        res = lasso(a, y, gamma)
        expected = soft(np.array([a[:, 0] @ y]), gamma) / (a[:, 0] @ a[:, 0])
        assert np.max(np.abs(res.x_hat - expected)) <= 1e-8


def test_lasso_kkt_conditions_on_noisy_instance():
    A, x, y = planted(64, 4, 48, 21, sigma=0.1)
    gamma = default_lambda(64) * 0.1 / math.sqrt(48)
    res = lasso(A, y, gamma)
    assert res.converged
    g = A.T @ (y - A @ res.x_hat)
    on = res.x_hat != 0
    assert np.all(np.abs(g[~on]) <= gamma + 1e-8)
    assert np.all(np.abs(g[on] - gamma * np.sign(res.x_hat[on])) <= 1e-6)
    assert np.isclose(res.tube_value, np.max(np.abs(g)), rtol=1e-12)


def test_lasso_objective_monotone_at_restart_checkpoints():
    A, x, y = planted(48, 4, 32, 31, sigma=0.3)
    gamma = default_lambda(48) * 0.3 / math.sqrt(32)
    res = lasso(A, y, gamma, track_objective=True)
    hist = res.objective_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_lasso_and_tube_monte_carlo_error_scaling():
    # n=128, s=4, m=80, sigma=0.1 at the default level: l2 error stays
    # within a modest multiple of sigma sqrt(s log n / m), and the tube
    # diagnostic holds on nearly every draw
    n, s, m, sigma = 128, 4, 80, 0.1
    gamma = default_lambda(n) * sigma / math.sqrt(m)
    ref = sigma * math.sqrt(s * math.log(n) / m)
    worst, tube_hits = 0.0, 0
    for seed in range(100):
        A, x, y = planted(n, s, m, 7000 + seed, sigma=sigma)
        res = lasso(A, y, gamma)
        assert res.converged
        worst = max(worst, np.linalg.norm(res.x_hat - x) / ref)
        h = res.x_hat - x
        tube_hits += np.max(np.abs(A.T @ (A @ h))) <= 1.25 * gamma
    assert worst <= 20.0
    assert tube_hits >= 95


def test_lasso_validation():
    with pytest.raises(ValueError):
        lasso(np.ones((2, 2)), np.ones(2), -0.5)


def reference_lasso(A, y, gamma):
    """lasso as it was with L from an SVD of A and every product A^T (A v)."""
    n = A.shape[1]
    Aty = A.T @ y
    if np.max(np.abs(Aty)) <= gamma:
        return np.zeros(n), 0, True
    step = 1.0 / np.linalg.svd(A, compute_uv=False)[0] ** 2

    def kkt_violation(v):
        g = Aty - A.T @ (A @ v)
        on = v != 0.0
        off_excess = float(max(0.0, np.max(np.abs(g[~on])) - gamma)) if np.any(~on) else 0.0
        on_mismatch = float(np.max(np.abs(g[on] - gamma * np.sign(v[on])))) if np.any(on) else 0.0
        return max(off_excess, on_mismatch)

    tol_kkt = 1e-9 + 1e-7 * max(gamma, float(np.max(np.abs(Aty))), 1.0)
    x = np.zeros(n)
    w = x.copy()
    t = 1.0
    converged = False
    for it in range(1, MAX_ITER + 1):
        x_next = soft(w - step * (A.T @ (A @ w) - Aty), step * gamma)
        if float((w - x_next) @ (x_next - x)) > 0.0:
            t = 1.0
            w = x.copy()
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        if it % 10 == 0 and kkt_violation(x) <= tol_kkt:
            converged = True
            break
    return x, it, converged or kkt_violation(x) <= tol_kkt


def test_lasso_matches_the_svd_step_reference_on_tall_and_wide_systems():
    # the Gram eigenvalue and the n x n gradient change only rounding
    n, s, sigma = 128, 4, 0.2
    for m in (64, 96, 192, 384):
        gamma = default_lambda(n) * sigma / math.sqrt(m)
        for seed in range(3):
            A, x, y = planted(n, s, m, 12000 + 10 * m + seed, sigma=sigma)
            res = lasso(A, y, gamma)
            x_ref, it_ref, conv_ref = reference_lasso(A, y, gamma)
            assert it_ref > 0 and res.converged == conv_ref
            assert np.max(np.abs(res.x_hat - x_ref)) <= 1e-10 * max(1.0, np.max(np.abs(x_ref)))


def test_lasso_step_is_one_over_the_top_singular_value_squared(monkeypatch):
    # one iteration from x = 0 returns soft(step A^T y, step gamma), so the
    # step reads back from the coordinate where |A^T y| peaks; the last
    # matrix has equal top singular values
    import ripless.solvers as solvers_module

    rng = np.random.default_rng(85)
    Q = np.linalg.qr(rng.standard_normal((70, 70)))[0]
    R = np.linalg.qr(rng.standard_normal((70, 70)))[0]
    vals = np.ones(70)
    vals[2:] = rng.random(68) * 0.5
    monkeypatch.setattr(solvers_module, "MAX_ITER", 1)
    for A in (rng.standard_normal((40, 16)), rng.standard_normal((16, 40)), (Q * vals) @ R):
        y = rng.standard_normal(A.shape[0])
        Aty = A.T @ y
        j = int(np.argmax(np.abs(Aty)))
        gamma = 0.5 * abs(Aty[j])
        res = lasso(A, y, gamma)
        step = abs(res.x_hat[j]) / (abs(Aty[j]) - gamma)
        sigma_max = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(step * sigma_max**2 - 1.0) <= 1e-12


# --- Dantzig selector -----------------------------------------------------------

def test_dantzig_zero_when_level_dominates():
    A, x, y = planted(16, 2, 12, 41, sigma=0.2)
    gamma = 1.01 * np.max(np.abs(A.T @ y))
    res = dantzig(A, y, gamma)
    assert res.converged and res.iterations == 0 and res.kkt_residual == 0.0
    assert np.array_equal(res.x_hat, np.zeros(16))
    assert res.tube_value == np.max(np.abs(A.T @ y))
    assert res.objective == 0.0


def test_noisy_programs_iterate_just_below_the_zero_level():
    # just under ||A^T y||_inf the exact zero exit must not fire
    A, x, y = planted(16, 2, 12, 41, sigma=0.2)
    gamma = 0.99 * np.max(np.abs(A.T @ y))
    res = lasso(A, y, gamma)
    assert res.converged and res.iterations > 0 and np.any(res.x_hat != 0.0)
    g = A.T @ (y - A @ res.x_hat)
    on = res.x_hat != 0
    assert np.all(np.abs(g[~on]) <= gamma + 1e-8)
    assert np.all(np.abs(g[on] - gamma * np.sign(res.x_hat[on])) <= 1e-6)
    res = dantzig(A, y, gamma)
    _, obj_lp = dantzig_lp_oracle(A, y, gamma)
    assert res.converged and res.iterations > 0 and obj_lp > 0.0
    assert abs(res.objective - obj_lp) <= 1e-6 * max(1.0, obj_lp)
    assert np.max(np.abs(A.T @ (A @ res.x_hat - y))) <= gamma + 1e-9


def test_dantzig_orthonormal_matches_soft_threshold_and_lp():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        y = rng.standard_normal(n)
        gamma = float(rng.uniform(0.1, 0.6))
        res = dantzig(Q, y, gamma)
        assert res.converged
        expected = soft(Q.T @ y, gamma)
        assert np.max(np.abs(res.x_hat - expected)) <= 1e-6
        x_lp, obj_lp = dantzig_lp_oracle(Q, y, gamma)
        assert abs(res.objective - obj_lp) <= 1e-6 * max(1.0, obj_lp)


def test_dantzig_general_instance_matches_lp_oracle():
    # wide A, and a tall A whose duplicated column leaves A^T A singular;
    # every run ends certified at a polish checkpoint, the tall one too,
    # where the support and the active rows each hold both equal columns
    # and the pivoted QR keeps one of them
    instances = [planted(8, 2, 6, 300 + seed, sigma=0.3)[::2] for seed in range(8)]
    rng = np.random.default_rng(308)
    A_tall = rng.standard_normal((12, 7))
    A_tall = np.hstack([A_tall, A_tall[:, [2]]])
    instances.append((A_tall, A_tall[:, 2] - A_tall[:, 5] + 0.3 * rng.standard_normal(12)))
    for A, y in instances:
        gamma = 0.5 * np.max(np.abs(A.T @ y))
        res = dantzig(A, y, gamma)
        x_lp, obj_lp = dantzig_lp_oracle(A, y, gamma)
        assert res.converged and res.kkt_residual <= 1e-12
        assert res.iterations % 20 == 0
        assert abs(res.objective - obj_lp) <= 1e-8 * max(1.0, obj_lp)
        assert np.max(np.abs(A.T @ (A @ res.x_hat - y))) <= gamma + 1e-9


def test_dantzig_constraint_always_satisfied_and_l1_no_worse_than_truth():
    n, s, m, sigma = 64, 3, 48, 0.1
    gamma = default_lambda(n) * sigma / math.sqrt(m)
    checked = 0
    for seed in range(20):
        A, x, y = planted(n, s, m, 9000 + seed, sigma=sigma)
        res = dantzig(A, y, gamma)
        assert np.max(np.abs(A.T @ (A @ res.x_hat - y))) <= gamma + 1e-9
        if np.max(np.abs(A.T @ (A @ x - y))) <= gamma:  # truth feasible here
            checked += 1
            assert np.sum(np.abs(res.x_hat)) <= np.sum(np.abs(x)) + 1e-6
    assert checked >= 10


def test_dantzig_error_stays_within_four_times_lasso():
    n, s, m, sigma = 64, 3, 48, 0.1
    gamma = default_lambda(n) * sigma / math.sqrt(m)
    within = 0
    for seed in range(20):
        A, x, y = planted(n, s, m, 11000 + seed, sigma=sigma)
        e_l = np.linalg.norm(lasso(A, y, gamma).x_hat - x)
        e_d = np.linalg.norm(dantzig(A, y, gamma).x_hat - x)
        within += e_d <= 4.0 * max(e_l, 1e-15)
    assert within >= 18  # 90%


def test_dantzig_vertex_polish_matches_lp_oracle():
    # wide and tall Gaussian systems at the default level: each call ends at
    # a polish checkpoint on the LP vertex, far inside the ADMM's own tolerance
    n_s_m = [(64, 3, 48), (32, 3, 80)]
    for (n, s, m), base in zip(n_s_m, (9000, 9100)):
        gamma = default_lambda(n) * 0.1 / math.sqrt(m)
        for seed in range(base, base + 4):
            A, x, y = planted(n, s, m, seed, sigma=0.1)
            res = dantzig(A, y, gamma)
            _, obj_lp = dantzig_lp_oracle(A, y, gamma)
            assert res.converged and res.kkt_residual <= 1e-12
            assert 0 < res.iterations <= 100 and res.iterations % 20 == 0
            assert abs(res.objective - obj_lp) <= 1e-8 * obj_lp
            assert np.max(np.abs(A.T @ (A @ res.x_hat - y))) <= gamma * (1.0 + 1e-12)


def test_dantzig_falls_back_to_the_admm_until_the_active_set_squares(monkeypatch):
    # at the checkpoint at 20 z2 sits on the box in 4 rows while z1 has 3
    # nonzeros, so the vertex solves the 4 rows in least squares; that point
    # breaks the constraint, the certificate rejects it and the ADMM carries
    # on. At 40 the 3 active rows square with the support and the vertex
    # is the optimum
    import ripless.solvers as solvers_module

    A, x, y = planted(64, 3, 48, 9005, sigma=0.1)
    gamma = default_lambda(64) * 0.1 / math.sqrt(48)
    polished = []
    real_vertex = solvers_module._vertex

    def recording(B, b, S, lam0):
        out = real_vertex(B, b, S, lam0)
        polished.append((B.shape[0], S.size, out[0]))
        return out

    monkeypatch.setattr(solvers_module, "_vertex", recording)
    res = dantzig(A, y, gamma)
    assert res.iterations == 40 and [p[:2] for p in polished] == [(4, 3), (3, 3)]
    rejected, accepted = polished[0][2], polished[1][2]
    assert np.max(np.abs(A.T @ (A @ rejected - y))) > gamma * 1.01
    assert np.array_equal(accepted, res.x_hat)
    _, obj_lp = dantzig_lp_oracle(A, y, gamma)
    assert res.converged and abs(res.objective - obj_lp) <= 1e-8 * obj_lp


def test_both_lps_run_the_one_admm_loop(monkeypatch):
    # basis pursuit on a rank-deficient system and Dantzig on a non-trivial
    # one each enter solvers._admm exactly once. Dantzig's iterates w = (x, t)
    # lie on the graph t = M x; the polish is withheld in a second Dantzig
    # run, since it ends the first before any stopping test hands an
    # iterate to the candidate function
    import ripless.solvers as solvers_module

    real_admm = solvers_module._admm
    entered, iterates = [], []
    withhold = False

    def counting(project, prox, candidate, vertex, *rest):
        def recording(w, lam):
            iterates.append(w.copy())
            return candidate(w, lam)

        entered.append(1)
        return real_admm(project, prox, recording,
                         (lambda z, lam: None) if withhold else vertex, *rest)

    monkeypatch.setattr(solvers_module, "_admm", counting)
    A, y = repeated_columns(3)
    assert basis_pursuit(A, y).iterations > 0 and len(entered) == 1

    A, x, y = planted(16, 2, 12, 0, sigma=0.1)
    gamma = default_lambda(16) * 0.1 / math.sqrt(12)
    _, obj_lp = dantzig_lp_oracle(A, y, gamma)
    for withhold in (False, True):
        entered.clear()
        iterates.clear()
        res = dantzig(A, y, gamma)
        assert len(entered) == 1 and res.iterations > 0 and res.converged
        assert abs(res.objective - obj_lp) <= 1e-6 * obj_lp
    assert len(iterates) >= 2  # a rejected candidate, then the accepted one
    M = A.T @ A
    for w in iterates:
        assert np.allclose(w[16:], M @ w[:16], rtol=0.0, atol=1e-12 * np.max(np.abs(w)))


def test_dantzig_gamma_zero_collapses_to_equality_system():
    rng = np.random.default_rng(51)
    A = rng.standard_normal((10, 6))  # full column rank: unique feasible point
    x = rng.standard_normal(6)
    y = A @ x + 0.05 * rng.standard_normal(10)
    res = dantzig(A, y, 0.0)
    x_ls = np.linalg.lstsq(A, y, rcond=None)[0]
    assert np.max(np.abs(res.x_hat - x_ls)) <= 1e-7
    assert res.converged


def test_converged_implies_small_kkt():
    A, x, y = planted(32, 3, 24, 71, sigma=0.1)
    gamma = default_lambda(32) * 0.1 / math.sqrt(24)
    for res in (basis_pursuit(A, A @ x), dantzig(A, y, gamma)):
        assert res.converged
        assert res.kkt_residual <= 1e-7


# --- error-bound formulas -----------------------------------------------------------

def make_inputs(x, s, m, n, sigma, beta=1.0, mu=1.0):
    return ErrorBoundInputs(s=s, m=m, n=n, sigma=sigma, mu=mu, beta=beta, x=np.asarray(x))


def test_error_bounds_vanish_for_exactly_sparse_noiseless():
    x = np.zeros(32)
    x[[3, 10, 17]] = [1.0, -2.0, 0.5]
    inp = make_inputs(x, 3, 64, 32, 0.0)
    assert l2_error_bound(inp, "lasso") == 0.0
    assert l1_error_bound(inp, "dantzig") == 0.0


def test_l2_bound_hand_check_one_sparse():
    n = 16
    x = np.zeros(n)
    x[5] = 3.0
    inp = make_inputs(x, 1, n, n, 1.0, beta=1.0)
    alpha = math.sqrt(2.0 * math.log(n) ** 5 / n)
    expected = (1.0 + alpha) * math.sqrt(math.log(n) / n)
    assert np.isclose(l2_error_bound(inp, "lasso"), expected, rtol=1e-12)
    # dantzig swaps in alpha^2
    expected_d = (1.0 + alpha**2) * math.sqrt(math.log(n) / n)
    assert np.isclose(l2_error_bound(inp, "dantzig"), expected_d, rtol=1e-12)


def test_l1_bound_hand_check():
    n, m, s = 64, 32, 2
    x = np.zeros(n)
    x[[1, 2, 3]] = [2.0, -1.0, 0.25]  # not exactly 2-sparse: miss terms bite
    inp = make_inputs(x, s, m, n, 1.0, beta=1.0)
    logn = math.log(n)
    best = math.inf
    for k in (1, 2):
        miss = sum(sorted(np.abs(x))[: n - k])
        a = math.sqrt(2.0 * k * logn**5 / m)
        best = min(best, (1.0 + a) * (miss + k * math.sqrt(logn / m)))
    assert np.isclose(l1_error_bound(inp, "lasso"), best, rtol=1e-12)


def test_alpha_clamp_under_admissible_m():
    for n in (16, 64, 256):
        for s in (1, 4, 9):
            for beta in (0.5, 1.0, 3.0):
                m = math.ceil((1.0 + beta) * s * math.log(n))
                assert alpha_factor(s, m, n, beta) <= math.log(n) ** 2 + 1e-12


def test_l1_l2_bracket_identity_and_sandwich():
    rng = np.random.default_rng(81)
    n, m = 64, 48
    logn = math.log(n)
    for _ in range(100):
        x = rng.standard_normal(n) * rng.random(n) ** 3
        sigma = float(rng.uniform(0.0, 1.0))
        s = int(rng.integers(1, 9))
        inp = make_inputs(x, s, m, n, sigma)
        l1 = l1_error_bound(inp, "lasso")
        l2 = l2_error_bound(inp, "lasso")
        assert l2 - 1e-12 <= l1 <= math.sqrt(s) * l2 + 1e-12
        # single-k inputs realize the exact identity
        inp1 = make_inputs(x, 1, m, n, sigma)
        assert np.isclose(l1_error_bound(inp1, "lasso"), l2_error_bound(inp1, "lasso"), rtol=1e-12)


def test_error_bound_validation():
    x = np.ones(8)
    with pytest.raises(ValueError):
        make_inputs(x, 0, 8, 8, 1.0)
    with pytest.raises(ValueError):
        make_inputs(x, 9, 8, 8, 1.0)
    with pytest.raises(ValueError):
        make_inputs(x, 1, 8, 8, -1.0)
    with pytest.raises(ValueError):
        ErrorBoundInputs(s=1, m=8, n=8, sigma=1.0, mu=1.0, beta=0.0, x=x)
    with pytest.raises(ValueError):
        l2_error_bound(make_inputs(x, 1, 8, 8, 1.0), "omp")


def test_bp_certifies_the_support_where_the_admm_stalls():
    # below the Gaussian transition the l1 minimiser has a full support of
    # m entries and is not the planted signal; the ADMM alone stalled at the
    # iteration cap here, 1.4e-4 above the LP optimum
    from ripless.core import realify
    from ripless.ensembles import EnsembleSpec
    from ripless.harness import plant_signal, trial_rng

    rng = trial_rng(22, 0, 0)
    x = plant_signal(256, 5, "pm1", 2.0, rng)
    A = realify(build_matrix(EnsembleSpec("gaussian", 256), 32, rng=rng)).rows
    y = A @ x
    res = basis_pursuit(A, y)
    _, obj_lp = l1_lp_oracle(A, y)
    assert res.converged and res.kkt_residual <= REL_TOL
    assert res.iterations < MAX_ITER // 50
    assert abs(res.objective - obj_lp) <= 1e-6 * obj_lp
    assert np.count_nonzero(res.x_hat) <= 32
    assert np.linalg.norm(A @ res.x_hat - y) <= 1e-9 * (1.0 + np.linalg.norm(y))


def repeated_columns(seed):
    # 16 x 50: the last 10 columns repeat the first 10, so the optimum need
    # not be unique and the iterate's support can hold repeated columns
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((16, 40))
    A = np.hstack([A, A[:, :10]])
    x = np.zeros(50)
    x[rng.choice(50, 6, replace=False)] = rng.choice([-1.0, 1.0], 6)
    return A, A @ x


def test_bp_polish_handles_repeated_columns_in_the_support():
    # the polish solves on an independent part of the support; at 10 the
    # support of z holds 20 columns, more than the rank 16, and the
    # certificate rejects the vertices at 10, 20 and 30 until the optimum
    # at 40
    A, y = repeated_columns(3)
    res = basis_pursuit(A, y)
    _, obj_lp = l1_lp_oracle(A, y)
    assert res.converged and res.iterations == 40
    assert abs(res.objective - obj_lp) <= 1e-7 * max(1.0, obj_lp)


def test_bp_polish_cadence_leaves_rho_balancing_alone():
    # the polish runs every 10 iterations and residual balancing every 100;
    # changing rho at every polish checkpoint left seeds 2 and 15 at the
    # iteration cap. The optimum can spread m entries over repeated pairs,
    # so the support of z can exceed the rank (seed 37); the polish still
    # solves an independent part of it
    for seed in range(40):
        A, y = repeated_columns(seed)
        res = basis_pursuit(A, y)
        _, obj_lp = l1_lp_oracle(A, y)
        assert res.converged and res.iterations < MAX_ITER // 20, seed
        assert abs(res.objective - obj_lp) <= 1e-7 * max(1.0, obj_lp), seed


def test_bp_phase_transition_below_threshold_converges():
    # the README's n=64 transition: every trial ends certified, and the
    # success rates are those of the l1 geometry alone
    from ripless import EnsembleSpec, ExperimentConfig, GridCell, run_experiment

    cfg = ExperimentConfig(kind="phase_transition", ensemble=EnsembleSpec("gaussian", 64),
                           grid=tuple(GridCell(64, 3, m) for m in (6, 10, 16, 28, 48)),
                           trials=40, seed=11)
    rows = [line.split(",") for line in run_experiment(cfg).csv_text().splitlines()]
    header = rows[0]
    cells = [dict(zip(header, row)) for row in rows[1:]]
    assert [c["success_rate"] for c in cells] == ["0.0", "0.175", "0.925", "1.0", "1.0"]
    assert [c["nonconverged"] for c in cells] == ["0"] * 5


# --- SVD driver robustness ----------------------------------------------------------

def ill_conditioned(m, n, seed, low=-9):
    # singular values from 1 down to 10^low, all above the SVD's rank cut.
    # At 1e-9 sigma_min lies below what the pivoted Cholesky of the Gram
    # matrix resolves (about sqrt(k eps) sigma_max), so a direction it
    # drops fails that cut on A; at 1e-6 and 1e-4 it keeps every direction,
    # but its last pivot falls below 1e-6 of its first. Either way the SVD
    # decides the rank
    rng = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(rng.standard_normal((m, min(m, n))))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, min(m, n))))
    return (Q1 * np.logspace(0, low, min(m, n))) @ Q2.T, rng


def test_basis_pursuit_falls_back_when_gesdd_balks(monkeypatch):
    # the default LAPACK driver is allowed to fail once; the solver must
    # quietly take the slow driver and still certify optimality
    A, rng = ill_conditioned(20, 32, 77)
    x = np.zeros(32)
    x[rng.choice(32, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
    y = A @ x
    real_svd = np.linalg.svd
    raised = {"count": 0}

    def flaky(a, *args, **kwargs):
        if kwargs.get("full_matrices") is False and raised["count"] == 0:
            raised["count"] += 1
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    res = basis_pursuit(A, y)
    assert raised["count"] == 1
    assert res.converged
    assert np.linalg.norm(res.x_hat - x) <= 1e-6 * np.linalg.norm(x)


def count_factorizations(monkeypatch):
    # counts np.linalg.svd, eigh and eigvalsh calls; lstsq is forbidden
    calls = {"svd": 0, "eigh": 0, "eigvalsh": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def no_lstsq(*args, **kwargs):
        raise AssertionError("a solver called lstsq")

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(scipy.linalg, "lstsq", no_lstsq)
    return calls


def count_bp_factorizations(monkeypatch):
    # count_factorizations plus LAPACK's pivoted Cholesky, dpstrf
    calls = count_factorizations(monkeypatch)
    calls["pstrf"] = 0
    real = scipy.linalg.lapack.dpstrf

    def counting(*args, **kwargs):
        calls["pstrf"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", counting)
    return calls


def test_basis_pursuit_factors_once(monkeypatch):
    # one factorization per call, for the full-rank exit and for the ADMM
    # alike: the pivoted Cholesky of A A^T for a wide A, of A^T A for a tall
    # one, and no eigendecomposition; the dual point comes from its factor,
    # never from a second least squares
    rng = np.random.default_rng(79)
    A_tall = rng.standard_normal((40, 16))
    systems = [planted(32, 3, 20, 78)[::2], (A_tall, A_tall @ rng.standard_normal(16))]
    calls = count_bp_factorizations(monkeypatch)
    for A, y in systems:
        calls.update(svd=0, eigh=0, eigvalsh=0, pstrf=0)
        res = basis_pursuit(A, y)
        assert res.converged
        assert calls == {"svd": 0, "eigh": 0, "eigvalsh": 0, "pstrf": 1}


def test_noisy_programs_factor_once(monkeypatch):
    # LASSO takes ||A||^2 from one eigvalsh of the smaller Gram matrix, with
    # no SVD; Dantzig's x-update and least-squares point share one eigh of
    # A^T A, with no SVD and no lstsq; on a wide and a tall system
    systems = [planted(64, 3, 48, 21, sigma=0.1), planted(32, 3, 80, 23, sigma=0.1)]
    calls = count_factorizations(monkeypatch)
    for A, x, y in systems:
        gamma = default_lambda(A.shape[1]) * 0.1 / math.sqrt(A.shape[0])
        for solve, gam, expected in ((lasso, gamma, {"svd": 0, "eigh": 0, "eigvalsh": 1}),
                                     (dantzig, gamma, {"svd": 0, "eigh": 1, "eigvalsh": 0}),
                                     (dantzig, 0.0, {"svd": 0, "eigh": 1, "eigvalsh": 0})):
            calls.update(svd=0, eigh=0, eigvalsh=0)
            assert solve(A, y, gam).converged
            assert calls == expected


def test_bp_tall_rank_deficient_runs_the_admm_on_the_gram_factors(monkeypatch):
    # a duplicated column leaves a tall 40 x 16 system at rank 15: the
    # pivoted Cholesky of A^T A decides that rank, with no SVD, and the ADMM
    # projecting with its null-space basis reaches the LP optimum
    rng = np.random.default_rng(81)
    A = rng.standard_normal((40, 15))
    A = np.hstack([A, A[:, [4]]])
    y = A[:, 4] - 2.0 * A[:, 9]
    calls = count_bp_factorizations(monkeypatch)
    res = basis_pursuit(A, y)
    assert calls == {"svd": 0, "eigh": 0, "eigvalsh": 0, "pstrf": 1}
    assert res.iterations > 0 and res.converged
    _, obj_lp = l1_lp_oracle(A, y)
    assert abs(res.objective - obj_lp) <= 1e-7 * max(1.0, obj_lp)
    assert res.objective >= obj_lp - 1e-7 * max(1.0, obj_lp)


def test_bp_wide_rank_deficient_runs_the_admm_on_the_gram_factors(monkeypatch):
    # a duplicated row leaves a wide 12 x 30 system at rank 11: the pivoted
    # Cholesky of A A^T decides that rank, with no SVD, and the ADMM on its
    # 11 kept rows reaches the LP optimum
    rng = np.random.default_rng(86)
    A = rng.standard_normal((12, 30))
    A[11] = A[3]
    x = np.zeros(30)
    x[rng.choice(30, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
    y = A @ x
    calls = count_bp_factorizations(monkeypatch)
    res = basis_pursuit(A, y)
    assert calls == {"svd": 0, "eigh": 0, "eigvalsh": 0, "pstrf": 1}
    assert res.iterations > 0 and res.converged
    _, obj_lp = l1_lp_oracle(A, y)
    assert abs(res.objective - obj_lp) <= 1e-7 * max(1.0, obj_lp)
    assert res.objective >= obj_lp - 1e-7 * max(1.0, obj_lp)


def test_bp_tall_ill_conditioned_falls_back_to_the_svd(monkeypatch):
    # the SVD decides full column rank: the least-squares point, with no
    # iterations
    calls = count_bp_factorizations(monkeypatch)
    for low in (-9, -6, -4):
        A, rng = ill_conditioned(40, 16, 83, low)
        x = rng.standard_normal(16)
        y = A @ x
        calls.update(svd=0, eigh=0, eigvalsh=0, pstrf=0)
        res = basis_pursuit(A, y)
        assert calls == {"svd": 1, "eigh": 0, "eigvalsh": 0, "pstrf": 1}, low
        assert res.iterations == 0 and res.converged, low
        x_ls = np.linalg.pinv(A, rcond=1e-14) @ y
        assert np.linalg.norm(res.x_hat - x_ls) <= 1e-5 * np.linalg.norm(x_ls), low


def test_bp_wide_ill_conditioned_falls_back_to_the_svd(monkeypatch):
    # the pivoted Cholesky of the wide system's A A^T is refused the same
    # way; the ADMM on the SVD's factors recovers the planted signal (HiGHS
    # is no oracle here: at this conditioning it reports points below the l1
    # optimum)
    calls = count_bp_factorizations(monkeypatch)
    for low in (-9, -6, -4):
        A, rng = ill_conditioned(16, 40, 83, low)
        x = np.zeros(40)
        x[rng.choice(40, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
        y = A @ x
        calls.update(svd=0, eigh=0, eigvalsh=0, pstrf=0)
        res = basis_pursuit(A, y)
        assert calls == {"svd": 1, "eigh": 0, "eigvalsh": 0, "pstrf": 1}, low
        assert res.converged and res.kkt_residual <= REL_TOL, low
        assert np.linalg.norm(res.x_hat - x) <= 1e-6 * np.linalg.norm(x), low


def realified_dft(n, m, rng):
    # m subsampled DFT rows, realified to 2m: f = 0 gives a zero imaginary
    # row, a repeated frequency and its conjugate n - f give rows that
    # repeat or negate others, and one conjugate pair is never drawn, so
    # that even a tall stack is rank-deficient
    skip = rng.integers(1, n // 2)
    freqs = rng.choice([f for f in range(n) if f not in (skip, n - skip)], m)
    freqs[0], freqs[2], freqs[3] = 0, n - freqs[1], freqs[1]
    rows = np.exp((2j * np.pi / n) * np.outer(freqs, np.arange(n))) / math.sqrt(m)
    return np.vstack([rows.real, rows.imag])


def test_bp_rank_is_the_svds(monkeypatch):
    # basis pursuit takes its rank from the pivoted Cholesky of the smaller
    # Gram matrix; on wide, square, tall and 16-times-tall systems at n = 64
    # it accepts that factor, its rank is the SVD's at _rank_cut, and the
    # program reaches the LP optimum. On the tallest DFT stacks LAPACK's
    # default stopping level kept a direction the SVD drops. The
    # ill-conditioned inputs still go to the SVD
    from ripless import solvers

    factors = []
    real = solvers._pivoted_gram

    def recording(B):
        factors.append(real(B))
        return factors[-1]

    monkeypatch.setattr(solvers, "_pivoted_gram", recording)
    n, deficient = 64, 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for m in (32, 64, 128, 1024):
            for A in (realified_dft(n, m // 2, rng), rng.standard_normal((m, n)),
                      rng.choice([-1.0, 1.0], (m, n))):
                x = np.zeros(n)
                x[rng.choice(n, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
                y = A @ x
                res = basis_pursuit(A, y)
                svals = np.linalg.svd(A, compute_uv=False)
                rank = int(np.count_nonzero(svals > svals[0] * solvers._rank_cut(A)))
                assert factors[-1] is not None, (seed, m)
                assert factors[-1][0].size == rank, (seed, m)
                deficient += rank < min(m, n)
                assert res.converged, (seed, m)
                _, obj_lp = l1_lp_oracle(A, y)
                assert abs(res.objective - obj_lp) <= 1e-7 * max(1.0, obj_lp), (seed, m)
    assert deficient >= 24  # every DFT system
    for shape in ((40, 16), (16, 40)):
        for low in (-9, -6, -4):
            A, _ = ill_conditioned(*shape, 83, low)
            basis_pursuit(A, A @ np.ones(shape[1]))
            assert factors[-1] is None, (shape, low)


def test_basis_pursuit_on_gesdd_hard_realified_stack():
    # this exact draw produces a 1770 x 256 realified partial-DFT stack on
    # which gesdd declares nonconvergence despite a condition number near 4;
    # recovery must go through regardless of which driver ends up running
    from ripless.certificates import default_config, golfing_scheme
    from ripless.core import SupportSet, realify
    from ripless.ensembles import EnsembleSpec
    from ripless.harness import trial_rng

    rng = trial_rng(20260817, 0, 51)
    n, s = 256, 4
    idx = np.sort(rng.choice(n, s, replace=False))
    signs = np.zeros(n)
    signs[idx] = rng.choice([-1.0, 1.0], s)
    support = SupportSet(tuple(int(k) for k in idx), n)
    cert = golfing_scheme(EnsembleSpec("subsampled_dft", n), support, signs,
                          default_config(n, s, mu=1.0), rng)
    assert cert.success
    A_r, y_r = realify(cert.matrix, cert.matrix.rows @ signs)
    res = basis_pursuit(A_r.rows, y_r)
    assert res.converged
    assert np.linalg.norm(res.x_hat - signs) <= 1e-6 * math.sqrt(s)
