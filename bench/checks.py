"""Output checks made apart from the program.

Each check recomputes what the program returned with numpy or with HiGHS
(`scipy.optimize.linprog(method="highs")`, an LP solver independent of the
library's ADMM), or tests a property the method must have. Every function
returns a list of failure messages; an empty list means the output passed.
Row draws are rebuilt from the library's documented streams with this
file's own samplers, so a fault in `ripless.ensembles` shows here too.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

# Tolerances, relative to the scale named beside each.
FEAS_TOL = 1e-6       # ||A x - y|| against 1 + ||y||
L1_TOL = 1e-6         # l1 norms against the HiGHS optimum (measured: ~3e-8 BP, ~6e-8 Dantzig)
KKT_TOL = 1e-6        # LASSO subgradient conditions against max(lam, ||A^T y||_inf, 1)
ZERO_TOL = 1e-8       # a "zero" solution: ||x_hat||_inf against max(1, ||x||_inf)
SIGN_TOL = 1e-6       # BP on a golfing system: ||x_hat - sgn|| against ||sgn||
DUAL_TOL = 1e-9       # inexact-duality values and ||A* w - v|| against max(1, value)


# -- linear programs ------------------------------------------------------

def _lp(c, **kw) -> float:
    res = linprog(c, bounds=(0, None), method="highs", **kw)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def highs_bp(A, y) -> float:
    """min ||x||_1 s.t. A x = y, with x = u - v, u, v >= 0."""
    A = np.asarray(A, dtype=float)
    return _lp(np.ones(2 * A.shape[1]), A_eq=np.hstack([A, -A]), b_eq=y)


def highs_dantzig(A, y, lam) -> float:
    """min ||x||_1 s.t. ||A^T (A x - y)||_inf <= lam."""
    A = np.asarray(A, dtype=float)
    M, c = A.T @ A, A.T @ y
    G = np.hstack([M, -M])
    return _lp(np.ones(2 * A.shape[1]), A_ub=np.vstack([G, -G]),
               b_ub=np.concatenate([c + lam, lam - c]))


def _l1_gap(name, l1, opt) -> list:
    if abs(l1 - opt) > L1_TOL * max(opt, 1e-12) + 1e-12:
        return [f"{name}: ||x_hat||_1 = {l1:.12g} but HiGHS optimum is {opt:.12g} "
                f"(rel {abs(l1 - opt) / max(opt, 1e-12):.2e})"]
    return []


# -- recovery programs ----------------------------------------------------

def bp_solution(A, y, x, x_hat, opt) -> list:
    """A converged basis-pursuit solution: feasible, no worse than the
    planted x (which is feasible), and at the HiGHS optimum."""
    errors = []
    feas = float(np.linalg.norm(A @ x_hat - y))
    if feas > FEAS_TOL * (1.0 + float(np.linalg.norm(y))):
        errors.append(f"bp: ||A x_hat - y|| = {feas:.3g}")
    l1, l1_x = float(np.abs(x_hat).sum()), float(np.abs(x).sum())
    if l1 > l1_x * (1.0 + L1_TOL):
        errors.append(f"bp: ||x_hat||_1 = {l1:.12g} exceeds the planted {l1_x:.12g}")
    return errors + _l1_gap("bp", l1, opt)


def dantzig_solution(A, y, lam, x_hat, opt) -> list:
    """A Dantzig solution: inside the constraint tube and at the HiGHS optimum."""
    tube = float(np.max(np.abs(A.T @ (A @ x_hat - y))))
    errors = []
    if tube > lam * (1.0 + FEAS_TOL):
        errors.append(f"dantzig: ||A^T(A x_hat - y)||_inf = {tube:.12g} > lam {lam:.12g}")
    return errors + _l1_gap("dantzig", float(np.abs(x_hat).sum()), opt)


def lasso_kkt(A, y, lam, x_hat) -> list:
    """LASSO subgradient conditions: |g_i| <= lam off the support and
    g_i = lam sgn(x_i) on it, with g = A^T (y - A x_hat)."""
    g = A.T @ (y - A @ x_hat)
    tol = KKT_TOL * max(lam, float(np.max(np.abs(A.T @ y))), 1.0)
    on = x_hat != 0.0
    off_excess = float(np.max(np.abs(g[~on]), initial=0.0)) - lam
    on_mismatch = float(np.max(np.abs(g[on] - lam * np.sign(x_hat[on])), initial=0.0))
    errors = []
    if off_excess > tol:
        errors.append(f"lasso: off-support correlation exceeds lam by {off_excess:.3g}")
    if on_mismatch > tol:
        errors.append(f"lasso: on-support correlation misses lam sgn(x) by {on_mismatch:.3g}")
    return errors


def zero_is_optimal(A, y, lam) -> bool:
    """x = 0 solves both LASSO and Dantzig exactly when ||A^T y||_inf <= lam."""
    return float(np.max(np.abs(np.asarray(A).T @ np.asarray(y)))) <= lam


def is_zero(name, x_hat, x) -> list:
    peak = float(np.max(np.abs(x_hat)))
    if peak > ZERO_TOL * max(1.0, float(np.max(np.abs(x)))):
        return [f"{name}: x = 0 is optimal but ||x_hat||_inf = {peak:.3g}"]
    return []


# -- row samplers, written apart from ripless.ensembles ---------------------

def raw_rows(family: str, n: int, m: int, rng, cols=None) -> np.ndarray:
    """The raw sensing rows the library's `sample_rows` draws from `rng`."""
    cols = np.arange(n) if cols is None else np.asarray(cols)
    if family == "gaussian":
        return rng.standard_normal((m, cols.size))
    if family == "binary":
        return np.where(rng.integers(0, 2, size=(m, cols.size)) == 1, 1.0, -1.0)
    if family == "subsampled_dft":
        freqs = rng.integers(0, n, size=m)
        return np.exp(2j * np.pi * np.outer(freqs, cols) / n)
    raise ValueError(family)


# -- certificates ---------------------------------------------------------

def inexact_duality(A, idx, signs, v, w, reported) -> list:
    """The four inexact-duality conditions and ||A* w - v||, from numpy.

    `reported` holds the library's (gram_inverse_norm, cross_column_max,
    sign_gap, off_support_max); each must match the recomputed value and
    satisfy its threshold.
    """
    n = A.shape[1]
    off = np.setdiff1d(np.arange(n), idx)
    At = A[:, idx]
    s_min = float(np.linalg.svd(At, compute_uv=False)[-1])
    mine = (
        1.0 / s_min ** 2,
        float(np.max(np.sqrt(np.sum(np.abs(At.conj().T @ A[:, off]) ** 2, axis=0)))),
        float(np.sqrt(np.sum(np.abs(v[idx] - signs[idx]) ** 2))),
        float(np.max(np.abs(v[off]))),
    )
    names = ("||(A_T* A_T)^-1||", "max ||A_T* A_i||", "||v_T - sgn||", "||v_off||_inf")
    limits = (2.0, 1.0, 0.25, 0.25)
    errors = []
    for name, value, theirs, limit in zip(names, mine, reported, limits):
        if abs(value - theirs) > DUAL_TOL * max(1.0, value):
            errors.append(f"certificate: {name} = {value:.12g}, library says {theirs:.12g}")
        if value > limit:
            errors.append(f"certificate: {name} = {value:.6g} > {limit}")
    recon = float(np.linalg.norm(A.conj().T @ w - v))
    if recon > DUAL_TOL * max(1.0, float(np.linalg.norm(v))):
        errors.append(f"certificate: ||A* w - v|| = {recon:.3g}")
    return errors


def sign_recovery(x_hat, signs) -> list:
    gap = float(np.linalg.norm(x_hat - signs))
    if gap > SIGN_TOL * float(np.linalg.norm(signs)):
        return [f"golfing: BP returned ||x_hat - sgn|| = {gap:.3g}"]
    return []


# -- estimates ------------------------------------------------------------

def event(which: str, family: str, n: int, m: int, idx, v, level: float, rng) -> bool:
    """One E1-E4 event from a fresh draw, with this file's statistic."""
    if which in ("E1", "E2"):
        At = np.conj(raw_rows(family, n, m, rng, cols=idx)) / math.sqrt(m)
        if which == "E1":
            sv = np.linalg.svd(At, compute_uv=False)
            return float(max(sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)) >= level
        vt = v[idx]
        return float(np.linalg.norm(At.conj().T @ (At @ vt) - vt)) >= level * float(np.linalg.norm(v))
    A = np.conj(raw_rows(family, n, m, rng)) / math.sqrt(m)
    off = np.setdiff1d(np.arange(n), idx)
    if which == "E3":
        u = A[:, off].conj().T @ (A @ v)
        return float(np.max(np.abs(u))) >= level * float(np.linalg.norm(v))
    cross = A[:, idx].conj().T @ A[:, off]
    return float(np.max(np.linalg.norm(cross, axis=0))) >= level


def rip_batched(A, s: int) -> float:
    """delta_s from one batched eigvalsh over the Gram blocks of every subset."""
    A = np.asarray(A)
    subsets = np.array(list(itertools.combinations(range(A.shape[1]), s)))
    gram = A.conj().T @ A
    blocks = gram[subsets[:, :, None], subsets[:, None, :]]
    lam = np.linalg.eigvalsh(blocks)
    return float(max(np.max(lam[:, -1] - 1.0), np.max(1.0 - lam[:, 0]), 0.0))


def noise_failures(B, sigma: float, threshold: float, trials: int, rng) -> int:
    """Exceedances of ||B* z||_inf > threshold over `trials` noise draws,
    drawn as one (trials, m) block: the same stream as one draw per trial."""
    z = sigma * rng.standard_normal((trials, B.shape[0]))
    return int(np.sum(np.max(np.abs(z @ B.conj()), axis=1) > threshold))
