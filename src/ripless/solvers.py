"""Recovery programs: basis pursuit, LASSO, Dantzig selector.

All three are first-order methods with no external solver behind them:
basis pursuit factors A once, by a pivoted Cholesky of the smaller Gram
matrix (A^T A for a tall A, A A^T for a wide one), with a thin SVD only
as the fallback when a direction the factor drops does not meet the
SVD's rank cut on A or its last kept pivot is below 1e-6 of its first.
It returns the pseudoinverse solution outright when A has full column
rank (it is then the only feasible point), and otherwise runs ADMM with
an exact projection onto the affine feasible set, taking its dual point
from the same factor. Residual balancing adjusts rho every 100
iterations.
LASSO runs FISTA with gradient-based adaptive restart, its step from the
top eigenvalue of the smaller Gram matrix. The Dantzig selector runs
two-block ADMM against its box-constrained reformulation, factoring A
once through the eigenpairs of A^T A, which give both the x-update and
the least-squares point. Both LPs run one vertex polish, _vertex, every
10 (basis pursuit) or 20 (Dantzig) iterations, and stop at its point once
their certificate accepts it. Both noisy programs return x = 0 exactly, without iterating, when
||A^T y||_inf <= lam_sigma: zero then meets the LASSO subgradient
conditions and is Dantzig-feasible with l1 norm 0. Every returned
solution carries a computable optimality certificate: a scaled dual
point for the two constrained programs and the subgradient residual for
LASSO. Solvers accept only real, finite systems; complex ensembles go
through realify() first.

The module also evaluates the theoretical error-bound shapes for the
noisy programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import lapack

from .core import MeasurementVector, as_signal, best_s_approx, matrix_rows

__all__ = [
    "SolverResult",
    "default_lambda",
    "basis_pursuit",
    "lasso",
    "dantzig",
    "ErrorBoundInputs",
    "alpha_factor",
    "l2_error_bound",
    "l1_error_bound",
]

ABS_TOL = 1e-9
REL_TOL = 1e-7
MAX_ITER = 100_000


def default_lambda(n: int) -> float:
    """Regularization level 10 sqrt(log n) used throughout the noisy theory."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 10.0 * math.sqrt(math.log(n))


def _real_matrix(A) -> np.ndarray:
    M = matrix_rows(A)
    if np.iscomplexobj(M):
        raise ValueError("solvers take real systems; pass complex ensembles through realify()")
    if M.ndim != 2:
        raise ValueError("A must be 2-d")
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("A has NaN or infinite entries")
    return M


def _real_vector(y, m: int) -> np.ndarray:
    v = y.values if isinstance(y, MeasurementVector) else np.asarray(y, dtype=float)
    if np.iscomplexobj(v):
        raise ValueError("y must be real alongside a real A; realify() both together")
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"y must have length {m}")
    if not np.all(np.isfinite(v)):
        raise ValueError("y has NaN or infinite entries")
    return v


@dataclass(frozen=True)
class SolverResult:
    """Solution plus the evidence it is one.

    kkt_residual is program-specific: the larger of relative dual gap and
    relative feasibility violation for basis pursuit and Dantzig, the
    subgradient-condition violation for LASSO. converged means it came in
    under the stopping tolerance. tube_value is ||A*(A x_hat - y)||_inf,
    the quantity the noisy programs constrain or drive to lam * sigma_m.
    objective_history holds the objective at restart checkpoints when the
    caller asked for tracking (empty otherwise).
    """

    x_hat: np.ndarray
    iterations: int
    kkt_residual: float
    tube_value: float
    objective: float
    converged: bool
    objective_history: tuple = field(default=())

    def __post_init__(self):
        x = np.asarray(self.x_hat, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x_hat", x)


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _tube(A, x, y):
    return float(np.max(np.abs(A.T @ (A @ x - y)))) if A.shape[1] else 0.0


def _rank_cut(A) -> float:
    """Relative level at or below which a singular value of A counts as zero."""
    return max(A.shape) * np.finfo(float).eps


def _pivoted_gram(B):
    """LAPACK's pivoted Cholesky of B^T B as (K, L, N), or None.

    dpstrf stops at the first pivot at or below _rank_cut(B) max(diag
    B^T B), the rounding level of the Gram matrix itself; LAPACK's default
    level, k eps / 2 for k columns, is lower for a tall B and there keeps
    directions the SVD drops. The r pivots K it keeps give
    B_K^T B_K = L L^T, L lower triangular; each column n_j of
    N = P [-L^-T L21^T; I] is a dropped direction, B n_j being a dropped
    column of B less its least-squares fit on B_K. The factor is accepted
    only when every dropped direction meets the SVD's cut on B itself,
    ||B n_j|| <= ||n_j|| ell _rank_cut(B), with ell <= sigma_max(B) the
    largest column norm of [L; L21], and when the last kept pivot is at
    least 1e-6 of the first, L[r-1, r-1]^2 >= 1e-6 L[0, 0]^2. That ratio
    bounds the condition number of B_K^T B_K from below, and pivoted
    Cholesky keeps the two close except on contrived (Kahan-type)
    matrices, so the kept block is solved to about 1e6 eps and its rank
    is the SVD's. A zero matrix, a dropped direction above the cut or a
    small last pivot gives None; B then goes to the SVD.
    """
    G = B.T @ B
    F, piv, r, info = lapack.dpstrf(G, tol=_rank_cut(B) * G.diagonal().max(), lower=1)
    if info < 0 or r == 0 or F[r - 1, r - 1] ** 2 < 1e-6 * F[0, 0] ** 2:
        return None
    piv -= 1
    # contiguous, so that dpotrs takes it without a copy on every solve
    L = np.asfortranarray(F[:r, :r])
    N = np.zeros((B.shape[1], B.shape[1] - r))
    N[piv[:r]] = -linalg.solve_triangular(L, F[r:, :r].T, trans="T", lower=True,
                                          check_finite=False)
    N[piv[r:], np.arange(N.shape[1])] = 1.0
    if N.size:
        ell = float(np.max(np.linalg.norm(np.tril(F[:, :r]), axis=0)))
        if np.any(np.linalg.norm(B @ N, axis=0) > ell * _rank_cut(B) * np.linalg.norm(N, axis=0)):
            return None
    return piv[:r], L, N


def _vertex(B, b, S, lam0):
    """The LP vertex that a candidate support S and active rows B x = b
    point to, with a dual point for it; None when S or B is empty.

    Both LP polishes are this one step. A column-pivoted QR of
    B_S = B[:, S] keeps a largest independent part of S: pivots whose
    |diag(R)| is at or below _rank_cut(B) times the first are dropped, so
    columns that repeat one another, or a support larger than the rank,
    still give a vertex. On the kept part, x_S = R^-1 Q^T b solves
    B_S x_S = b (in least squares when B has more rows than the kept
    part), and lam0 moves the least distance onto
    {lam : B_S^T lam = sign(x_S)}, by lam0 + Q R^-T (sign(x_S) - B_S^T lam0),
    which closes the duality gap at x. The caller's own certificate
    decides whether the pair is returned.
    """
    if S.size == 0 or B.shape[0] == 0:
        return None
    Q, R, P = linalg.qr(B[:, S], mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    k = int(np.count_nonzero(d > d[0] * _rank_cut(B)))
    S, Q, R = S[P[:k]], Q[:, :k], R[:k, :k]
    x_S = linalg.solve_triangular(R, Q.T @ b)
    x = np.zeros(B.shape[1])
    x[S] = x_S
    lam = lam0 + Q @ linalg.solve_triangular(R, np.sign(x_S) - B[:, S].T @ lam0, trans="T")
    return x, lam


def basis_pursuit(A, y, tol_abs: float = ABS_TOL, tol_rel: float = REL_TOL,
                  max_iter: int = MAX_ITER, rho: float = 1.0) -> SolverResult:
    """Minimize ||x||_1 subject to A x = y.

    One factorization of A, at the rank the SVD would give at eps *
    max(m, n) relative to the largest singular value, gives pinv(A) y for
    the in-range check, the projection onto {A x = y} and the dual point.
    It is _pivoted_gram, LAPACK's pivoted Cholesky of the smaller Gram
    matrix. A tall A (m >= n) factors A^T A: its pivots K are independent
    columns of A, x_ls solves the normal equations on K less its part in
    the null space, and that null space, spanned by the dropped
    directions, gives the projection x_ls + Q Q^T (w - x_ls) with Q an
    orthonormal basis of it. A wide one factors A A^T: its pivots K are
    independent rows spanning the row space, so that pinv(A) r =
    A_K^T (A_K A_K^T)^-1 r_K on the range of A. When a dropped direction
    misses the SVD's cut on A itself, or the kept block is badly
    conditioned, a thin SVD of A takes over. At full
    column rank the feasible set is the single point pinv(A) y, returned
    with zero iterations. Otherwise ADMM runs with the x-update that exact
    projection, so every iterate is feasible to working precision. A dual
    point nu solving A^T nu = P g (P the projection onto the row space of
    A; g = rho u, or sign(x) at full column rank, where the gap is 0),
    rescaled into the dual ball, certifies x through the gap
    ||x||_1 - y . nu; every such nu gives the same A^T nu and y . nu.

    Every 10 iterations _vertex polishes A x = y on the support of the
    soft-thresholded iterate z from the ADMM's dual point; its point is
    returned once the same certificate passes it. Residual balancing,
    which doubles or halves rho when one residual exceeds the other
    tenfold, runs every 100 iterations.

    y must lie in the range of A; anything else raises.
    """
    A = _real_matrix(A)
    m, n = A.shape
    y = _real_vector(y, m)

    # pinv_apply(r) = pinv(A) r for r in the range of A, and dual(g) a
    # solution nu of A^T nu = P g, P the orthogonal projection onto the row
    # space of A, both at the rank cut
    fact = _pivoted_gram(A if m >= n else A.T) if m and n else None
    if fact is None:
        # The default divide-and-conquer driver reports nonconvergence on
        # some perfectly conditioned inputs (seen on realified partial-DFT
        # stacks); QR iteration is slower but immune.
        try:
            U, svals, Vt = np.linalg.svd(A, full_matrices=False)
        except np.linalg.LinAlgError:
            U, svals, Vt = linalg.svd(A, full_matrices=False, lapack_driver="gesvd")
        # singular values come sorted, so the kept ones are a prefix
        rank = int(np.count_nonzero(svals > (svals[0] if svals.size else 0.0) * _rank_cut(A)))
        U, svals, Vt = U[:, :rank], svals[:rank], Vt[:rank]

        def pinv_apply(r):
            return Vt.T @ ((U.T @ r) / svals)

        def dual(g):
            return U @ ((Vt @ g) / svals)
    else:
        K, L, N = fact
        rank = K.size

        def solve(v):
            # (L L^T)^-1 v, with no finiteness scan
            return lapack.dpotrs(L, v, lower=1)[0]

        if m >= n:
            # the columns K of A are independent, and Q is an orthonormal
            # basis of the null space that N spans
            Q = np.linalg.qr(N)[0]

            def gram_solve(v):
                # a solution of A^T A x = v for v in the row space of A
                x = np.zeros(n)
                x[K] = solve(v[K])
                return x

            def pinv_apply(r):
                x = gram_solve(A.T @ r)
                return x - Q @ (Q.T @ x)

            def dual(g):
                return A @ gram_solve(g - Q @ (Q.T @ g))
        else:
            # the rows K of A are independent and span its row space:
            # pinv(A) r = A_K^T (A_K A_K^T)^-1 r_K on the range of A, and the
            # dual point is supported on K
            A_K = A[K]

            def pinv_apply(r):
                return A_K.T @ solve(r[K])

            def dual(g):
                nu = np.zeros(m)
                nu[K] = solve(A_K @ g)
                return nu

    x_ls = pinv_apply(y)
    if fact is not None and m >= n:
        def project(w):
            # x_ls plus the part of w in the null space: no product with A
            return x_ls + Q @ (Q.T @ (w - x_ls))
    else:
        def project(w):
            return w - pinv_apply(A @ w - y)

    infeas = float(np.linalg.norm(A @ x_ls - y))
    if infeas > tol_abs * 10 + tol_rel * (1.0 + float(np.linalg.norm(y))):
        raise ValueError(f"y is not in the range of A (distance {infeas:.3g})")

    def certify(x, nu):
        # nu pulled into the unit ball; the gap against y . nu bounds the
        # suboptimality
        obj = float(np.sum(np.abs(x)))
        corr = float(np.max(np.abs(A.T @ nu), initial=0.0))
        if corr > 1.0:
            nu = nu / corr
        rel_gap = abs(obj - float(y @ nu)) / max(obj, 1e-15)
        feas = float(np.linalg.norm(A @ x - y)) / (1.0 + float(np.linalg.norm(y)))
        return max(rel_gap, feas), obj

    if rank == n:
        # full column rank: x_ls is the only feasible point, and
        # A^T pinv(A^T) sign(x_ls) = sign(x_ls) closes the gap
        kkt, obj = certify(x_ls, dual(np.sign(x_ls)))
        return SolverResult(x_ls, 0, kkt, _tube(A, x_ls, y), obj, kkt <= tol_rel)

    x = x_ls
    z = x.copy()
    u = np.zeros(n)
    scale = max(1.0, float(np.linalg.norm(y)))
    eps = tol_abs * math.sqrt(n) + tol_rel * scale
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        x = project(z - u)
        z_prev = z
        z = _soft(x + u, 1.0 / rho)
        u = u + x - z
        r_primal = float(np.linalg.norm(x - z))
        r_dual = float(rho * np.linalg.norm(z - z_prev))
        if r_primal <= eps and r_dual <= eps:
            kkt, _ = certify(x, dual(rho * u))
            if kkt <= tol_rel:
                converged = True
                break
            # certificate not yet tight: demand smaller residuals
            eps = max(eps * 0.2, 1e-14)
        if it % 10 == 0:
            # support polish: once z has found the optimal support, its
            # exact solution is certified long before the iterates are
            polished = _vertex(A, y, np.flatnonzero(z), dual(rho * u))
            if polished is not None:
                kkt, obj = certify(*polished)
                if kkt <= tol_rel:
                    x_p = polished[0]
                    return SolverResult(x_p, it, kkt, _tube(A, x_p, y), obj, True)
        if it % 100 == 0:
            # residual balancing keeps the two residuals comparable; changing
            # rho at every polish instead stalls degenerate systems
            if r_primal > 10.0 * r_dual:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_primal:
                rho /= 2.0
                u *= 2.0

    kkt, obj = certify(x, dual(rho * u))
    return SolverResult(x, it, kkt, _tube(A, x, y), obj, converged)


def lasso(A, y, lam_sigma: float, tol_abs: float = ABS_TOL, tol_rel: float = REL_TOL,
          max_iter: int = MAX_ITER, track_objective: bool = False) -> SolverResult:
    """Minimize (1/2)||A x - y||_2^2 + lam_sigma ||x||_1.

    FISTA with step 1/L and gradient-based adaptive restart. L = ||A||^2
    is the top eigenvalue of the smaller Gram matrix, A^T A when m >= n
    and A A^T otherwise; a tall A also takes its gradients and KKT checks
    as (A^T A) v, so an iteration costs n^2 rather than 2 m n. The
    subgradient conditions are the stopping rule: off the
    support |[A^T(y - A x)]_i| <= lam_sigma, on the support the
    correlation equals lam_sigma sign(x_i). When ||A^T y||_inf <=
    lam_sigma those conditions hold at x = 0, which is returned exactly
    with zero iterations.
    """
    A = _real_matrix(A)
    m, n = A.shape
    y = _real_vector(y, m)
    gamma = float(lam_sigma)
    if not gamma >= 0.0:
        raise ValueError("lam_sigma must be nonnegative")

    Aty = A.T @ y
    tube0 = float(np.max(np.abs(Aty), initial=0.0))
    if tube0 <= gamma:
        return SolverResult(np.zeros(n), 0, 0.0, tube0, 0.5 * float(y @ y), True)
    # ||A||^2 is the top eigenvalue of the smaller Gram matrix; a tall A
    # also takes its gradients through the n x n one
    G = A.T @ A if m >= n else A @ A.T
    step = 1.0 / float(np.linalg.eigvalsh(G)[-1])

    def normal(v):
        # A^T A v
        return G @ v if m >= n else A.T @ (A @ v)

    def objective(v):
        r = A @ v - y
        return 0.5 * float(r @ r) + gamma * float(np.sum(np.abs(v)))

    def kkt_violation(v):
        g = Aty - normal(v)
        on = v != 0.0
        off_excess = float(max(0.0, np.max(np.abs(g[~on])) - gamma)) if np.any(~on) else 0.0
        on_mismatch = float(np.max(np.abs(g[on] - gamma * np.sign(v[on])))) if np.any(on) else 0.0
        return max(off_excess, on_mismatch)

    tol_kkt = tol_abs + tol_rel * max(gamma, float(np.max(np.abs(Aty))), 1.0)
    x = np.zeros(n)
    w = x.copy()
    t = 1.0
    history = [objective(x)] if track_objective else []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        grad = normal(w) - Aty
        x_next = _soft(w - step * grad, step * gamma)
        # restart when the momentum direction opposes the gradient mapping
        if float((w - x_next) @ (x_next - x)) > 0.0:
            t = 1.0
            w = x.copy()
            if track_objective:
                history.append(objective(x))
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
        if it % 10 == 0 and kkt_violation(x) <= tol_kkt:
            converged = True
            break

    kkt = kkt_violation(x)
    converged = converged or kkt <= tol_kkt
    if track_objective:
        history.append(objective(x))
    return SolverResult(x, it, kkt, _tube(A, x, y), objective(x), converged,
                        tuple(history))


def dantzig(A, y, lam_sigma: float, tol_abs: float = ABS_TOL, tol_rel: float = REL_TOL,
            max_iter: int = MAX_ITER, rho: float = 1.0) -> SolverResult:
    """Minimize ||x||_1 subject to ||A^T(A x - y)||_inf <= lam_sigma.

    Two-block ADMM on the splitting z1 = x (l1 term) and z2 = M x with
    M = A^T A (box constraint around c = A^T y). The one factorization is
    the eigen-decomposition M = V diag(ev) V^T: the x-update applies
    (I + M^2)^{-1} through it, and the least-squares point is
    x_ls = pinv(A) y = V (V^T c) / ev on the eigenvalues above
    max(m, n) eps ev_max. When lam_sigma > 0 and ||A^T y||_inf <=
    lam_sigma, x = 0 is feasible with l1 norm 0 and is returned exactly
    with zero iterations. The feasible set is never empty: x_ls zeroes the
    constraint to rounding, and a final blend toward x_ls enforces
    feasibility at the stated absolute tolerance. A scaled dual point
    kappa certifies optimality through the gap
    ||x||_1 + c . kappa + lam_sigma ||kappa||_1.

    Every 20 iterations _vertex polishes on the support of z1 and the rows
    I where z2 sits on the box, held as M[I] x = c_I + lam_sigma sigma_I
    with sigma_I the side of each; kappa_I is minus its dual point, and
    the vertex is returned once the same certificate passes it.
    """
    A = _real_matrix(A)
    m, n = A.shape
    y = _real_vector(y, m)
    gamma = float(lam_sigma)
    if not gamma >= 0.0:
        raise ValueError("lam_sigma must be nonnegative")

    c = A.T @ y
    tube0 = float(np.max(np.abs(c), initial=0.0))
    if gamma > 0.0 and tube0 <= gamma:
        return SolverResult(np.zeros(n), 0, 0.0, tube0, 0.0, True)

    M = A.T @ A
    ev, V = np.linalg.eigh(M)
    # x_ls = pinv(A) y from the same eigenpairs, on the eigenvalues above
    # the cut (ascending, so the dropped ones are a prefix); M x_ls = c then
    # holds to rounding, since c = A^T y has no component along the null
    # space of A
    k = int(np.count_nonzero(ev <= _rank_cut(A) * np.max(ev, initial=0.0)))
    x_ls = V[:, k:] @ ((V[:, k:].T @ c) / ev[k:])

    if gamma == 0.0:
        # the polytope collapses onto the normal equations
        obj = float(np.sum(np.abs(x_ls)))
        return SolverResult(x_ls, 0, 0.0, _tube(A, x_ls, y), obj, True)

    lo, hi = c - gamma, c + gamma
    w = 1.0 / (1.0 + ev * ev)

    def x_solve(rhs):
        # (I + M^2)^{-1} rhs
        return V @ (w * (V.T @ rhs))

    def blend(x):
        # blend toward x_ls until the constraint holds strictly; the
        # constraint value shrinks linearly in the blend and the l1 cost
        # moves by O(violation), negligible at convergence
        viol = float(np.max(np.abs(M @ x - c)))
        if viol <= gamma:
            return x
        theta = 1.0 - (gamma / viol) * (1.0 - 1e-12)
        return (1.0 - theta) * x + theta * x_ls

    def certify(x, kappa):
        obj = float(np.sum(np.abs(x)))
        best_gap = math.inf
        for cand in (kappa, -kappa):
            corr = float(np.max(np.abs(M @ cand)))
            if corr > 1.0:
                cand = cand / corr
            gap = obj + float(c @ cand) + gamma * float(np.sum(np.abs(cand)))
            best_gap = min(best_gap, abs(gap))
        rel_gap = best_gap / max(obj, 1e-15)
        feas = max(0.0, float(np.max(np.abs(M @ x - c))) - gamma) / max(gamma, 1.0)
        return max(rel_gap, feas), obj

    x = x_ls.copy()
    z1, z2 = x.copy(), M @ x
    u1, u2 = np.zeros(n), np.zeros(n)
    eps = tol_abs * math.sqrt(2 * n) + tol_rel * max(1.0, float(np.linalg.norm(c)))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        x = x_solve((z1 - u1) + M @ (z2 - u2))
        Mx = M @ x
        z1_prev, z2_prev = z1, z2
        z1 = _soft(x + u1, 1.0 / rho)
        z2 = np.clip(Mx + u2, lo, hi)
        u1 = u1 + x - z1
        u2 = u2 + Mx - z2
        r_primal = math.hypot(float(np.linalg.norm(x - z1)), float(np.linalg.norm(Mx - z2)))
        r_dual = rho * math.hypot(float(np.linalg.norm(z1 - z1_prev)),
                                  float(np.linalg.norm(M @ (z2 - z2_prev))))
        if r_primal <= eps and r_dual <= eps:
            kkt, _ = certify(blend(x), rho * u2)
            if kkt <= tol_rel:
                converged = True
                break
            eps = max(eps * 0.2, 1e-14)
        if it % 20 == 0:
            # vertex polish: once the iterate has found the active set, its
            # exact vertex is certified long before the iterates are
            on_hi = z2 == hi
            I = np.flatnonzero(on_hi | (z2 == lo))
            side = np.where(on_hi[I], 1.0, -1.0)
            polished = _vertex(M[I], c[I] + gamma * side, np.flatnonzero(z1), np.zeros(I.size))
            if polished is not None:
                x_p, lam = polished
                kappa = np.zeros(n)
                kappa[I] = -lam
                kkt, obj = certify(x_p, kappa)
                if kkt <= tol_rel:
                    return SolverResult(x_p, it, kkt, _tube(A, x_p, y), obj, True)
        if it % 100 == 0:
            if r_primal > 10.0 * r_dual:
                rho *= 2.0
                u1 /= 2.0
                u2 /= 2.0
            elif r_dual > 10.0 * r_primal:
                rho /= 2.0
                u1 *= 2.0
                u2 *= 2.0

    x = blend(x)
    kkt, obj = certify(x, rho * u2)
    return SolverResult(x, it, kkt, _tube(A, x, y), obj, converged)


@dataclass(frozen=True)
class ErrorBoundInputs:
    """Everything the theoretical error shapes consume.

    s is the sparsity cap: the bounds minimize over 1 <= k <= s, and the
    caller owns the responsibility that m supports sparsity s (the
    admissibility constant tying m to mu s log n is unnamed in the
    theory, so it is not inverted here). beta is the confidence
    parameter; mu is recorded for provenance and admissibility checks.
    """

    s: int
    m: int
    n: int
    sigma: float
    mu: float
    beta: float
    x: np.ndarray

    def __post_init__(self):
        x = as_signal(self.x)
        object.__setattr__(self, "x", x)
        if not (1 <= self.s <= self.n):
            raise ValueError("need 1 <= s <= n")
        if self.n != x.size:
            raise ValueError("x must have length n")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not (self.mu >= 1.0):
            raise ValueError("mu is always >= 1")
        if not (self.beta > 0):
            raise ValueError("beta must be positive")


def alpha_factor(s: int, m: int, n: int, beta: float) -> float:
    """sqrt((1 + beta) s log^5 n / m); stays below log^2 n whenever
    m >= (1 + beta) s log n."""
    return math.sqrt((1.0 + beta) * s * math.log(n) ** 5 / m)


def _bound(inputs: ErrorBoundInputs, program: str, C: float, flavor: str) -> float:
    if program not in ("lasso", "dantzig"):
        raise ValueError("program must be 'lasso' or 'dantzig'")
    logn = math.log(inputs.n)
    best = math.inf
    for k in range(1, inputs.s + 1):
        miss = float(np.sum(np.abs(inputs.x - best_s_approx(inputs.x, k))))
        a = alpha_factor(k, inputs.m, inputs.n, inputs.beta)
        amp = 1.0 + (a * a if program == "dantzig" else a)
        if flavor == "l2":
            val = C * amp * (miss / math.sqrt(k) + inputs.sigma * math.sqrt(k * logn / inputs.m))
        else:
            val = C * amp * (miss + k * inputs.sigma * math.sqrt(logn / inputs.m))
        best = min(best, val)
    return best


def l2_error_bound(inputs: ErrorBoundInputs, program: str, C: float = 1.0) -> float:
    """min over k <= s of C (1 + alpha) [||x - x_k||_1 / sqrt k + sigma sqrt(k log n / m)].

    Dantzig swaps (1 + alpha) for (1 + alpha^2). C defaults to 1: these
    are shape references, not certified envelopes.
    """
    return _bound(inputs, program, C, "l2")


def l1_error_bound(inputs: ErrorBoundInputs, program: str, C: float = 1.0) -> float:
    """min over k <= s of C (1 + alpha) [||x - x_k||_1 + k sigma sqrt(log n / m)]."""
    return _bound(inputs, program, C, "l1")

