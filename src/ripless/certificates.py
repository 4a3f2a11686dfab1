"""Inexact dual certificates by the golfing scheme.

The certificate for support T with signs sgn(x_T) is built iteratively:
independent row batches drive the residual q_i = sgn(x_T) - v_{i,T}
toward zero by a contraction factor per batch, while the off-support
part of v accumulates increments kept small by a per-batch infinity-norm
test. Batches failing either test are thrown away and redrawn, up to a
resampling budget; exhausting the budget is an observable failure, not
an exception, because experiments need failure frequencies.

Success is decided only by the final certificate conditions
||v_T - sgn(x_T)||_2 <= 1/4 and ||v_{T^c}||_inf <= 1/4; the per-batch
tests are the filter that makes them likely. The full-scale analysis
sizes batches so the per-batch tests pass outright, but those constants
(hundreds of rows per coordinate of support) are useless on a desk. The
default schedule here keeps the contraction targets, front-loads the
batch sizes toward the early stages where the residual is largest, and
floors each infinity-norm target at 4.2 / sqrt(m_i), the scale of the
test statistic's own null fluctuation, so acceptance odds stay sane at
small m while the stated targets take over again at full-scale sizes.

Certificates are always of the form v = A* w, where A stacks every
sampled row (accepted and rejected batches alike, in draw order) and w
is supported on the accepted rows only. Rejected rows therefore count
toward the reported measurement total: discarding information you have
already paid for is still paying for it.

For complex ensembles certifying a real signal, Re(v) together with the
realified rows certifies the realified program, since taking real parts
commutes with A* w; nothing extra is needed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MeasurementMatrix, SupportSet, matrix_rows
from .ensembles import EnsembleSpec, sample_rows

__all__ = [
    "GolfingConfig",
    "BatchOutcome",
    "DualCertificate",
    "default_batch_count",
    "default_config",
    "config_from_total",
    "golfing_scheme",
    "InexactDualityReport",
    "verify_inexact_duality",
    "least_squares_dual",
]

# Smallest batch worth testing: below this the acceptance statistics are
# dominated by their own noise and the resampling loop just spins.
MIN_BATCH_ROWS = 36


def default_batch_count(s: int) -> int:
    """Number of required batches, ceil(log2(s)/2) + 2; two when s = 1."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return math.ceil(math.log2(s) / 2) + 2 if s > 1 else 2


def _contraction_schedule(n: int, ell: int) -> tuple:
    # First stage does the heavy lifting (factor 1/(2 sqrt(log n)));
    # later stages halve. Telescoping gives ||q_ell|| <= sqrt(s)/2^ell.
    c1 = 1.0 / (2.0 * math.sqrt(math.log(n)))
    return (c1,) + (0.5,) * (ell - 1)


def _infnorm_schedule(n: int, s: int, ell: int, batch_sizes) -> tuple:
    base = 1.0 / (8.0 * math.sqrt(s))
    late = math.log(n) / (8.0 * math.sqrt(s))
    stated = (base, base) + (late,) * (ell - 2)
    return tuple(
        max(stated[i], 4.2 / math.sqrt(batch_sizes[i])) for i in range(ell)
    )


@dataclass(frozen=True)
class GolfingConfig:
    """Batch schedule for one golfing run.

    Parameters
    ----------
    ell : int
        Required number of accepted batches.
    batch_sizes : tuple of int
        Rows drawn per batch, one entry per stage.
    contraction_targets : tuple of float
        c_i: stage i accepts only if ||q_i|| <= c_i ||q_{i-1}||.
    infnorm_targets : tuple of float
        t_i: stage i accepts only if the off-support increment satisfies
        ||(1/m_i) sum_k a_k,T^c <a_k,T, q>||_inf <= t_i ||q_{i-1}||.
    max_extra_batches : int
        Total rejected batches tolerated before giving up.
    """

    ell: int
    batch_sizes: tuple
    contraction_targets: tuple
    infnorm_targets: tuple
    max_extra_batches: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        for name in ("batch_sizes", "contraction_targets", "infnorm_targets"):
            value = tuple(getattr(self, name))
            if len(value) != self.ell:
                raise ValueError(f"{name} must have exactly ell = {self.ell} entries")
            object.__setattr__(self, name, value)
        if any(int(b) != b or b < 1 for b in self.batch_sizes):
            raise ValueError("batch sizes must be positive integers")
        object.__setattr__(self, "batch_sizes", tuple(int(b) for b in self.batch_sizes))
        if any(not (c > 0.0) for c in self.contraction_targets):
            raise ValueError("contraction targets must be positive")
        if any(not (t > 0.0) for t in self.infnorm_targets):
            raise ValueError("infinity-norm targets must be positive")
        if self.max_extra_batches < 0:
            raise ValueError("max_extra_batches must be >= 0")

    @property
    def total_rows(self) -> int:
        """Configured rows if every batch is accepted first try."""
        return int(sum(self.batch_sizes))


def config_from_total(n: int, s: int, m_total: int,
                      min_batch: int = MIN_BATCH_ROWS) -> GolfingConfig:
    """Split a row budget into the default front-loaded schedule.

    Stage i receives a share proportional to prod_{j<i} c_j, the expected
    residual norm entering that stage, with a floor of `min_batch` rows.
    The configured total never exceeds m_total.
    """
    if n < 3:
        raise ValueError("need n >= 3 so the contraction schedule is < 1/2")
    ell = default_batch_count(s)
    if m_total < min_batch * ell:
        raise ValueError(
            f"m_total = {m_total} cannot hold {ell} batches of >= {min_batch} rows"
        )
    c = _contraction_schedule(n, ell)
    weights = np.cumprod((1.0,) + c[:-1])
    shares = weights / weights.sum()
    sizes = [max(min_batch, int(m_total * share)) for share in shares]
    while sum(sizes) > m_total:
        # flooring small stages up can overshoot; shave the largest stage
        sizes[int(np.argmax(sizes))] -= 1
    sizes = tuple(sizes)
    return GolfingConfig(
        ell=ell,
        batch_sizes=sizes,
        contraction_targets=c,
        infnorm_targets=_infnorm_schedule(n, s, ell, sizes),
        max_extra_batches=3 * math.ceil(math.log(n)) + 1,
    )


def default_config(n: int, s: int, mu: float, prefactor: float = 2.0) -> GolfingConfig:
    """Default schedule with a caller-scalable row budget.

    The budget is floor(prefactor * 20 * s * mu * log n) rows, so the
    default prefactor of 2 spends 40 s mu log n. This replaces the
    full-scale analysis' per-batch constant (about 35 (1 + log 4 + beta)
    with a union-bound sizing on top); at desk scale the acceptance tests
    plus resampling supply the correctness the huge constants were buying.
    """
    if mu < 1.0:
        raise ValueError("coherence mu is >= 1 for isotropic ensembles")
    if prefactor <= 0.0:
        raise ValueError("prefactor must be positive")
    budget = int(prefactor * 20.0 * s * mu * math.log(n))
    return config_from_total(n, s, budget)


@dataclass(frozen=True)
class BatchOutcome:
    """One sampled batch: which stage it aimed at and whether it was kept."""

    stage: int
    size: int
    accepted: bool


@dataclass(frozen=True)
class DualCertificate:
    """Golfing output: v = A* w plus the run's full history.

    `matrix` stacks every sampled row in draw order, normalized by the
    total row count m_total (rejected batches included); `w` is zero on
    rejected rows. `q_norms` starts at ||q_0|| = sqrt(s) and appends one
    entry per accepted batch. `success` reflects the final certificate
    conditions, not merely batch acceptance.
    """

    v: np.ndarray
    w: np.ndarray
    q_norms: tuple
    batch_log: tuple
    success: bool
    matrix: MeasurementMatrix
    m_total: int

    def __post_init__(self):
        v = np.asarray(self.v)
        w = np.asarray(self.w)
        if v.ndim != 1 or w.ndim != 1:
            raise ValueError("v and w must be vectors")
        if self.m_total != w.size or self.m_total != self.matrix.m:
            raise ValueError("w and the stacked matrix must cover all m_total rows")
        if v.size != self.matrix.n:
            raise ValueError("v must have the matrix's column dimension")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q_norms", tuple(float(x) for x in self.q_norms))
        object.__setattr__(self, "batch_log", tuple(self.batch_log))

    @property
    def batches_used(self) -> int:
        return len(self.batch_log)

    def reconstruction_residual(self) -> float:
        """||A* w - v||_2; construction keeps this at rounding error."""
        return float(np.linalg.norm(self.matrix.rows.conj().T @ self.w - self.v))


def _support_indices(T, n: int) -> np.ndarray:
    if isinstance(T, SupportSet):
        if T.n != n:
            raise ValueError(f"support is over dimension {T.n}, matrix has n = {n}")
        return T.to_array()
    idx = np.asarray(T, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("support must be a nonempty 1-d index collection")
    if np.any(idx < 0) or np.any(idx >= n) or np.any(np.diff(np.sort(idx)) == 0):
        raise ValueError("support indices must be distinct and within [0, n)")
    return np.sort(idx)


def _unit_signs(values, what: str) -> np.ndarray:
    values = np.asarray(values)
    mods = np.abs(values)
    if np.any(mods == 0.0):
        raise ValueError(f"{what} must be nonzero on the support")
    return values / mods


def golfing_scheme(spec: EnsembleSpec, T, sign_pattern, config: GolfingConfig,
                   rng=None) -> DualCertificate:
    """Run the golfing construction for support T under the given schedule.

    Parameters
    ----------
    spec : EnsembleSpec
        Row distribution; batches are drawn lazily from it, which is what
        lets rejected batches be replaced by genuinely fresh rows.
    T : SupportSet or index array
        Support of the signal being certified, size s >= 1.
    sign_pattern : (n,) array
        sgn(x): unit modulus on T, zero elsewhere. Magnitudes of x are
        never read.
    config : GolfingConfig
    rng : seed or Generator, optional

    Returns
    -------
    DualCertificate
        With success=False and a partial log when the resampling budget
        runs out; no exception is raised for that outcome.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = spec.n
    t_idx = _support_indices(T, n)
    signs = np.asarray(sign_pattern)
    if signs.shape != (n,):
        raise ValueError(f"sign pattern must have shape ({n},)")
    off_mask = np.ones(n, dtype=bool)
    off_mask[t_idx] = False
    if np.any(np.abs(signs[off_mask]) > 1e-12):
        raise ValueError("sign pattern must vanish off the support")
    q = _unit_signs(signs[t_idx], "sign pattern")

    raw_batches = []
    w_chunks = []
    log = []
    q_norms = [float(np.linalg.norm(q))]
    v = None
    stage = 1
    rejects = 0
    while stage <= config.ell:
        size = config.batch_sizes[stage - 1]
        raw = sample_rows(spec, size, rng)
        raw_batches.append(raw)
        # increment = (1/m_i) sum_k a_k <a_k,T, q>; its T part advances q,
        # its T^c part feeds v off-support
        corr = raw[:, t_idx].conj() @ q
        increment = raw.T @ corr / size
        q_next = q - increment[t_idx]
        q_norm = q_norms[-1]
        off_part = increment[off_mask]
        off_peak = float(np.max(np.abs(off_part))) if off_part.size else 0.0
        accepted = (
            float(np.linalg.norm(q_next)) <= config.contraction_targets[stage - 1] * q_norm
            and off_peak <= config.infnorm_targets[stage - 1] * q_norm
        )
        log.append(BatchOutcome(stage=stage, size=size, accepted=accepted))
        if accepted:
            v = increment if v is None else v + increment
            w_chunks.append(corr / size)
            q = q_next
            q_norms.append(float(np.linalg.norm(q)))
            stage += 1
        else:
            w_chunks.append(None)
            rejects += 1
            if rejects > config.max_extra_batches:
                break

    all_raw = np.vstack(raw_batches)
    m_total = all_raw.shape[0]
    matrix = MeasurementMatrix(
        np.conj(all_raw) / math.sqrt(m_total), ensemble=spec.family, seed=None
    )
    if v is None:
        v = np.zeros(n, dtype=all_raw.dtype)
    # v = A* w needs w_k = sqrt(m_total) <a_k,T, q_{i-1}> / m_i on accepted rows
    w = np.zeros(m_total, dtype=v.dtype)
    offset = 0
    for entry, chunk in zip(log, w_chunks):
        if chunk is not None:
            w[offset:offset + entry.size] = math.sqrt(m_total) * chunk
        offset += entry.size

    completed = stage > config.ell
    success = bool(
        completed
        and float(np.linalg.norm(v[t_idx] - signs[t_idx])) <= 0.25
        and (not np.any(off_mask) or float(np.max(np.abs(v[off_mask]))) <= 0.25)
    )
    return DualCertificate(
        v=v,
        w=w,
        q_norms=tuple(q_norms),
        batch_log=tuple(log),
        success=success,
        matrix=matrix,
        m_total=m_total,
    )


@dataclass(frozen=True)
class InexactDualityReport:
    """The four inexact duality conditions with their margins.

    Conditions: ||(A_T* A_T)^{-1}|| <= 2, max_{i in T^c} ||A_T* A_i|| <= 1,
    ||v_T - sgn(x_T)||_2 <= 1/4, ||v_{T^c}||_inf <= 1/4. A margin is the
    threshold minus the measured value; passing means every margin >= 0.
    """

    passed: bool
    gram_inverse_norm: float
    cross_column_max: float
    sign_gap: float
    off_support_max: float

    @property
    def inverse_margin(self) -> float:
        return 2.0 - self.gram_inverse_norm

    @property
    def cross_margin(self) -> float:
        return 1.0 - self.cross_column_max

    @property
    def sign_margin(self) -> float:
        return 0.25 - self.sign_gap

    @property
    def off_margin(self) -> float:
        return 0.25 - self.off_support_max

    def margins(self) -> dict:
        return {
            "gram_inverse": self.inverse_margin,
            "cross_column": self.cross_margin,
            "sign_gap": self.sign_margin,
            "off_support": self.off_margin,
        }


def verify_inexact_duality(cert, A, T, x) -> InexactDualityReport:
    """Evaluate all four inexact duality conditions for cert (or a bare v)."""
    A = matrix_rows(A)
    n = A.shape[1]
    t_idx = _support_indices(T, n)
    v = np.asarray(getattr(cert, "v", cert))
    if v.shape != (n,):
        raise ValueError(f"v must have shape ({n},)")
    x = np.asarray(x)
    signs = _unit_signs(x[t_idx], "x")

    # one s x n product A_T* A holds the Gram matrix on T and the cross
    # products; off-support columns are masked on it, never cut from A
    cross = A[:, t_idx].conj().T @ A
    eigs = np.linalg.eigvalsh(cross[:, t_idx])
    inverse_norm = float(1.0 / eigs[0]) if eigs[0] > 0.0 else float("inf")
    off_mask = np.ones(n, dtype=bool)
    off_mask[t_idx] = False
    col_norms = np.linalg.norm(cross, axis=0)[off_mask]
    cross_max = float(np.max(col_norms)) if col_norms.size else 0.0
    sign_gap = float(np.linalg.norm(v[t_idx] - signs))
    off_peak = float(np.max(np.abs(v[off_mask]))) if np.any(off_mask) else 0.0

    passed = (
        inverse_norm <= 2.0 and cross_max <= 1.0
        and sign_gap <= 0.25 and off_peak <= 0.25
    )
    return InexactDualityReport(passed, inverse_norm, cross_max, sign_gap, off_peak)


def least_squares_dual(A, T, x):
    """Exact dual candidate by the pseudo-inverse formula.

    Returns (v, w) with w = A_T (A_T* A_T)^{-1} sgn(x_T) of minimum norm
    and v = A* w, so v_T = sgn(x_T) holds by construction and only the
    off-support bound remains to check.
    """
    A = matrix_rows(A)
    n = A.shape[1]
    t_idx = _support_indices(T, n)
    signs = _unit_signs(np.asarray(x)[t_idx], "x")
    at_herm = A[:, t_idx].conj().T
    smallest = float(np.linalg.svd(at_herm, compute_uv=False)[-1])
    if smallest <= 1e-10:
        raise ValueError("A_T is rank-deficient; no exact dual exists on T")
    w = np.linalg.lstsq(at_herm, signs, rcond=None)[0]
    return A.conj().T @ w, w

