"""Tail-bound calculators and their Monte Carlo validators.

Four concentration estimates drive the recovery analysis: local isometry
on the support (E1), low distortion of a fixed vector (E2), off-support
incoherence (E3), and its uniform variant (E4). Each has a closed-form
tail probability here, plus an empirical validator that replays the
underlying random event and checks the observed failure frequency against
the bound. The module also houses the weak-RIP empirical check, an exact
small-scale RIP oracle, and the noise-correlation threshold.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .core import SupportSet, matrix_rows, max_column_norm
from .ensembles import EnsembleSpec, deterministic_coherence, sample_rows

__all__ = [
    "TailBoundQuery",
    "EmpiricalReport",
    "OutOfStatedRangeWarning",
    "e1_tail",
    "e2_tail",
    "e3_tail",
    "e4_tail",
    "tail_value",
    "empirical_estimate",
    "WeakRipResult",
    "weak_rip_empirical",
    "rip_constant_exact",
    "NoiseCorrelationCheck",
    "noise_correlation_bound",
    "clopper_pearson",
]

ESTIMATES = ("E1", "E2", "E3", "E4")


class OutOfStatedRangeWarning(UserWarning):
    """Deviation level outside the range the bound is stated for."""


@dataclass(frozen=True)
class TailBoundQuery:
    """Parameters of one tail-bound evaluation.

    Parameters
    ----------
    m, s, n : int
        Measurement count, support size, ambient dimension; 1 <= s <= n.
    mu : float
        Coherence of the ensemble, >= 1.
    level : float
        Deviation level, delta for E1 and t for E2/E3/E4. Zero is
        accepted so the clamp-to-one endpoint is reachable; positive
        levels are the meaningful regime.
    which : str
        One of "E1", "E2", "E3", "E4".
    """

    m: int
    s: int
    n: int
    mu: float
    level: float
    which: str

    def __post_init__(self):
        if self.which not in ESTIMATES:
            raise ValueError(f"which must be one of {ESTIMATES}, got {self.which!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (1 <= self.s <= self.n):
            raise ValueError("need 1 <= s <= n")
        if not (self.mu >= 1.0):
            raise ValueError("coherence mu is always >= 1")
        if not (self.level >= 0.0):
            raise ValueError("deviation level must be nonnegative")


def e1_tail(q: TailBoundQuery) -> float:
    """Tail of ||A_T* A_T - I|| >= delta over a fixed size-s support T."""
    if q.which != "E1":
        raise ValueError("query is not an E1 query")
    d = q.level
    if d == 0.0:
        return 1.0
    expo = -(q.m / (q.mu * q.s)) * d * d / (2.0 * (1.0 + d / 3.0))
    return min(1.0, 2.0 * q.s * math.exp(expo))


def e2_tail(q: TailBoundQuery) -> float:
    """Tail of ||((A*A - I) v)_T|| >= t ||v|| for one fixed v on T.

    The distortion is measured on the support: the bound carries no
    ambient-dimension term, and indeed the unrestricted norm picks up
    off-support mass of mean square (n-1)/m ||v||^2 for flat rows, which
    no n-free bound can dominate. The s-dimensional restriction is also
    the quantity the golfing contraction consumes.

    Stated for t <= 1/2 only; larger t raises OutOfStatedRangeWarning and
    evaluates the same formula. Returns 1 until t sqrt(m/(mu s)) clears 1,
    where the exponent would turn favorable.
    """
    if q.which != "E2":
        raise ValueError("query is not an E2 query")
    if q.level > 0.5:
        warnings.warn("E2 bound is stated for t <= 1/2 only", OutOfStatedRangeWarning,
                      stacklevel=2)
    z = q.level * math.sqrt(q.m / (q.mu * q.s))
    if z < 1.0:
        return 1.0
    return min(1.0, math.exp(-0.25 * (z - 1.0) ** 2))


def e3_tail(q: TailBoundQuery) -> float:
    """Tail of ||A_{T^c}* A v||_inf >= t ||v|| for one fixed v on T."""
    if q.which != "E3":
        raise ValueError("query is not an E3 query")
    t = q.level
    if t == 0.0:
        return 1.0
    expo = -(q.m / (2.0 * q.mu)) * t * t / (1.0 + math.sqrt(q.s) * t / 3.0)
    return min(1.0, 2.0 * q.n * math.exp(expo))


def e4_tail(q: TailBoundQuery) -> float:
    """Tail of max_{i not in T} ||A_T* A_i|| >= t, valid on 0 <= t <= sqrt s."""
    if q.which != "E4":
        raise ValueError("query is not an E4 query")
    t = q.level
    if t > math.sqrt(q.s):
        raise ValueError("E4 is stated for t <= sqrt(s)")
    return min(1.0, q.n * math.exp(-q.m * t * t / (8.0 * q.mu * q.s) + 0.25))


_TAILS = {"E1": e1_tail, "E2": e2_tail, "E3": e3_tail, "E4": e4_tail}


def tail_value(q: TailBoundQuery) -> float:
    """Dispatch to the tail function named by q.which."""
    return _TAILS[q.which](q)


def clopper_pearson(failures: int, trials: int):
    """Exact 95% binomial confidence interval (lower, upper) for a rate.

    Chosen over the normal approximation because validator failure
    counts are frequently zero.
    """
    if not (0 <= failures <= trials) or trials < 1:
        raise ValueError("need 0 <= failures <= trials, trials >= 1")
    # computed, not the literal 0.05, which is another float
    alpha = 1.0 - 0.95
    # betaincinv(a, b, q) is the beta(a, b) quantile: the same values as
    # scipy.stats.beta.ppf, without the import cost of scipy.stats
    lo = 0.0 if failures == 0 else float(betaincinv(failures, trials - failures + 1, alpha / 2.0))
    hi = 1.0 if failures == trials else float(betaincinv(failures + 1, trials - failures, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class EmpiricalReport:
    """Monte Carlo failure count against a theoretical tail bound.

    `passed` applies the one-sided rule: the 95% Clopper-Pearson lower
    confidence bound on the failure rate must not exceed the theoretical
    bound. The bounds are proven upper bounds, so a significant
    exceedance indicates a bug, while rates far below the bound are
    expected and fine.
    """

    trials: int
    failures: int
    empirical_rate: float
    theoretical_bound: float
    ci_upper: float
    ci_lower: float

    def __post_init__(self):
        if not (0 <= self.failures <= self.trials):
            raise ValueError("failures must lie in [0, trials]")
        if not math.isclose(self.empirical_rate, self.failures / self.trials,
                            rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("empirical_rate must equal failures/trials")

    @property
    def passed(self) -> bool:
        return self.ci_lower <= self.theoretical_bound

    @staticmethod
    def from_counts(failures: int, trials: int, bound: float) -> "EmpiricalReport":
        lo, hi = clopper_pearson(failures, trials)
        return EmpiricalReport(trials, failures, failures / trials, bound, hi, lo)


def _conj(x):
    """conj(x) for complex x; real x is returned as it is, not copied."""
    return np.conj(x) if np.iscomplexobj(x) else x


def _event_statistic(which, spec, m, support, v, rng) -> float:
    """The statistic of one E1-E4 event, from one fresh draw of raw rows.

    E1 and E4 happen when it reaches the level; E2 and E3 when it reaches
    level * ||v||.
    """
    # A = conj(raw)/sqrt(m) is never formed. With v real, A* A v =
    # raw^T conj(raw v)/m and A_T* A = conj(raw_T* raw)/m, so each statistic
    # is a small product of raw with itself, divided by m afterwards, with
    # conj taken on the small factor for complex families only. Off-support
    # columns are masked on the s x n or length-n result, never cut from the
    # m x n draw.
    if which in ("E1", "E2"):
        idx = support.to_array()
        raw = sample_rows(spec, m, rng, cols=idx)  # the statistic lives on T
        if which == "E1":
            G = (raw.T @ _conj(raw)) / m
            return float(np.max(np.abs(np.linalg.eigvalsh(G - np.eye(idx.size)))))
        vt = v[idx]
        return float(np.linalg.norm((raw.T @ _conj(raw @ vt)) / m - vt))
    raw = sample_rows(spec, m, rng)
    off = np.ones(spec.n, dtype=bool)
    off[support.to_array()] = False
    if not off.any():
        return 0.0
    if which == "E3":
        return float(np.max(np.abs(raw.T @ _conj(raw @ v))[off])) / m
    if which == "E4":
        cross = (_conj(raw[:, support.to_array()]).T @ raw) / m
        return float(np.sqrt(np.max(np.sum(np.abs(cross) ** 2, axis=0)[off])))
    raise AssertionError(which)


# Tie rule: a statistic within this relative margin below its threshold
# reaches it. Lattice-valued rows (coordinate sampling, binary) give
# statistics that equal the level in exact arithmetic, and those events
# occur whatever the order of the floating-point operations.
_TIE_MARGIN = 1e-9


def _event_occurs(which, spec, m, support, v, level, rng) -> bool:
    stat = _event_statistic(which, spec, m, support, v, rng)
    threshold = level * float(np.linalg.norm(v)) if which in ("E2", "E3") else level
    return stat >= threshold * (1.0 - _TIE_MARGIN)


def empirical_estimate(which: str, spec: EnsembleSpec, m: int, target, level: float,
                       trials: int, rng=None, mu: float | None = None,
                       threads: int = 1) -> EmpiricalReport:
    """Replay one estimate's random event and compare against its bound.

    Each trial draws fresh raw rows and evaluates the event's exact
    statistic straight from that draw: small products of the rows with
    themselves, scaled by 1/m afterwards, with no normalized copy of the
    m x n matrix.

    Parameters
    ----------
    which : str
        "E1" or "E4" take a SupportSet `target`; "E2" and "E3" take the
        fixed vector v itself, with T read off its nonzeros.
    spec : EnsembleSpec
        Row distribution to draw fresh matrices from.
    m, level, trials : int, float, int
        Rows per draw, deviation level (delta for E1, t otherwise), and
        Monte Carlo repetitions.
    rng : seed or Generator, optional
    mu : float, optional
        Coherence for the theoretical bound. Defaults to the family's
        deterministic coherence; mandatory for the gaussian family.
    threads : int
        Trials are independent with split RNG streams and merge by exact
        counting, so the result is identical at any thread count.
    """
    which = which.upper()
    if which not in ESTIMATES:
        raise ValueError(f"which must be one of {ESTIMATES}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")

    if which in ("E2", "E3"):
        if isinstance(target, SupportSet):
            raise ValueError("E2/E3 need the fixed vector v, not a support")
        v = np.asarray(target, dtype=float)
        if v.ndim != 1 or v.size != spec.n or not np.any(v):
            raise ValueError("E2/E3 need a nonzero length-n vector")
        support = SupportSet.from_signal(v)
    else:
        if not isinstance(target, SupportSet):
            raise ValueError("E1/E4 need a SupportSet target")
        if target.n != spec.n or target.size == 0:
            raise ValueError("support must be nonempty and match spec.n")
        v = None
        support = target

    if mu is None:
        mu = deterministic_coherence(spec)  # raises for gaussian

    q = TailBoundQuery(m=m, s=support.size, n=spec.n, mu=float(mu), level=level, which=which)
    bound = tail_value(q)

    base = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(
        rng if rng is not None else spec.seed)
    streams = base.spawn(trials)

    def one(i):
        return _event_occurs(which, spec, m, support, v, level, streams[i])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            flags = list(pool.map(one, range(trials)))
    else:
        flags = [one(i) for i in range(trials)]
    return EmpiricalReport.from_counts(int(sum(flags)), trials, bound)


@dataclass(frozen=True)
class WeakRipResult:
    """Worst observed deviation over supports T union R with |R| = r.

    `mode` records whether every candidate R was visited ("exhaustive",
    an exact sup) or only a uniform sample ("sampled", a lower-bound
    estimate of the sup: any sampled violation still disproves the
    inequality at that delta).
    """

    deviation: float
    witness: tuple
    delta: float
    mode: str
    candidates_checked: int

    @property
    def satisfied(self) -> bool:
        return self.deviation <= self.delta


EXHAUSTIVE_WEAK_RIP_LIMIT = 100_000


def weak_rip_empirical(A, T, r: int, delta: float, mode: str = "exhaustive",
                       budget: int = 1000, rng=None) -> WeakRipResult:
    """Largest ||A_{T u R}* A_{T u R} - I|| over off-support sets R.

    For unit v supported on T union R, sup |  ||Av||^2 - ||v||^2  | is
    exactly this operator norm, so the two-sided isometry claim at level
    delta holds on the checked family iff the returned deviation is
    <= delta. r = 0 reduces to the on-support deviation of E1.
    """
    A = matrix_rows(A)
    n = A.shape[1]
    T = T if isinstance(T, SupportSet) else SupportSet(tuple(sorted(int(i) for i in T)), n)
    if T.n != n:
        raise ValueError("support dimension does not match the matrix")
    if r < 0 or T.size + r > n:
        raise ValueError("need 0 <= r <= n - |T|")
    if T.size + r == 0:
        raise ValueError("need |T| + r >= 1")
    free = T.complement()
    total = math.comb(free.size, r)

    if mode == "exhaustive":
        if total > EXHAUSTIVE_WEAK_RIP_LIMIT:
            raise ValueError(
                f"{total} candidate sets exceed the exhaustive limit "
                f"{EXHAUSTIVE_WEAK_RIP_LIMIT}; use mode='sampled'")
        candidates = itertools.combinations(free.tolist(), r)
        checked = total
    elif mode == "sampled":
        gen = np.random.default_rng(rng)
        candidates = (tuple(gen.choice(free, size=r, replace=False).tolist())
                      for _ in range(budget))
        checked = budget
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")

    on_T = np.zeros(n, dtype=bool)
    on_T[T.to_array()] = True
    sets = (sorted(T.indices + R) for R in candidates)
    best_dev, best_R = -1.0, ()
    for chunk, dev in _gram_block_deviations(A.conj().T @ A, sets, T.size + r):
        j = int(np.argmax(dev))  # the first maximum, as the witness
        if dev[j] > best_dev:
            best_dev = float(dev[j])
            best_R = tuple(int(i) for i in chunk[j] if not on_T[i])
    return WeakRipResult(best_dev, best_R, float(delta), mode, checked)


EXACT_RIP_LIMIT = 1_000_000

# Entries held at once by the batched oracles: the stacked Gram blocks of
# one chunk of column subsets, or one block of noise draws.
_CHUNK_ENTRIES = 1 << 16


def _gram_block_deviations(G, sets, size: int):
    """Yield (chunk, dev) over bounded chunks of the index sets in `sets`.

    Every set has `size` indices into the Gram matrix G; chunk is a (k, size)
    array of k consecutive sets and dev[i] = ||G[S_i, S_i] - I||, from one
    batched eigvalsh over the stacked blocks.
    """
    per = max(1, _CHUNK_ENTRIES // (size * size))
    sets = iter(sets)
    while rows := list(itertools.islice(sets, per)):
        chunk = np.array(rows, dtype=np.intp)
        lam = np.linalg.eigvalsh(G[chunk[:, :, None], chunk[:, None, :]])
        yield chunk, np.maximum(lam[:, -1] - 1.0, 1.0 - lam[:, 0])


def rip_constant_exact(A, s: int) -> float:
    """delta_s by exhaustive scan of every size-s column subset.

    Forms the Gram matrix G = A* A once and takes the eigenvalues of the
    s x s blocks G[S, S] in bounded chunks of subsets. Only for tiny
    instances: refuses when (n choose s) exceeds 10^6.
    """
    A = matrix_rows(A)
    n = A.shape[1]
    if not (1 <= s <= n):
        raise ValueError("need 1 <= s <= n")
    total = math.comb(n, s)
    if total > EXACT_RIP_LIMIT:
        raise ValueError(f"{total} subsets exceed the exact-scan limit {EXACT_RIP_LIMIT}")
    worst = 0.0
    for _, dev in _gram_block_deviations(A.conj().T @ A, itertools.combinations(range(n), s), s):
        worst = max(worst, float(dev.max()))
    return worst


@dataclass(frozen=True)
class NoiseCorrelationCheck:
    """Threshold on ||B* z||_inf for gaussian noise z, plus a replay hook.

    B is the (possibly projected) measurement matrix; the threshold
    2 sigma ||B||_{1,2} sqrt(log n) is exceeded with probability at most
    1/(2n), which `exceedance` estimates by simulation.
    """

    matrix: np.ndarray
    sigma: float
    n: int
    threshold: float

    def exceedance(self, trials: int, rng=None) -> EmpiricalReport:
        """Count draws with ||B* z||_inf > threshold over `trials` noise draws.

        The draws come as (rows, m) blocks Z, the same stream as one draw of
        m per trial, and row k of Z conj(B) is (B* z_k)^T.
        """
        gen = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        m = self.matrix.shape[0]
        conj_B = _conj(self.matrix)
        rows = max(1, _CHUNK_ENTRIES // max(1, m))
        failures = 0
        for start in range(0, trials, rows):
            Z = self.sigma * gen.standard_normal((min(rows, trials - start), m))
            stats = np.max(np.abs(Z @ conj_B), axis=1, initial=0.0)
            failures += int(np.count_nonzero(stats > self.threshold))
        return EmpiricalReport.from_counts(failures, trials, 1.0 / (2.0 * self.n))


def noise_correlation_bound(A, sigma: float = 1.0, with_projection: bool = False,
                            T=None) -> NoiseCorrelationCheck:
    """Threshold 2 sigma ||A||_{1,2} sqrt(log n) for noise correlations.

    With `with_projection`, the matrix is first multiplied by I - P where
    P projects onto the range of A_T, matching how the residual after a
    least-squares fit on T correlates with the remaining columns.

    Parameters
    ----------
    A : (m, n) array or MeasurementMatrix
    sigma : float
        Noise scale per measurement.
    with_projection : bool
    T : SupportSet or index array, required with projection
        A_T must have full column rank.
    """
    A = matrix_rows(A)
    n = A.shape[1]
    if n < 2:
        raise ValueError("the bound needs n >= 2")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    B = A
    if with_projection:
        if T is None:
            raise ValueError("projection requires a support T")
        idx = T.to_array() if isinstance(T, SupportSet) else np.asarray(T, dtype=int)
        At = A[:, idx]
        Q, R = np.linalg.qr(At)
        if idx.size and np.min(np.abs(np.diag(R))) <= 1e-10 * max(1.0, np.max(np.abs(np.diag(R)))):
            raise ValueError("A_T is rank-deficient; projection undefined")
        B = A - Q @ (Q.conj().T @ A)
    threshold = 2.0 * sigma * max_column_norm(B) * math.sqrt(math.log(n))
    return NoiseCorrelationCheck(B, sigma, n, threshold)
