"""Tail bounds E1-E4, Monte Carlo validators, weak RIP, exact RIP, noise."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ripless.core import SupportSet
from ripless.ensembles import EnsembleSpec, random_convolution_pulse, sample_rows
from ripless.estimates import (
    _CHUNK_ENTRIES,
    _event_occurs,
    _event_statistic,
    EmpiricalReport,
    NoiseCorrelationCheck,
    OutOfStatedRangeWarning,
    TailBoundQuery,
    clopper_pearson,
    e1_tail,
    e2_tail,
    e3_tail,
    e4_tail,
    empirical_estimate,
    noise_correlation_bound,
    rip_constant_exact,
    tail_value,
    weak_rip_empirical,
)


# --- closed-form bounds -------------------------------------------------------

def q(which, m, s, n, mu, level):
    return TailBoundQuery(m=m, s=s, n=n, mu=mu, level=level, which=which)


def test_query_validation():
    with pytest.raises(ValueError):
        q("E9", 10, 1, 4, 1.0, 0.5)
    with pytest.raises(ValueError):
        q("E1", 0, 1, 4, 1.0, 0.5)
    with pytest.raises(ValueError):
        q("E1", 10, 5, 4, 1.0, 0.5)  # s > n
    with pytest.raises(ValueError):
        q("E1", 10, 1, 4, 0.5, 0.5)  # mu < 1
    with pytest.raises(ValueError):
        q("E1", 10, 1, 4, 1.0, -0.1)
    with pytest.raises(ValueError):
        e2_tail(q("E1", 10, 1, 4, 1.0, 0.5))  # which mismatch


def test_e1_hand_value_and_clamp():
    val = e1_tail(q("E1", 1000, 10, 100, 1.0, 0.5))
    expected = 20.0 * math.exp(-(1000.0 / 10.0) * 0.25 / (2.0 * (1.0 + 0.5 / 3.0)))
    assert np.isclose(val, expected, rtol=1e-12)
    assert 4e-4 < val < 5e-4
    assert e1_tail(q("E1", 1000, 10, 100, 1.0, 0.0)) == 1.0


def test_e1_sufficiency_threshold():
    # at m = ceil((56/3) mu s log n) the half-deviation tail drops to 2/n
    n, s, mu = 16, 4, 1.0
    m = math.ceil((56.0 / 3.0) * mu * s * math.log(n))
    assert e1_tail(q("E1", m, s, n, mu, 0.5)) <= 2.0 / n


def test_e2_boundary_hand_value_and_warning():
    # m = 36 mu s puts t sqrt(m/(mu s)) at 3 for t = 1/2
    assert e2_tail(q("E2", 324, 9, 100, 1.0, 0.5)) == math.exp(-0.25 * (3.0 - 1.0) ** 2)
    assert e2_tail(q("E2", 4, 1, 100, 1.0, 0.5)) == 1.0  # z = 1 exactly
    assert e2_tail(q("E2", 1, 1, 100, 1.0, 0.25)) == 1.0  # z < 1 clamps
    with pytest.warns(OutOfStatedRangeWarning):
        e2_tail(q("E2", 400, 1, 100, 1.0, 0.75))


def test_e2_decreasing_in_m():
    vals = [e2_tail(q("E2", m, 4, 64, 1.0, 0.5)) for m in range(16, 4016, 40)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0]


def test_e3_hand_values_and_clamp_boundary():
    # n=16, s=4, mu=1, t=1: exponent is -(m/2) * 1/(1 + 2/3)
    v12 = e3_tail(q("E3", 12, 4, 16, 1.0, 1.0))
    assert np.isclose(v12, 32.0 * math.exp(-6.0 * 0.6), rtol=1e-12)
    assert v12 < 1.0
    assert e3_tail(q("E3", 11, 4, 16, 1.0, 1.0)) == 1.0  # just below the knee
    assert e3_tail(q("E3", 100, 4, 16, 1.0, 0.0)) == 1.0


def test_e3_increasing_in_s():
    vals = [e3_tail(q("E3", 300, s, 64, 1.0, 0.8)) for s in range(1, 40)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_e4_hand_value_range_and_threshold():
    val = e4_tail(q("E4", 128, 4, 16, 1.0, 1.0))
    assert np.isclose(val, 16.0 * math.exp(-4.0 + 0.25), rtol=1e-12)
    assert e4_tail(q("E4", 128, 4, 16, 1.0, 0.0)) == 1.0
    with pytest.raises(ValueError):
        e4_tail(q("E4", 128, 4, 16, 1.0, 2.5))  # t > sqrt(s)


def test_e4_sufficiency_threshold():
    n, s, mu = 16, 4, 1.0
    m = math.ceil(8.0 * mu * s * (2.0 * math.log(n) + 0.25))
    assert e4_tail(q("E4", m, s, n, mu, 1.0)) <= 1.0 / n


@pytest.mark.parametrize("which,smax", [("E1", 3.0), ("E2", 0.5), ("E3", 3.0), ("E4", 2.0)])
def test_tails_clamped_and_nonincreasing_on_grid(which, smax):
    grid = np.linspace(0.0, smax, 100)
    vals = [tail_value(q(which, 200, 4, 64, 1.0, lev)) for lev in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


# --- confidence machinery ------------------------------------------------------

def test_clopper_pearson_closed_forms():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0
    assert np.isclose(hi, 1.0 - 0.025 ** (1.0 / 100.0), rtol=1e-10)
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0
    assert np.isclose(lo, 0.025 ** (1.0 / 100.0), rtol=1e-10)


def test_clopper_pearson_matches_scipy_stats_beta_ppf_bit_for_bit():
    from scipy.stats import beta

    for trials in (*range(1, 41), 100, 500, 2000):
        for failures in range(0, trials + 1, max(1, trials // 40)):
            alpha = 1.0 - 0.95
            lo, hi = clopper_pearson(failures, trials)
            want_lo = 0.0 if failures == 0 else float(
                beta.ppf(alpha / 2.0, failures, trials - failures + 1))
            want_hi = 1.0 if failures == trials else float(
                beta.ppf(1.0 - alpha / 2.0, failures + 1, trials - failures))
            assert (lo, hi) == (want_lo, want_hi), (failures, trials)


def test_clopper_pearson_symmetry_and_coverage():
    lo, hi = clopper_pearson(30, 200)
    lo2, hi2 = clopper_pearson(170, 200)
    assert np.isclose(lo, 1.0 - hi2, atol=1e-12)
    assert np.isclose(hi, 1.0 - lo2, atol=1e-12)
    assert lo < 30 / 200 < hi


def test_empirical_report_validation():
    r = EmpiricalReport.from_counts(3, 100, 0.5)
    assert r.empirical_rate == 0.03 and r.ci_lower < 0.03 < r.ci_upper
    assert r.passed
    with pytest.raises(ValueError):
        EmpiricalReport(10, 11, 1.1, 0.5, 1.0, 0.9)
    with pytest.raises(ValueError):
        EmpiricalReport(10, 1, 0.5, 0.5, 1.0, 0.0)  # rate != failures/trials


def test_empirical_report_fail_side():
    # observed rate significantly above the bound must not pass
    r = EmpiricalReport.from_counts(50, 100, 0.01)
    assert not r.passed


# --- Monte Carlo validators -----------------------------------------------------

def test_empirical_estimate_e1_gaussian_within_ci():
    T = SupportSet(tuple(range(4)), 32)
    rep = empirical_estimate("E1", EnsembleSpec("gaussian", 32), 512, T, 0.5, trials=500,
                             rng=7, mu=6.0 * math.log(32))
    assert rep.trials == 500
    assert rep.passed


def test_empirical_estimate_e1_binary_tight_bound():
    T = SupportSet(tuple(range(4)), 32)
    rep = empirical_estimate("E1", EnsembleSpec("binary", 32), 512, T, 0.5, trials=500, rng=11)
    assert rep.theoretical_bound < 1e-4
    assert rep.failures == 0
    assert rep.passed


def test_empirical_estimate_e1_coordinate_exact_enumeration():
    # coordinate sampling with n=4, m=2, T={0,1}: the Gram deviation is
    # max(|2 c_j - 1|, 1) over j in T with c_j the pick counts, so the
    # event {dev >= 2} happens exactly when both picks hit the same
    # support index: probability 2/16
    n, m = 4, 2
    exact = 0.0
    for k1 in range(n):
        for k2 in range(n):
            counts = [sum(1 for k in (k1, k2) if k == j) for j in (0, 1)]
            dev = max(max(abs(2 * c - 1) for c in counts), 1.0)
            exact += (dev >= 2.0) / n**2
    assert exact == 2 / 16
    T = SupportSet((0, 1), n)
    rep = empirical_estimate("E1", EnsembleSpec("coordinate_sampling", n), m, T, 2.0, trials=3000, rng=5)
    assert rep.ci_lower <= exact <= rep.ci_upper


def test_empirical_estimate_e3_coordinate_single_coordinate_is_null():
    # a coordinate row correlates e_j only with itself, so the off-support
    # statistic is identically zero; enumeration over the equally likely
    # rows gives frequency 0 for any t > 0
    n = 6
    v = np.zeros(n)
    v[2] = 1.0
    rep = empirical_estimate("E3", EnsembleSpec("coordinate_sampling", n), 3, v, 0.1, trials=200, rng=3)
    assert rep.failures == 0
    assert rep.passed


def test_empirical_estimate_e2_smoke_degenerate():
    v = np.zeros(8)
    v[0] = 1.0
    rep = empirical_estimate("E2", EnsembleSpec("binary", 8), 1, v, 0.5, trials=20, rng=1)
    assert rep.theoretical_bound == 1.0  # z < 1 regime
    assert rep.passed


def unit_target(n, s, seed):
    r = np.random.default_rng(seed)
    idx = np.sort(r.choice(n, s, replace=False))
    v = np.zeros(n)
    amps = r.standard_normal(s)
    v[idx] = amps / np.linalg.norm(amps)
    return v


def test_empirical_estimate_e2_measures_support_restriction():
    # the distortion statistic lives on T: for flat rows the unrestricted
    # norm carries off-support mass of mean square (n-1)/m ~ 0.24 here,
    # which would push the rate to ~0.37 against a bound of ~0.10
    rep = empirical_estimate("E2", EnsembleSpec("subsampled_dft", 32), 130, unit_target(32, 2, 1),
                             0.5, trials=800, rng=2)
    assert rep.theoretical_bound < 0.11
    assert rep.empirical_rate <= 0.02
    assert rep.passed


def test_empirical_estimate_e2_binary_nonzero_rate_below_bound():
    rep = empirical_estimate("E2", EnsembleSpec("binary", 32), 130, unit_target(32, 2, 3),
                             0.18, trials=800, rng=4)
    assert 0.0 < rep.empirical_rate < rep.theoretical_bound
    assert rep.passed


def test_empirical_estimate_e2_gaussian_sufficiency_point():
    m = math.ceil((56.0 / 3.0) * 6.0 * math.log(32) * 2 * math.log(32))
    rep = empirical_estimate("E2", EnsembleSpec("gaussian", 32), m, unit_target(32, 2, 5),
                             0.5, trials=400, rng=6, mu=6.0 * math.log(32))
    assert rep.failures == 0 and rep.passed


def test_empirical_estimate_e4_binary():
    T = SupportSet((0, 5), 16)
    rep = empirical_estimate("E4", EnsembleSpec("binary", 16), 200, T, 0.9, trials=300, rng=13)
    assert rep.failures == 0 and rep.passed


def test_empirical_estimate_dft_complex_path():
    T = SupportSet(tuple(range(3)), 16)
    rep = empirical_estimate("E1", EnsembleSpec("subsampled_dft", 16), 300, T, 0.5, trials=200, rng=2)
    assert rep.passed


def test_empirical_estimate_validation():
    T = SupportSet((0,), 8)
    with pytest.raises(ValueError):
        empirical_estimate("E5", EnsembleSpec("binary", 8), 4, T, 0.5, trials=5)
    with pytest.raises(ValueError):
        empirical_estimate("E1", EnsembleSpec("binary", 8), 0, T, 0.5, trials=5)
    with pytest.raises(ValueError):
        empirical_estimate("E1", EnsembleSpec("binary", 8), 4, T, 0.5, trials=0)
    with pytest.raises(ValueError):
        empirical_estimate("E1", EnsembleSpec("binary", 8), 4, np.ones(8), 0.5, trials=5)  # needs SupportSet
    with pytest.raises(ValueError):
        empirical_estimate("E2", EnsembleSpec("binary", 8), 4, T, 0.5, trials=5)  # needs a vector
    with pytest.raises(ValueError):
        empirical_estimate("E2", EnsembleSpec("binary", 8), 4, np.zeros(8), 0.5, trials=5)
    with pytest.raises(ValueError):
        empirical_estimate("E1", EnsembleSpec("gaussian", 8), 4, T, 0.5, trials=5)  # mu mandatory


# --- event statistics from the raw draw ----------------------------------------------

def dense_statistic(which, spec, m, support, v, rng):
    """The dense statistic: normalize the whole draw to A = conj(raw)/sqrt(m),
    then cut columns from it. The event statistic must equal this."""
    if which in ("E1", "E2"):
        idx = support.to_array()
        At = np.conj(sample_rows(spec, m, rng, cols=idx)) / math.sqrt(m)
        if which == "E1":
            G = At.conj().T @ At
            return float(np.max(np.abs(np.linalg.eigvalsh(G - np.eye(idx.size)))))
        vt = v[idx]
        return float(np.linalg.norm(At.conj().T @ (At @ vt) - vt))
    A = np.conj(sample_rows(spec, m, rng)) / math.sqrt(m)
    if which == "E3":
        off = np.abs((A.conj().T @ (A @ v))[support.complement()])
        return float(off.max()) if off.size else 0.0
    cross = A[:, support.to_array()].conj().T @ A[:, support.complement()]
    return float(np.sqrt(np.max(np.sum(np.abs(cross) ** 2, axis=0)))) if cross.shape[1] else 0.0


EVENT_SPECS = {
    "gaussian": EnsembleSpec("gaussian", 32),
    "binary": EnsembleSpec("binary", 32),
    "random_convolution": EnsembleSpec("random_convolution", 32, params={
        "g": random_convolution_pulse(32, np.random.default_rng(0))}),
    "subsampled_dft": EnsembleSpec("subsampled_dft", 32),
    "continuous_fourier": EnsembleSpec("continuous_fourier", 32),
}


@pytest.mark.parametrize("family", sorted(EVENT_SPECS))
@pytest.mark.parametrize("which", ["E1", "E2", "E3", "E4"])
def test_event_statistic_matches_dense_statistic(which, family):
    spec = EVENT_SPECS[family]
    for seed in range(5):
        v = unit_target(32, 3, seed)
        support = SupportSet.from_signal(v)
        got = _event_statistic(which, spec, 150, support, v, np.random.default_rng(seed))
        want = dense_statistic(which, spec, 150, support, v, np.random.default_rng(seed))
        assert want > 0.0
        assert abs(got - want) <= 1e-12 * want, (seed, got, want)


def test_event_occurs_when_the_statistic_ties_the_level():
    # coordinate sampling at n=32, m=160: when every support count c is 3 or
    # 7, |32 c / 160 - 1| = 0.4, so the E2 statistic equals 0.4 ||v|| in
    # exact arithmetic; rounding put these trials on either side of it
    spec = EnsembleSpec("coordinate_sampling", 32)

    def tie_trial(t):
        rng = np.random.default_rng([t, 160])
        idx = np.sort(rng.choice(32, 3, replace=False))
        v = np.zeros(32)
        amps = rng.standard_normal(3)
        v[idx] = amps / np.linalg.norm(amps)
        return SupportSet.from_signal(v), v, rng

    below = 0
    for t in (24, 30, 88, 109, 116):
        support, v, rng = tie_trial(t)
        level = 0.4 * np.linalg.norm(v)
        for statistic in (_event_statistic, dense_statistic):
            stat = statistic("E2", spec, 160, *tie_trial(t))
            assert abs(stat - level) <= 1e-14
            below += stat < level
        assert _event_occurs("E2", spec, 160, support, v, 0.4, rng)
    assert below > 0


@pytest.mark.parametrize("family", ["gaussian", "subsampled_dft"])
def test_event_statistic_full_support_has_empty_complement(family):
    spec = EVENT_SPECS[family]
    v = np.linspace(1.0, 2.0, 32)
    full = SupportSet(tuple(range(32)), 32)
    assert _event_statistic("E3", spec, 40, full, v, np.random.default_rng(1)) == 0.0
    assert _event_statistic("E4", spec, 40, full, None, np.random.default_rng(1)) == 0.0
    rep = empirical_estimate("E4", spec, 40, full, 0.5, trials=3, rng=2, mu=1.0)
    assert rep.failures == 0


def test_event_statistic_allocates_about_one_draw():
    # a Gaussian E4 event at the n=128 acceptance size: the draw itself is
    # the only m x n array; the dense statistic held three of them at once
    m, n = 10_547, 128
    support = SupportSet((3, 40, 77, 100), n)
    draw_bytes = m * n * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        _event_statistic("E4", EnsembleSpec("gaussian", n), m, support, None, np.random.default_rng(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.25 * draw_bytes


# --- weak RIP ---------------------------------------------------------------------

def test_weak_rip_r0_reduces_to_support_deviation():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((32, 12)) / np.sqrt(32)
    T = SupportSet((1, 4, 7), 12)
    res = weak_rip_empirical(A, T, 0, delta=0.5)
    sub = A[:, [1, 4, 7]]
    direct = np.max(np.abs(np.linalg.eigvalsh(sub.T @ sub - np.eye(3))))
    assert np.isclose(res.deviation, direct, rtol=1e-12)
    assert res.witness == () and res.candidates_checked == 1


def test_weak_rip_orthonormal_is_exact_isometry():
    A = np.eye(6)
    for r in (0, 1, 2):
        res = weak_rip_empirical(A, SupportSet((0, 3), 6), r, delta=0.01)
        assert res.deviation <= 1e-12 and res.satisfied


def test_weak_rip_sampled_covers_exhaustive_on_small_instance():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((64, 12)) / np.sqrt(64)
    T = SupportSet((0, 6), 12)
    ex = weak_rip_empirical(A, T, 2, delta=0.5, mode="exhaustive")
    # 2000 uniform draws over the 45 candidate pairs miss nothing in practice
    sa = weak_rip_empirical(A, T, 2, delta=0.5, mode="sampled", budget=2000, rng=17)
    assert np.isclose(sa.deviation, ex.deviation, rtol=1e-12)
    assert tuple(sorted(sa.witness)) == tuple(sorted(ex.witness))
    assert ex.mode == "exhaustive" and sa.mode == "sampled"


def test_weak_rip_permutation_invariance_outside_support():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((40, 10)) / np.sqrt(40)
    T = SupportSet((2, 5), 10)
    res = weak_rip_empirical(A, T, 2, delta=0.5)
    perm = np.arange(10)
    outside = T.complement()
    perm[outside] = rng.permutation(outside)
    res_p = weak_rip_empirical(A[:, perm], T, 2, delta=0.5)
    assert np.isclose(res.deviation, res_p.deviation, rtol=1e-12)


def weak_rip_loop(A, T, candidates):
    """Per-candidate scan: the first R with the largest deviation."""
    best_dev, best_R = -1.0, ()
    for R in candidates:
        idx = sorted(T.indices + tuple(R))
        sub = A[:, idx]
        dev = float(np.max(np.abs(np.linalg.eigvalsh(sub.conj().T @ sub - np.eye(len(idx))))))
        if dev > best_dev:
            best_dev, best_R = dev, tuple(sorted(R))
    return best_dev, best_R


def test_weak_rip_matches_per_candidate_loop_across_chunks():
    rng = np.random.default_rng(29)
    A = (rng.standard_normal((48, 30)) + 1j * rng.standard_normal((48, 30))) / np.sqrt(96)
    T = SupportSet((4, 11, 25), 30)
    r = 3  # 3276 candidate sets of size 6, over one chunk of stacked blocks
    assert math.comb(27, r) > _CHUNK_ENTRIES // 36
    res = weak_rip_empirical(A, T, r, delta=0.5)
    dev, R = weak_rip_loop(A, T, itertools.combinations(T.complement().tolist(), r))
    assert np.isclose(res.deviation, dev, rtol=1e-12) and res.witness == R
    # sampled mode draws its candidates from the generator in the same order
    res = weak_rip_empirical(A, T, r, delta=0.5, mode="sampled", budget=2500, rng=31)
    gen = np.random.default_rng(31)
    drawn = [gen.choice(T.complement(), size=r, replace=False).tolist() for _ in range(2500)]
    dev, R = weak_rip_loop(A, T, drawn)
    assert np.isclose(res.deviation, dev, rtol=1e-12) and res.witness == R
    assert res.candidates_checked == 2500


def test_weak_rip_exhaustive_refusal_and_validation():
    A = np.eye(60)
    with pytest.raises(ValueError, match="sampled"):
        weak_rip_empirical(A, SupportSet((), 60), 4, delta=0.5)
    with pytest.raises(ValueError):
        weak_rip_empirical(A, SupportSet((0,), 60), 60, delta=0.5)
    with pytest.raises(ValueError):
        weak_rip_empirical(A, SupportSet((0,), 60), 1, delta=0.5, mode="guess")
    with pytest.raises(ValueError):
        weak_rip_empirical(A, SupportSet((), 60), 0, delta=0.5)  # nothing to measure


@pytest.mark.parametrize("kwargs, match", [
    # a budget of 0 checks no set, so no draw could ever violate
    ({"delta": 0.5, "mode": "sampled", "budget": 0}, "budget"),
    ({"delta": 0.5, "mode": "sampled", "budget": -3}, "budget"),
    # no deviation compares meaningfully with a NaN or infinite delta
    ({"delta": math.nan}, "delta"),
    ({"delta": math.inf, "mode": "sampled", "budget": 5}, "delta"),
])
def test_weak_rip_refuses_empty_budget_and_nonfinite_delta(kwargs, match):
    with pytest.raises(ValueError, match=match):
        weak_rip_empirical(np.eye(8), SupportSet((0, 1), 8), 1, **kwargs)


# --- exact RIP constant -------------------------------------------------------------

def test_rip_exact_orthonormal_is_zero():
    assert rip_constant_exact(np.eye(6), 1) == 0.0
    assert rip_constant_exact(np.eye(6), 3) == 0.0


def test_rip_exact_duplicated_column():
    A = np.zeros((4, 3))
    A[0, 0] = A[0, 1] = 1.0
    A[1, 2] = 1.0
    assert rip_constant_exact(A, 2) >= 1.0


def test_rip_exact_matches_independent_two_by_two_scan():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((20, 10)) / np.sqrt(20)
    # closed-form eigenvalues of each 2x2 Gram block
    worst = 0.0
    for i, j in itertools.combinations(range(10), 2):
        a = A[:, i] @ A[:, i]
        b = A[:, j] @ A[:, j]
        c = A[:, i] @ A[:, j]
        mean, half = (a + b) / 2.0, math.sqrt(((a - b) / 2.0) ** 2 + c * c)
        worst = max(worst, abs(mean + half - 1.0), abs(1.0 - (mean - half)))
    assert np.isclose(rip_constant_exact(A, 2), worst, rtol=1e-12)


def test_rip_exact_s1_is_column_norm_deviation():
    rng = np.random.default_rng(43)
    A = rng.standard_normal((15, 8)) / np.sqrt(15)
    expected = max(abs(np.linalg.norm(A[:, j]) ** 2 - 1.0) for j in range(8))
    assert np.isclose(rip_constant_exact(A, 1), expected, rtol=1e-12)


def rip_loop(A, s):
    """Per-subset scan, one eigvalsh of sub* sub a subset."""
    worst = 0.0
    for S in itertools.combinations(range(A.shape[1]), s):
        sub = A[:, list(S)]
        lam = np.linalg.eigvalsh(sub.conj().T @ sub)
        worst = max(worst, float(lam[-1] - 1.0), float(1.0 - lam[0]))
    return worst


def test_rip_exact_chunked_blocks_match_per_subset_loop():
    rng = np.random.default_rng(47)
    A = (rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16))) / np.sqrt(80)
    assert math.comb(16, 5) > _CHUNK_ENTRIES // 25  # 4368 subsets cross a chunk boundary
    assert abs(rip_constant_exact(A, 5) - rip_loop(A, 5)) <= 1e-12 * rip_loop(A, 5)
    B = A.real * np.sqrt(2.0)
    assert abs(rip_constant_exact(B, 5) - rip_loop(B, 5)) <= 1e-12 * rip_loop(B, 5)


def test_rip_exact_signed_permutation_zero_across_chunks():
    P = np.zeros((16, 16))
    for j, p in enumerate(np.random.default_rng(3).permutation(16)):
        P[p, j] = -1.0 if j % 2 else 1.0
    assert rip_constant_exact(P, 5) == 0.0


def test_rip_exact_memory_bounded_on_large_scan():
    # 184 756 subsets of size 10: all blocks at once would take 148 MB
    rng = np.random.default_rng(53)
    A = rng.standard_normal((30, 20)) / np.sqrt(30)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        delta = rip_constant_exact(A, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 8 * 2**20
    assert rip_constant_exact(A, 1) <= delta < 10.0


def test_rip_exact_budget_refusal():
    with pytest.raises(ValueError):
        rip_constant_exact(np.eye(50), 10)


# --- noise correlation ----------------------------------------------------------------

def test_noise_threshold_identity_matrix():
    chk = noise_correlation_bound(np.eye(16))
    assert np.isclose(chk.threshold, 2.0 * math.sqrt(math.log(16)), rtol=1e-12)
    rep = chk.exceedance(2000, rng=5)
    assert rep.theoretical_bound == 1.0 / 32.0
    assert rep.passed


def test_noise_threshold_zero_matrix():
    chk = noise_correlation_bound(np.zeros((5, 4)))
    assert chk.threshold == 0.0
    rep = chk.exceedance(50, rng=1)
    assert rep.failures == 0


def test_noise_threshold_scales_with_sigma():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 6))
    t1 = noise_correlation_bound(A, sigma=1.0).threshold
    t2 = noise_correlation_bound(A, sigma=2.0).threshold
    assert np.isclose(t2, 2.0 * t1, rtol=1e-12)


def test_noise_projection_full_support_kills_matrix():
    chk = noise_correlation_bound(np.eye(4), with_projection=True,
                                  T=SupportSet((0, 1, 2, 3), 4))
    assert chk.threshold <= 1e-12


def test_noise_projection_contracts_threshold():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 12)) / np.sqrt(30)
    T = SupportSet((0, 1, 2), 12)
    plain = noise_correlation_bound(A).threshold
    proj = noise_correlation_bound(A, with_projection=True, T=T).threshold
    assert proj <= plain + 1e-12


def test_noise_projection_validation():
    A = np.zeros((4, 3))
    A[0, 0] = A[0, 1] = 1.0  # duplicated direction: rank-deficient pair
    with pytest.raises(ValueError):
        noise_correlation_bound(np.eye(4), with_projection=True)
    with pytest.raises(ValueError):
        noise_correlation_bound(A, with_projection=True, T=SupportSet((0, 1), 3))
    with pytest.raises(ValueError):
        noise_correlation_bound(np.ones((3, 1)))  # n < 2
    with pytest.raises(ValueError):
        noise_correlation_bound(np.eye(4), sigma=-0.5)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_noise_bound_refuses_nonfinite_sigma(sigma):
    # no draw exceeds a NaN or infinite threshold, so the check could not fail
    with pytest.raises(ValueError, match="sigma"):
        noise_correlation_bound(np.eye(4), sigma=sigma)


def test_noise_exceedance_blocks_match_per_draw_loop():
    rng = np.random.default_rng(61)
    B = rng.standard_normal((40, 12)) + 1j * rng.standard_normal((40, 12))
    # a threshold low enough that about a third of the draws exceed it
    chk = NoiseCorrelationCheck(B, 0.7, 12, threshold=7.0)
    trials = 2 * (_CHUNK_ENTRIES // 40) + 7  # two full blocks and a short one
    gen = np.random.default_rng(67)
    rep = chk.exceedance(trials, rng=gen)
    ref = np.random.default_rng(67)
    count = sum(float(np.max(np.abs(B.conj().T @ (0.7 * ref.standard_normal(40))))) > 7.0
                for _ in range(trials))
    assert 0 < rep.failures == count < trials
    assert gen.random() == ref.random()


def test_noise_check_dataclass_fields():
    chk = noise_correlation_bound(np.eye(3), sigma=0.5)
    assert isinstance(chk, NoiseCorrelationCheck)
    assert chk.sigma == 0.5 and chk.n == 3
