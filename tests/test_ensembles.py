"""Ensemble sampling, coherence values, and isotropy diagnostics."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.linalg import hadamard

from ripless.ensembles import (
    _DFT_TABLE_MAX_N,
    FAMILIES,
    EnsembleSpec,
    binary,
    build_matrix,
    continuous_fourier,
    coordinate_sampling,
    deterministic_coherence,
    gaussian,
    gaussian_row_tail,
    isotropy_check,
    random_convolution,
    random_convolution_pulse,
    sample_rows,
    stochastic_coherence,
    subsampled_dft,
    subsampled_orthogonal,
)


def all_specs(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "gaussian": gaussian(n, seed),
        "binary": binary(n, seed),
        "subsampled_orthogonal": subsampled_orthogonal(hadamard(n).astype(float), seed),
        "subsampled_dft": subsampled_dft(n, seed),
        "random_convolution": random_convolution(random_convolution_pulse(n, rng), seed),
        "coordinate_sampling": coordinate_sampling(n, seed),
        "continuous_fourier": continuous_fourier(n, seed),
    }


# --- construction and validation -------------------------------------------

def test_families_registry_matches_constructors():
    specs = all_specs(16)
    assert set(specs) == set(FAMILIES)
    for fam, spec in specs.items():
        assert spec.family == fam and spec.n == 16


def test_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        EnsembleSpec("lebesgue", 8)
    with pytest.raises(ValueError):
        EnsembleSpec("gaussian", 0)
    with pytest.raises(ValueError):
        EnsembleSpec("gaussian", 8, params={"u": np.eye(8)})
    with pytest.raises(ValueError):
        subsampled_orthogonal(np.eye(4))  # U*U = I, not n I
    with pytest.raises(ValueError):
        random_convolution(np.ones(4))  # fft magnitude is a spike, not flat


def test_spec_json_round_trip_all_families():
    for spec in all_specs(8, seed=3).values():
        back = EnsembleSpec.from_json(spec.to_json())
        assert back.family == spec.family
        assert back.n == spec.n
        assert back.seed == spec.seed
        for key in spec.params:
            assert np.allclose(back.params[key], spec.params[key], atol=1e-15)


def test_spec_json_round_trip_complex_orthogonal():
    n = 4
    dft = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    spec = subsampled_orthogonal(dft, seed=9)
    back = EnsembleSpec.from_json(spec.to_json())
    assert back.is_complex
    assert np.allclose(back.params["u"], dft, atol=1e-15)


def test_spec_equality_and_hash_for_every_family():
    # array-valued params compare by value, and every spec is hashable
    first, again, other = all_specs(8, seed=3), all_specs(8, seed=3), all_specs(8, seed=4)
    for fam in first:
        assert first[fam] == again[fam] and hash(first[fam]) == hash(again[fam])
        assert first[fam] != other[fam]
        assert first[fam] == EnsembleSpec.from_json(first[fam].to_json())
    assert len(set(first.values()) | set(again.values())) == len(FAMILIES)
    g = first["random_convolution"].params["g"]
    assert random_convolution(g) != random_convolution(-g)
    assert gaussian(8) != "gaussian"


def test_is_complex_flags():
    specs = all_specs(8)
    expected = {"subsampled_dft", "continuous_fourier"}
    assert {f for f, s in specs.items() if s.is_complex} == expected


# --- row sampling ------------------------------------------------------------

def test_coordinate_row_is_scaled_basis_vector():
    row = sample_rows(coordinate_sampling(4), 1, rng=1)[0]
    nz = np.flatnonzero(row)
    assert nz.size == 1 and row[nz[0]] == 2.0  # sqrt(4)


def test_binary_rows_are_signs():
    rows = sample_rows(binary(12), 50, rng=2)
    assert set(np.unique(rows)) == {-1.0, 1.0}


def test_fourier_rows_unimodular_and_anchored():
    for spec in (subsampled_dft(9, 0), continuous_fourier(9, 0)):
        rows = sample_rows(spec, 40, rng=5)
        assert np.allclose(np.abs(rows), 1.0, atol=1e-12)
        assert np.allclose(rows[:, 0], 1.0, atol=1e-12)  # t = 0 column


def test_dft_rows_are_harmonics():
    n = 8
    rows = sample_rows(subsampled_dft(n), 30, rng=7)
    # each row must be e^{2 pi i k t / n} for an integer frequency k
    freqs = np.angle(rows[:, 1]) * n / (2 * np.pi)
    assert np.allclose(freqs, np.round(freqs), atol=1e-9)
    for r, k in zip(rows, np.round(freqs).astype(int) % n):
        assert np.allclose(r, np.exp(2j * np.pi * k * np.arange(n) / n), atol=1e-9)


@pytest.mark.parametrize("n", [1, 7, 64, 256, 1031])
def test_dft_rows_equal_the_direct_formula_bit_for_bit(n):
    # the cached table of roots of unity (and, above its size cap, the
    # formula itself) must reproduce the direct exp bit for bit
    assert 1031 > _DFT_TABLE_MAX_N  # the last case runs the formula
    cols = np.array([0, n - 1, n // 2, 0, n // 3])
    for restrict in (None, cols):
        rows = sample_rows(subsampled_dft(n), 50, np.random.default_rng(n), cols=restrict)
        freqs = np.random.default_rng(n).integers(0, n, size=50)
        direct = np.exp((2j * np.pi / n) * np.outer(freqs, np.arange(n) if restrict is None else cols))
        assert np.array_equal(rows, direct)
        rows[0, 0] = 0.0  # the caller owns a copy, not the table


def test_convolution_rows_are_shifts_with_full_energy():
    n = 16
    g = random_convolution_pulse(n, np.random.default_rng(4))
    rows = sample_rows(random_convolution(g), 100, rng=11)
    assert np.allclose(np.sum(rows**2, axis=1), n, rtol=1e-8)
    # every row appears among the n circular shifts of the pulse
    shifts = np.stack([np.roll(g, s) for s in range(n)])
    for r in rows:
        assert np.min(np.max(np.abs(shifts - r), axis=1)) < 1e-12


def test_orthogonal_rows_come_from_u():
    n = 8
    u = hadamard(n).astype(float)
    rows = sample_rows(subsampled_orthogonal(u), 60, rng=3)
    for r in rows:
        assert np.min(np.max(np.abs(u - r), axis=1)) < 1e-12


def test_sampling_deterministic_under_seed():
    for spec in all_specs(8, seed=1).values():
        a = sample_rows(spec, 6, rng=42)
        b = sample_rows(spec, 6, rng=42)
        assert np.array_equal(a, b)


STRUCTURED = ["subsampled_orthogonal", "subsampled_dft", "random_convolution",
              "coordinate_sampling", "continuous_fourier"]


@pytest.mark.parametrize("family", STRUCTURED)
def test_restricted_draw_matches_full_columns(family):
    # structured families draw one index (or frequency) per row, so a
    # column-restricted draw reproduces the full draw's columns
    spec = all_specs(16, seed=6)[family]
    cols = np.array([0, 3, 11])
    full = sample_rows(spec, 25, rng=8)
    part = sample_rows(spec, 25, rng=8, cols=cols)
    assert part.shape == (25, 3)
    assert np.allclose(part, full[:, cols], atol=1e-14)


@pytest.mark.parametrize("family", ["gaussian", "binary"])
def test_restricted_draw_shape_for_dense_families(family):
    spec = all_specs(16, seed=6)[family]
    part = sample_rows(spec, 25, rng=8, cols=np.array([1, 2]))
    assert part.shape == (25, 2)


# --- matrix construction -------------------------------------------------------

def test_build_matrix_normalization_and_provenance():
    M = build_matrix(coordinate_sampling(4), 1, rng=0)
    assert M.rows.shape == (1, 4)
    assert sorted(np.abs(M.rows[0])) == [0.0, 0.0, 0.0, 2.0]
    assert M.ensemble == "coordinate_sampling" and M.seed == 0
    with pytest.raises(ValueError):
        build_matrix(coordinate_sampling(4), 0)


def test_build_matrix_conjugates_raw_rows():
    spec = subsampled_dft(8, seed=2)
    M = build_matrix(spec, 5, rng=2)
    raw = sample_rows(spec, 5, rng=2)
    assert np.allclose(M.rows, np.conj(raw) / np.sqrt(5), atol=1e-15)
    assert np.allclose(M.raw_rows(), raw, atol=1e-12)


def test_build_matrix_seed_provenance_rules():
    spec = gaussian(8, seed=17)
    assert build_matrix(spec, 3).seed == 17  # falls back to spec seed
    assert build_matrix(spec, 3, rng=5).seed == 5
    assert build_matrix(spec, 3, rng=np.random.default_rng(5)).seed is None


def test_gaussian_gram_concentrates():
    # m = 400, n = 16 sits well inside the proportional regime; the Gram
    # matrix should be within 0.5 of the identity almost always
    hits = 0
    for seed in range(100):
        A = build_matrix(gaussian(16), 400, rng=seed).rows
        if np.linalg.norm(A.T @ A - np.eye(16), ord=2) <= 0.5:
            hits += 1
    assert hits >= 95


def test_mean_column_norm_near_one_all_families():
    # columns of the normalized matrix have unit mean square, so mean
    # column norms hover near 1 for every family
    for fam, spec in all_specs(32, seed=10).items():
        rng = np.random.default_rng(100)
        for _ in range(200):
            A = build_matrix(spec, 200, rng=rng).rows
            mean_norm = np.mean(np.sqrt(np.sum(np.abs(A) ** 2, axis=0)))
            assert 0.8 <= mean_norm <= 1.2, fam


# --- coherence ------------------------------------------------------------------

def test_deterministic_coherence_values():
    n = 16
    specs = all_specs(n, seed=0)
    assert deterministic_coherence(specs["binary"]) == 1.0
    assert deterministic_coherence(specs["subsampled_dft"]) == 1.0
    assert deterministic_coherence(specs["continuous_fourier"]) == 1.0
    assert deterministic_coherence(specs["coordinate_sampling"]) == float(n)
    assert deterministic_coherence(specs["subsampled_orthogonal"]) == 1.0  # Hadamard
    g = specs["random_convolution"].params["g"]
    assert deterministic_coherence(specs["random_convolution"]) == np.max(g**2)
    with pytest.raises(ValueError):
        deterministic_coherence(specs["gaussian"])


def test_rows_respect_deterministic_coherence():
    for fam, spec in all_specs(16, seed=5).items():
        if fam == "gaussian":
            continue
        mu = deterministic_coherence(spec)
        rows = sample_rows(spec, 10_000, rng=123)
        assert np.max(np.abs(rows) ** 2) <= mu + 1e-9, fam


def test_stochastic_coherence_returns_deterministic_mu_for_trivial_tail():
    # a bounded family wrapped in the zero-beyond-mu tail must come back
    # with its deterministic coherence, the search floor
    def trivial_tail(t):
        return 1.0 if t < 1.0 else 0.0

    mu = stochastic_coherence(binary(64), 64, trivial_tail)
    assert mu == 1.0


def test_gaussian_row_tail_shape():
    f = gaussian_row_tail(64)
    assert f(0.0) == 1.0
    assert f(10.0) < f(5.0)
    assert f(800.0) < 1e-100  # erfc keeps resolving far past density underflow


def _tail_conditions_margin(n, m, tail):
    # standalone restatement of the two truncation conditions, used as an
    # oracle root function: positive means mu is admissible
    def margin(mu):
        fmu = tail(mu)
        mass, _ = integrate.quad(tail, mu, np.inf, epsabs=1e-12, limit=300)
        c1 = 0.05 / math.sqrt(n) - (n * mu * fmu + n * mass)
        c2 = 1.0 / (n * m) - fmu
        return min(c1, c2)

    return margin


def test_stochastic_coherence_gaussian_64_frozen():
    n = m = 64
    mu = stochastic_coherence(gaussian(n), m, gaussian_row_tail(n))
    assert np.isclose(mu, 29.7926, rtol=1e-4)
    # independent root solve of the same admissibility margin
    margin = _tail_conditions_margin(n, m, gaussian_row_tail(n))
    mu_oracle = optimize.brentq(margin, 10.0, 100.0, xtol=1e-10)
    assert np.isclose(mu, mu_oracle, rtol=1e-5)
    # stays under the bookkeeping ceiling used by the sweep configs
    assert mu <= 36.0


def test_stochastic_coherence_subexponential_matches_standalone_solve():
    n, m = 256, 128

    def tail(t):
        return float(min(1.0, n * math.exp(-math.sqrt(max(t, 0.0)))))

    mu = stochastic_coherence(EnsembleSpec("gaussian", n), m, tail)
    margin = _tail_conditions_margin(n, m, tail)
    mu_oracle = optimize.brentq(margin, 300.0, 900.0, xtol=1e-9)
    assert np.isclose(mu, mu_oracle, rtol=1e-5)


def test_stochastic_coherence_monotone_in_tail_weight():
    n, m = 256, 128

    def light(t):
        return float(min(1.0, n * math.exp(-math.sqrt(max(t, 0.0)))))

    def heavy(t):
        return float(min(1.0, n * math.exp(-0.5 * math.sqrt(max(t, 0.0)))))

    spec = EnsembleSpec("gaussian", n)
    assert stochastic_coherence(spec, m, heavy) > stochastic_coherence(spec, m, light)


def test_stochastic_coherence_infeasible_tail_raises():
    with pytest.raises(ValueError):
        stochastic_coherence(gaussian(16), 16, lambda t: 1.0, hi=1e3)


# --- isotropy --------------------------------------------------------------------

@pytest.mark.parametrize("family", ["binary", "subsampled_dft"])
def test_isotropy_deviation_small_at_50k(family):
    spec = all_specs(8, seed=0)[family]
    dev = isotropy_check(spec, 50_000, rng=0)
    assert dev <= 0.1


def test_isotropy_deviation_decays_with_sample_count():
    spec = binary(8, seed=0)
    rng = np.random.default_rng(99)
    medians = []
    for num in (1_000, 10_000, 100_000):
        devs = [isotropy_check(spec, num, rng=rng) for _ in range(100)]
        medians.append(np.median(devs))
    assert medians[0] > medians[1] > medians[2]


def test_truncated_gaussian_stays_near_isotropic():
    # conditioning gaussian rows on max_t |a(t)|^2 <= 6 log n barely
    # disturbs the second moment; the certificate analysis leans on this
    n = 16
    mu = 6.0 * math.log(n)
    rng = np.random.default_rng(2024)
    rows = rng.standard_normal((1_000_000, n))
    keep = rows[np.max(rows**2, axis=1) <= mu]
    assert keep.shape[0] > 990_000  # truncation is rare at this level
    W = keep.T @ keep / keep.shape[0]
    dev = float(np.max(np.abs(np.linalg.eigvalsh(W - np.eye(n)))))
    assert dev <= 1.0 / (8.0 * math.sqrt(n)), f"deviation {dev:.4g} exceeds 1/(8 sqrt n)"

