"""Core primitives: approximation, norms, realification, serialization."""

import io
import itertools

import numpy as np
import pytest

from ripless.core import (
    MeasurementMatrix,
    SupportSet,
    as_signal,
    best_s_approx,
    matrix_from_csv,
    matrix_to_csv,
    max_column_norm,
    realify,
    vector_from_csv,
    vector_to_csv,
)


# --- best s-term approximation -------------------------------------------

def test_best_s_approx_keeps_largest():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(best_s_approx(x, 2), [3.0, 0.0, 2.0])


def test_best_s_approx_tie_breaks_low_index():
    x = np.array([1.0, -1.0])
    assert np.array_equal(best_s_approx(x, 1), [1.0, 0.0])


def test_best_s_approx_edge_sparsities():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(best_s_approx(x, 0), np.zeros(3))
    assert np.array_equal(best_s_approx(x, 3), x)
    assert np.array_equal(best_s_approx(x, 7), x)
    with pytest.raises(ValueError):
        best_s_approx(x, -1)


def exhaustive_best_sparse(x, s):
    # minimize ||x - u||_1 over all s-sparse u by enumerating supports;
    # on a fixed support the best u copies x there, so the l1 error is
    # the mass left outside
    best_err, best_u = np.inf, None
    for T in itertools.combinations(range(x.size), s):
        u = np.zeros_like(x)
        u[list(T)] = x[list(T)]
        err = np.abs(x - u).sum()
        if err < best_err - 1e-15:
            best_err, best_u = err, u
    return best_err, best_u


@pytest.mark.parametrize("n,s", [(5, 2), (6, 3), (8, 4), (8, 1)])
def test_best_s_approx_l1_optimal_exhaustive(n, s):
    rng = np.random.default_rng(100 + n * 10 + s)
    for _ in range(20):
        x = rng.standard_normal(n)
        err_star, _ = exhaustive_best_sparse(x, s)
        u = best_s_approx(x, s)
        assert np.count_nonzero(u) <= s
        assert np.abs(x - u).sum() <= err_star + 1e-12


# --- norms ------------------------------------------------------------------

def test_max_column_norm_identity():
    assert max_column_norm(np.eye(5)) == 1.0


@pytest.mark.parametrize("complex_entries", [False, True])
def test_max_column_norm_matches_loop(complex_entries):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 9))
    if complex_entries:
        A = A + 1j * rng.standard_normal((6, 9))
    expected = max(np.linalg.norm(A[:, j]) for j in range(A.shape[1]))
    assert np.isclose(max_column_norm(A), expected, rtol=1e-12)


# --- realification -----------------------------------------------------------

def test_realify_single_imaginary_entry():
    A = np.array([[1j]])
    out = realify(A)
    assert np.array_equal(out, [[0.0], [1.0]])


def test_realify_preserves_measurement_norms():
    rng = np.random.default_rng(21)
    for _ in range(100):
        A = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        x = rng.standard_normal(5)
        Ar, yr = realify(A, A @ x)
        assert not np.iscomplexobj(Ar)
        assert Ar.shape == (14, 5)
        assert np.isclose(np.linalg.norm(Ar @ x), np.linalg.norm(A @ x), rtol=1e-12)
        assert np.allclose(Ar @ x, yr, atol=1e-12)


def test_realify_real_passthrough():
    A = np.arange(6.0).reshape(2, 3)
    out = realify(A)
    assert out.shape == (2, 3)
    assert np.array_equal(out, A)


def test_realify_wraps_measurement_types():
    rng = np.random.default_rng(2)
    M = MeasurementMatrix(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    Mr, yr = realify(M, M.rows @ np.ones(3))
    assert isinstance(Mr, MeasurementMatrix) and Mr.field == "real"
    assert yr.shape == (8,)


# --- domain types -------------------------------------------------------------

def test_signal_validation():
    assert np.array_equal(as_signal([1, 2]), [1.0, 2.0])
    with pytest.raises(ValueError):
        as_signal(np.array([1.0 + 1j]))
    with pytest.raises(ValueError):
        as_signal([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_signal([np.nan])
    with pytest.raises(ValueError):
        as_signal(np.zeros(0))


def test_support_set_validation():
    T = SupportSet((0, 3), 5)
    assert T.size == 2
    assert np.array_equal(T.complement(), [1, 2, 4])
    with pytest.raises(ValueError):
        SupportSet((3, 3), 5)
    with pytest.raises(ValueError):
        SupportSet((5,), 5)
    with pytest.raises(ValueError):
        SupportSet((2, 1), 5)
    assert SupportSet((), 4).size == 0


def test_support_from_signal():
    T = SupportSet.from_signal(np.array([0.0, 2.0, 0.0, -1.0]))
    assert T.indices == (1, 3)


def test_measurement_matrix_frozen_and_validated():
    M = MeasurementMatrix(np.ones((2, 3)))
    assert M.field == "real" and (M.m, M.n) == (2, 3)
    with pytest.raises(ValueError):
        MeasurementMatrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        MeasurementMatrix(np.ones(4))
    with pytest.raises((ValueError, RuntimeError)):
        M.rows[0, 0] = 5.0


def test_measurement_matrix_accepts_non_contiguous_complex_layouts():
    # a transpose or a strided slice of a complex array is a valid matrix
    rng = np.random.default_rng(32)
    raw = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    for view in (raw.T, raw[:, ::2]):
        M = MeasurementMatrix(view)
        assert M.field == "complex" and np.array_equal(M.rows, view)
    bad = raw.T.copy()
    bad[1, 2] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="finite"):
        MeasurementMatrix(bad.T)


def test_measurement_matrix_raw_rows_roundtrip():
    rng = np.random.default_rng(31)
    raw = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    M = MeasurementMatrix(np.conj(raw) / np.sqrt(5))
    assert np.allclose(M.raw_rows(), raw, atol=1e-14)


# --- serialization -------------------------------------------------------------

def _csv_round_trip(A):
    buf = io.StringIO()
    matrix_to_csv(A, buf)
    buf.seek(0)
    return matrix_from_csv(buf)


def test_matrix_csv_round_trip_bit_exact_real():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((6, 4)) * np.exp(rng.uniform(-300, 300, (6, 4)) * np.log(10) / 64)
    back = _csv_round_trip(A)
    assert back.dtype == np.float64
    assert np.array_equal(back, A)  # bitwise, no tolerance


def test_matrix_csv_round_trip_bit_exact_complex():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    back = _csv_round_trip(A)
    assert back.dtype == np.complex128
    assert np.array_equal(back, A)


def test_matrix_csv_header_and_file_io(tmp_path):
    A = np.array([[1.5, -2.0], [0.25, 3.0], [0.0, -0.125]])
    path = tmp_path / "mat.csv"
    matrix_to_csv(A, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "# field=real, m=3, n=2"
    assert np.array_equal(matrix_from_csv(str(path)), A)


def test_vector_csv_round_trip():
    v = np.array([1.0, -0.3333333333333333, 7e-200])
    buf = io.StringIO()
    vector_to_csv(v, buf)
    buf.seek(0)
    assert np.array_equal(vector_from_csv(buf), v)


def test_csv_rejects_malformed_header():
    with pytest.raises(ValueError):
        matrix_from_csv(io.StringIO("1.0,2.0\n"))
