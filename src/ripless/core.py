"""Shared numerical primitives: signals, supports, measurement matrices.

Everything downstream (ensembles, solvers, certificates, estimates) works in
the normalized sensing model: a measurement matrix holds rows a_k*/sqrt(m)
where a_k is the raw sampled sensing vector, so that A*A averages to the
identity when the row distribution is isotropic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupportSet",
    "MeasurementMatrix",
    "MeasurementVector",
    "as_signal",
    "best_s_approx",
    "sign_pattern",
    "max_column_norm",
    "realify",
    "matrix_to_csv",
    "matrix_from_csv",
    "vector_to_csv",
    "vector_from_csv",
]


def as_signal(x) -> np.ndarray:
    """Validate and return a signal as a 1-d float array.

    Signals are real vectors of length >= 1 with finite entries. Complex
    input is rejected; measurements may be complex, signals never are.
    """
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise ValueError("signals are real; got complex entries")
    arr = arr.astype(float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"signal must be a 1-d vector of length >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal entries must be finite")
    return arr


@dataclass(frozen=True)
class SupportSet:
    """Sorted set of column indices into a length-n signal.

    Indices are stored 0-based, strictly increasing, all within [0, n).
    The empty support is valid.
    """

    indices: tuple
    n: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if self.n < 1:
            raise ValueError("ambient dimension n must be >= 1")
        if any(i < 0 or i >= self.n for i in idx):
            raise ValueError(f"support indices must lie in [0, {self.n})")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("support indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def complement(self) -> np.ndarray:
        """Indices outside the support, ascending."""
        mask = np.ones(self.n, dtype=bool)
        mask[list(self.indices)] = False
        return np.flatnonzero(mask)

    def to_array(self) -> np.ndarray:
        return np.array(self.indices, dtype=int)

    @staticmethod
    def from_signal(x, n=None) -> "SupportSet":
        x = np.asarray(x)
        return SupportSet(tuple(np.flatnonzero(x != 0)), n if n is not None else x.size)


@dataclass(frozen=True)
class MeasurementMatrix:
    """Normalized sensing matrix with provenance.

    Parameters
    ----------
    rows : (m, n) ndarray
        The normalized matrix A; row k is a_k*/sqrt(m) for the raw sampled
        sensing vector a_k. Real or complex.
    ensemble : str or None
        Family name of the generating ensemble, when known.
    seed : int or None
        Seed the rows were drawn with, when known. Together with `ensemble`
        this is enough to re-draw the matrix.

    The array is frozen on construction; copy it to modify.
    """

    rows: np.ndarray
    ensemble: str | None = None
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr = arr.astype(complex if np.iscomplexobj(arr) else float)
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def field(self) -> str:
        """'real' or 'complex', by entry dtype."""
        return "complex" if np.iscomplexobj(self.rows) else "real"

    def raw_rows(self) -> np.ndarray:
        """The sampled sensing vectors a_k, undoing conjugation and scaling."""
        return np.conj(self.rows) * np.sqrt(self.m)


@dataclass(frozen=True)
class MeasurementVector:
    """Measurement outcome y together with its per-measurement noise scale."""

    values: np.ndarray
    sigma_m: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError("measurement vector must be 1-d")
        arr = arr.astype(complex if np.iscomplexobj(arr) else float)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if not (self.sigma_m >= 0):
            raise ValueError("sigma_m must be nonnegative")

    @property
    def m(self) -> int:
        return self.values.size


def best_s_approx(x, s: int) -> np.ndarray:
    """Best s-sparse approximation of x in every l_p norm.

    Keeps the s largest-magnitude entries and zeroes the rest. Magnitude
    ties break toward the lowest index, so the result is deterministic.

    Parameters
    ----------
    x : array_like
        Input signal.
    s : int
        Number of entries to keep, 0 <= s <= len(x). s >= len(x) returns
        a copy of x.
    """
    x = np.asarray(x, dtype=float)
    if s < 0:
        raise ValueError("s must be nonnegative")
    out = np.zeros_like(x)
    if s == 0:
        return out
    # stable sort on -|x| keeps the earliest index among equal magnitudes
    order = np.argsort(-np.abs(x), kind="stable")
    keep = order[: min(s, x.size)]
    out[keep] = x[keep]
    return out


def sign_pattern(x) -> np.ndarray:
    """Componentwise sign with sign_pattern(0) = 0."""
    return np.sign(np.asarray(x, dtype=float))


def matrix_rows(A) -> np.ndarray:
    """The array of a MeasurementMatrix, or A itself as an array."""
    return A.rows if isinstance(A, MeasurementMatrix) else np.asarray(A)


def max_column_norm(A) -> float:
    """Largest Euclidean column norm, written ||A||_{1,2}."""
    A = matrix_rows(A)
    if A.shape[1] == 0:
        return 0.0
    return float(np.sqrt(np.max(np.sum(np.abs(A) ** 2, axis=0))))


def realify(A, y=None):
    """Turn a complex sensing system into an equivalent real one.

    Stacks [Re A; Im A] (and [Re y; Im y]), doubling the number of rows.
    For real x this preserves ||A x||_2 and the measurement content
    exactly; solvers accept only real systems, so complex ensembles pass
    through here first. Real input passes through with a zero imaginary
    block omitted entirely (A returned unchanged).

    Returns the matrix alone when y is None, else the pair (A', y').
    MeasurementMatrix input yields MeasurementMatrix output with the
    provenance carried over.
    """
    wrap = isinstance(A, MeasurementMatrix)
    meta = (A.ensemble, A.seed) if wrap else (None, None)
    M = matrix_rows(A)
    if np.iscomplexobj(M):
        Mr = np.vstack([M.real, M.imag])
    else:
        Mr = np.array(M, dtype=float)
    out_A = MeasurementMatrix(Mr, ensemble=meta[0], seed=meta[1]) if wrap else Mr
    if y is None:
        return out_A
    yv = y.values if isinstance(y, MeasurementVector) else np.asarray(y)
    sig = y.sigma_m if isinstance(y, MeasurementVector) else None
    if np.iscomplexobj(yv):
        yr = np.concatenate([yv.real, yv.imag])
    else:
        yr = np.array(yv, dtype=float)
    if np.iscomplexobj(M) and yr.size != Mr.shape[0]:
        raise ValueError("y must be complex alongside complex A")
    out_y = MeasurementVector(yr, sig) if sig is not None else yr
    return out_A, out_y


# ---------------------------------------------------------------------------
# CSV serialization. One header line `# field=..., m=..., n=...`, then one
# row per line. Complex entries are written as re,im pairs in adjacent
# columns. repr() round-trips float64 exactly, which keeps save/load
# bit-identical.


def _write_rows(buf, arr):
    complex_field = np.iscomplexobj(arr)
    for row in np.atleast_2d(arr):
        if complex_field:
            cells = []
            for z in row:
                cells.append(repr(float(z.real)))
                cells.append(repr(float(z.imag)))
        else:
            cells = [repr(float(v)) for v in row]
        buf.write(",".join(cells) + "\n")


def _serialize(arr, path_or_buf):
    arr = np.atleast_2d(arr)
    field_tag = "complex" if np.iscomplexobj(arr) else "real"
    header = f"# field={field_tag}, m={arr.shape[0]}, n={arr.shape[1]}\n"
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(header)
        _write_rows(path_or_buf, arr)
    else:
        with open(path_or_buf, "w", encoding="ascii") as fh:
            fh.write(header)
            _write_rows(fh, arr)


def _deserialize(path_or_buf):
    if hasattr(path_or_buf, "read"):
        text = path_or_buf.read()
    else:
        with open(path_or_buf, "r", encoding="ascii") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing header line")
    meta = {}
    for part in lines[0].lstrip("# ").split(","):
        k, _, v = part.strip().partition("=")
        meta[k.strip()] = v.strip()
    m, n = int(meta["m"]), int(meta["n"])
    complex_field = meta["field"] == "complex"
    rows = []
    for ln in lines[1:]:
        cells = [float(c) for c in ln.split(",")]
        if complex_field:
            re, im = cells[0::2], cells[1::2]
            rows.append([complex(a, b) for a, b in zip(re, im)])
        else:
            rows.append(cells)
    arr = np.array(rows, dtype=complex if complex_field else float)
    if arr.shape != (m, n):
        raise ValueError(f"header says ({m}, {n}), data is {arr.shape}")
    return arr


def matrix_to_csv(A, path_or_buf) -> None:
    """Write a matrix (or MeasurementMatrix) as CSV with a shape header."""
    _serialize(matrix_rows(A), path_or_buf)


def matrix_from_csv(path_or_buf) -> np.ndarray:
    return _deserialize(path_or_buf)


def vector_to_csv(v, path_or_buf) -> None:
    """Write a vector as a single-column CSV with a shape header."""
    vv = v.values if isinstance(v, MeasurementVector) else np.asarray(v)
    if vv.ndim != 1:
        raise ValueError("expected a 1-d vector")
    _serialize(vv.reshape(-1, 1), path_or_buf)


def vector_from_csv(path_or_buf) -> np.ndarray:
    arr = _deserialize(path_or_buf)
    if arr.shape[1] != 1:
        raise ValueError("expected a single-column vector file")
    return arr[:, 0]

