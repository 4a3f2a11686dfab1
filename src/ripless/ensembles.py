"""Sensing-vector ensembles: sampling, coherence, and isotropy checks.

An ensemble is a distribution F over raw sensing vectors a in C^n with the
isotropy property E[a a*] = I. A measurement matrix stacks m independent
draws as rows a_k*/sqrt(m). Seven families are provided; each knows how to
sample rows, and each either exposes its coherence mu(F) = sup_t |a(t)|^2
in closed form or gets it from the stochastic-coherence solver.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import MeasurementMatrix

__all__ = [
    "FAMILIES",
    "EnsembleSpec",
    "gaussian",
    "binary",
    "subsampled_orthogonal",
    "subsampled_dft",
    "random_convolution",
    "random_convolution_pulse",
    "coordinate_sampling",
    "continuous_fourier",
    "sample_rows",
    "build_matrix",
    "deterministic_coherence",
    "stochastic_coherence",
    "gaussian_row_tail",
    "isotropy_check",
]

FAMILIES = (
    "gaussian",
    "binary",
    "subsampled_orthogonal",
    "subsampled_dft",
    "random_convolution",
    "coordinate_sampling",
    "continuous_fourier",
)

_COMPLEX_FAMILIES = {"subsampled_dft", "continuous_fourier"}


@dataclass(frozen=True)
class EnsembleSpec:
    """A named row distribution over C^n.

    Parameters
    ----------
    family : str
        One of FAMILIES.
    n : int
        Ambient signal dimension.
    seed : int or None
        Default seed for matrix construction; callers may override.
    params : dict
        Family-specific data: `u` (n x n array, U*U = n I) for
        subsampled_orthogonal, `g` (length-n real pulse with flat Fourier
        magnitude sqrt(n)) for random_convolution. Arrays are frozen.
    """

    family: str
    n: int
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        params = dict(self.params)
        if self.family == "subsampled_orthogonal":
            u = np.asarray(params.get("u"))
            if u.shape != (self.n, self.n):
                raise ValueError("subsampled_orthogonal needs an n x n matrix under params['u']")
            dev = np.abs(u.conj().T @ u - self.n * np.eye(self.n)).max()
            if dev > 1e-8 * self.n:
                raise ValueError(f"U*U = nI violated, max deviation {dev:.3g}")
            u = u.astype(complex if np.iscomplexobj(u) else float)
            u.setflags(write=False)
            params["u"] = u
        elif self.family == "random_convolution":
            g = np.asarray(params.get("g"), dtype=float)
            if g.shape != (self.n,):
                raise ValueError("random_convolution needs a length-n real pulse under params['g']")
            mags = np.abs(np.fft.fft(g))
            if np.abs(mags - math.sqrt(self.n)).max() > 1e-8 * math.sqrt(self.n):
                raise ValueError("pulse must have flat Fourier magnitude sqrt(n)")
            g.setflags(write=False)
            params["g"] = g
        elif params:
            raise ValueError(f"family {self.family!r} takes no params")
        object.__setattr__(self, "params", params)

    # equal when they serialize alike: the generated field-wise versions
    # compare the params arrays elementwise and cannot hash a dict
    def __eq__(self, other):
        if not isinstance(other, EnsembleSpec):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self):
        return hash(self.to_json())

    @property
    def is_complex(self) -> bool:
        if self.family == "subsampled_orthogonal":
            return bool(np.iscomplexobj(self.params["u"]))
        return self.family in _COMPLEX_FAMILIES

    def to_dict(self) -> dict:
        d = {"family": self.family, "n": self.n, "seed": self.seed}
        if self.family == "subsampled_orthogonal":
            u = self.params["u"]
            if np.iscomplexobj(u):
                d["params"] = {"u_re": u.real.tolist(), "u_im": u.imag.tolist()}
            else:
                d["params"] = {"u": u.tolist()}
        elif self.family == "random_convolution":
            d["params"] = {"g": self.params["g"].tolist()}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "EnsembleSpec":
        for key in ("family", "n"):
            if key not in d:
                raise ValueError(f"ensemble is missing required key '{key}'")
        params = dict(d.get("params") or {})
        if "u_re" in params:
            params = {"u": np.array(params["u_re"]) + 1j * np.array(params["u_im"])}
        elif "u" in params:
            params = {"u": np.array(params["u"])}
        elif "g" in params:
            params = {"g": np.array(params["g"])}
        return EnsembleSpec(d["family"], int(d["n"]), d.get("seed"), params)

    @staticmethod
    def from_json(text: str) -> "EnsembleSpec":
        return EnsembleSpec.from_dict(json.loads(text))


def gaussian(n, seed=None):
    return EnsembleSpec("gaussian", n, seed)


def binary(n, seed=None):
    return EnsembleSpec("binary", n, seed)


def subsampled_orthogonal(u, seed=None):
    u = np.asarray(u)
    return EnsembleSpec("subsampled_orthogonal", u.shape[0], seed, {"u": u})


def subsampled_dft(n, seed=None):
    return EnsembleSpec("subsampled_dft", n, seed)


def random_convolution(g, seed=None):
    g = np.asarray(g, dtype=float)
    return EnsembleSpec("random_convolution", g.size, seed, {"g": g})


def coordinate_sampling(n, seed=None):
    return EnsembleSpec("coordinate_sampling", n, seed)


def continuous_fourier(n, seed=None):
    return EnsembleSpec("continuous_fourier", n, seed)


def random_convolution_pulse(n, rng) -> np.ndarray:
    """A real pulse with flat Fourier magnitude sqrt(n), random phases.

    Phases are drawn uniformly with the conjugate symmetry a real inverse
    FFT requires; the DC bin (and Nyquist bin for even n) get sign +-1.
    The resulting spread-out pulse keeps the convolution ensemble's
    coherence near 2 log n rather than the worst case n.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    ghat = np.zeros(n, dtype=complex)
    ghat[0] = rng.choice([-1.0, 1.0])
    half = n // 2
    for k in range(1, (n + 1) // 2):
        phase = np.exp(2j * np.pi * rng.random())
        ghat[k] = phase
        ghat[n - k] = np.conj(phase)
    if n % 2 == 0:
        ghat[half] = rng.choice([-1.0, 1.0])
    # unit phases scaled to sqrt(n); conjugate symmetry makes the ifft real
    return np.fft.ifft(ghat * math.sqrt(n)).real


def _as_generator(rng, fallback_seed=None):
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        rng = fallback_seed
    return np.random.default_rng(rng)


# Largest n whose DFT table is cached: 16 MiB of complex128 at n = 1024.
_DFT_TABLE_MAX_N = 1024


@functools.lru_cache(maxsize=4)
def _dft_table(n: int) -> np.ndarray:
    """The read-only n x n table exp(2 pi i f t / n), f, t = 0..n-1."""
    W = np.exp((2j * np.pi / n) * np.outer(np.arange(n), np.arange(n)))
    W.setflags(write=False)
    return W


def sample_rows(spec: EnsembleSpec, m: int, rng, cols=None) -> np.ndarray:
    """Draw m raw sensing vectors as the rows of an (m, k) array.

    `cols` restricts output to those column indices. For families with
    independent entries this draws fewer variates, so restricted and full
    draws from the same generator state differ; use one or the other
    consistently within an experiment. Subsampled-DFT rows are gathered
    from a cached table of the n-th roots of unity for n up to 1024, each
    entry computed by the same expression as the direct formula used above
    that size, so the rows are bit-identical either way.
    """
    rng = _as_generator(rng, spec.seed)
    n = spec.n
    cols = np.arange(n) if cols is None else np.asarray(cols, dtype=int)
    k = cols.size
    fam = spec.family
    if fam == "gaussian":
        return rng.standard_normal((m, k))
    if fam == "binary":
        return rng.integers(0, 2, size=(m, k)).astype(float) * 2.0 - 1.0
    if fam == "subsampled_orthogonal":
        picks = rng.integers(0, n, size=m)
        return spec.params["u"][np.ix_(picks, cols)]
    if fam == "subsampled_dft":
        freqs = rng.integers(0, n, size=m)
        if n > _DFT_TABLE_MAX_N:
            return np.exp((2j * np.pi / n) * np.outer(freqs, cols))
        return _dft_table(n)[np.ix_(freqs, cols)]
    if fam == "random_convolution":
        shifts = rng.integers(0, n, size=m)
        g = spec.params["g"]
        return g[(cols[None, :] - shifts[:, None]) % n]
    if fam == "coordinate_sampling":
        picks = rng.integers(0, n, size=m)
        return math.sqrt(n) * (picks[:, None] == cols[None, :]).astype(float)
    if fam == "continuous_fourier":
        omega = rng.random(m)
        return np.exp(2j * np.pi * np.outer(omega, cols))
    raise AssertionError(fam)


def build_matrix(spec: EnsembleSpec, m: int, rng=None) -> MeasurementMatrix:
    """Stack m fresh draws into the normalized matrix with rows a_k*/sqrt(m).

    `rng` may be an integer seed, a Generator, or None (falls back to
    spec.seed). The seed is recorded in the result when it is knowable.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    seed_known = rng if isinstance(rng, (int, np.integer)) else (spec.seed if rng is None else None)
    raw = sample_rows(spec, m, _as_generator(rng, spec.seed))
    rows = np.conj(raw) / math.sqrt(m)
    return MeasurementMatrix(rows, ensemble=spec.family, seed=seed_known)


def deterministic_coherence(spec: EnsembleSpec) -> float:
    """Closed-form coherence mu(F) = sup over draws of max_t |a(t)|^2.

    Raises for the Gaussian family, whose coherence is only stochastic;
    use stochastic_coherence with a tail bound there.
    """
    fam = spec.family
    if fam == "gaussian":
        raise ValueError("gaussian rows are unbounded; use stochastic_coherence")
    if fam in ("binary", "subsampled_dft", "continuous_fourier"):
        return 1.0
    if fam == "subsampled_orthogonal":
        return float(np.max(np.abs(spec.params["u"]) ** 2))
    if fam == "random_convolution":
        return float(np.max(spec.params["g"] ** 2))
    if fam == "coordinate_sampling":
        return float(spec.n)
    raise AssertionError(fam)


def gaussian_row_tail(n: int):
    """Tail bound f(t) >= P(max_t |a(t)|^2 >= t) for standard normal rows.

    Computed through erfc, which stays accurate far past where naive
    integration of the density underflows (t up to about 700).
    """

    from scipy import special  # imported here: import ripless need not load it

    def f(t):
        return float(min(1.0, n * special.erfc(math.sqrt(max(t, 0.0) / 2.0))))

    return f


def stochastic_coherence(spec: EnsembleSpec, m: int, tail, lo: float = 1.0, hi: float = 1e6,
                         rel_tol: float = 1e-6) -> float:
    """Smallest mu making the truncated ensemble behave like a bounded one.

    Given a nonincreasing tail bound f(t) >= P(max_t |a(t)|^2 >= t), finds
    the smallest mu in [lo, hi] (binary search to `rel_tol` relative) with

        n mu f(mu) + n * int_mu^inf f(t) dt  <=  (1/20) n^(-1/2)
        f(mu) <= 1/(n m)

    The first display controls the second moment lost to truncation, the
    second the chance any of the m rows is truncated at all.

    Raises ValueError when no mu <= hi satisfies both conditions.
    """
    from scipy import integrate  # imported here: import ripless need not load it

    n = spec.n
    budget = 0.05 / math.sqrt(n)

    def ok(mu):
        fmu = tail(mu)
        if fmu > 1.0 / (n * m):
            return False
        tail_mass, _ = integrate.quad(tail, mu, np.inf, epsabs=1e-9, limit=200)
        return n * mu * fmu + n * tail_mass <= budget

    if not ok(hi):
        raise ValueError(f"no admissible coherence below {hi:g} for this tail")
    if ok(lo):
        return lo
    a, b = lo, hi
    while (b - a) > rel_tol * b:
        mid = 0.5 * (a + b)
        if ok(mid):
            b = mid
        else:
            a = mid
    return b


def isotropy_check(spec: EnsembleSpec, num_rows: int, rng=None) -> float:
    """Operator-norm deviation of the empirical second moment from identity.

    Averages a a* over `num_rows` fresh draws and returns
    ||mean - I||. The deviation decays like sqrt(n / num_rows) for
    isotropic families.
    """
    raw = sample_rows(spec, num_rows, _as_generator(rng, spec.seed))
    G = raw.T @ raw.conj() / num_rows
    dev = G - np.eye(spec.n)
    return float(np.max(np.abs(np.linalg.eigvalsh(dev))))

