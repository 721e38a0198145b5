"""Dense symmetric-matrix kernels: RNG handles, the SymMatrix type, and the
exact eigen-solves behind the oracles (`leading_eigpair`) and the traces
(`full_spectrum`)."""

import ctypes
from dataclasses import dataclass

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; distinct seeds give independent streams."""
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Immutable dense real symmetric d x d matrix.

    Entries are finite and exactly symmetric (checked at construction, in
    that order); use `sym_from` to symmetrize arbitrary square input. Built
    only where data enters the system (a box center, a start point X1,
    `load_instance`, `read_trace`) and for a trace's final point. Oracles,
    steps and the solver loop work on plain float64 arrays; `np.asarray`
    of a SymMatrix is its read-only `data`, and `np.array` a writable copy.
    """

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if not isinstance(a, np.ndarray) or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square 2-d array, got {getattr(a, 'shape', None)}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.isfinite(a).all():
            raise ValueError("entries are not finite")
        if not np.array_equal(a, a.T):
            raise ValueError("entries are not exactly symmetric; build via sym_from")
        a.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def sym_from(raw) -> SymMatrix:
    """Symmetrize a square array as (M + M^T)/2.

    Exact no-op for already-symmetric input, since (a + a)/2 == a in floating
    point.
    """
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square 2-d array, got shape {a.shape}")
    return SymMatrix((a + a.T) / 2.0)


try:  # LAPACK dsyevr, from the ILP64 OpenBLAS that numpy links
    from numpy.linalg import _umath_linalg
    _DSYEVR = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevr_64_
    # JOBZ, RANGE, UPLO; N .. INFO by reference; the three string lengths
    _DSYEVR.argtypes = ([ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18
                        + [ctypes.c_size_t] * 3)
    _DSYEVR.restype = None
except (ImportError, OSError, AttributeError):
    _DSYEVR = None


def leading_eigpair(a: np.ndarray) -> tuple:
    """Maximum eigenvalue and a unit eigenvector of a symmetric array.

    Takes a real d x d array or a (k, d, d) stack and returns (values,
    vectors) of shapes () and (d,), or (k,) and (k, d); for a degenerate top
    eigenvalue, any unit vector of its eigenspace. Each matrix is one exact
    dense LAPACK dsyevr call for its top eigenpair alone (RANGE='I', IL = IU
    = d; numpy's OpenBLAS symbol scipy_dsyevr_64_), 2-4x faster than eigh at
    d = 20 to 200. np.linalg.eigh solves instead without that symbol, for
    input that is not real and square, and when a call does not give INFO = 0
    and one eigenpair (as on NaN input).
    """
    a = np.asarray(a)
    if a.ndim > 2 and a.size:
        vals, vecs = zip(*map(leading_eigpair, a.reshape(-1, *a.shape[-2:])))
        return np.reshape(vals, a.shape[:-2]), np.reshape(vecs, a.shape[:-1])
    d = a.shape[-1]
    if _DSYEVR is not None and a.shape == (d, d) and np.isrealobj(a):
        # f = [A, W, Z, WORK (26d), VL, VU, ABSTOL], n = [N, LDA, IL, IU, LDZ,
        # LWORK, LIWORK, M, INFO, ISUPPZ, IWORK], held until the call returns
        e, f, n = d * d, np.zeros(d * d + 28 * d + 3), np.zeros(11 + 10 * d, np.int64)
        n[:7] = (d, d, d, d, d, 26 * d, 10 * d)
        fp, ip = (ctypes.addressof(ctypes.c_char.from_buffer(b)) for b in (f, n))
        w, z, work, vl = (fp + 8 * k for k in (e, e + d, e + 2 * d, e + 28 * d))
        f[:e].reshape(d, d).T[...] = a  # column-major, as LAPACK reads it
        _DSYEVR(b"V", b"I", b"L", ip, fp, ip + 8, vl, vl + 8, ip + 16, ip + 24,
                vl + 16, ip + 56, w, z, ip + 32, ip + 72, work, ip + 40,
                ip + 88, ip + 48, ip + 64, 1, 1, 1)
        if n[8] == 0 and n[7] == 1:
            return f[e], f[e + d:e + 2 * d].copy()
    vals, vecs = np.linalg.eigh(a)
    return vals[..., -1], vecs[..., -1]


def full_spectrum(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric array in nonincreasing order.

    Takes a plain square array (a SymMatrix passes its `.data`) or a
    (n, d, d) stack and returns a new array of shape (d,) or (n, d); exact
    dense solve, for traces and tests. Each matrix of a stack gets the same
    bits as a call on that matrix alone.
    """
    return np.linalg.eigvalsh(m)[..., ::-1].copy()

