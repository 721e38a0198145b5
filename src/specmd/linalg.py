"""Dense symmetric-matrix kernels: RNG handles, the SymMatrix type, and the
exact eigen-solves behind the oracles (`leading_eigpair`) and the traces
(`full_spectrum`)."""

import ctypes
import threading
from dataclasses import dataclass

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; distinct seeds give independent streams."""
    return np.random.Generator(np.random.Philox(int(seed)))


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Immutable dense real symmetric d x d matrix.

    Entries are finite and exactly symmetric (checked at construction, in
    that order). Built at four entry points: `gen_instance`'s center,
    `load_instance`, `read_trace` and `_run`'s final point. Nothing
    symmetrizes input on the way in, so a file's matrix that is not exactly
    symmetric is refused. Oracles, steps and the solver loop work on plain
    arrays; `np.asarray` of it is its read-only `data`, `np.array` a copy.
    """

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if not isinstance(a, np.ndarray) or a.ndim != 2 \
                or a.shape[0] != a.shape[1] or not a.size:
            raise ValueError("expected a nonempty square 2-d array, got "
                             f"{getattr(a, 'shape', None)}")
        if not np.isfinite(a).all():
            raise ValueError("entries are not finite")
        if not np.array_equal(a, a.T):
            raise ValueError("entries are not exactly symmetric")
        a.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)


try:  # LAPACK dsyevr, from the ILP64 OpenBLAS that numpy links
    from numpy.linalg import _umath_linalg
    _DSYEVR = ctypes.CDLL(_umath_linalg.__file__).scipy_dsyevr_64_
    # JOBZ, RANGE, UPLO; N .. INFO by reference; the three string lengths
    _DSYEVR.argtypes = ([ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18
                        + [ctypes.c_size_t] * 3)
    _DSYEVR.restype = None
except (ImportError, OSError, AttributeError):
    _DSYEVR = None


# dsyevr's buffers and arguments per order d, built on a thread's first call
# at d: per thread, since ctypes releases the GIL during the call
_WORKSPACES = threading.local()


def leading_eigpair(a: np.ndarray) -> tuple:
    """Maximum eigenvalue and a unit eigenvector of a symmetric array.

    Takes a real d x d array or a (k, d, d) stack and returns (values,
    vectors) of shapes () and (d,), or (k,) and (k, d); for a degenerate top
    eigenvalue, any unit vector of its eigenspace. Each matrix is one exact
    dense LAPACK dsyevr call for its top eigenpair alone (RANGE='I', IL = IU
    = d; numpy's OpenBLAS symbol scipy_dsyevr_64_), 2-4x faster than eigh at
    d = 20 to 200, into buffers each thread keeps per d. np.linalg.eigh
    solves instead without that symbol, for input that is not real and
    square, and for a matrix whose call does not give INFO = 0 and one
    eigenpair (as on NaN input).
    """
    a = np.asarray(a)
    d = a.shape[-1]
    if _DSYEVR is None or a.shape[-2:] != (d, d) or a.dtype.kind == "c" \
            or not a.size:
        vals, vecs = np.linalg.eigh(a)
        return vals[..., -1], vecs[..., -1]
    spaces = _WORKSPACES.__dict__
    if d not in spaces:
        # f = [A, W, Z, WORK (26d), VL, VU, ABSTOL], n = [N, LDA, IL, IU, LDZ,
        # LWORK, LIWORK, M, INFO, ISUPPZ, IWORK]; LAPACK reads A column-major
        e, f, n = d * d, np.zeros(d * d + 28 * d + 3), np.zeros(11 + 10 * d, np.int64)
        n[:7] = (d, d, d, d, d, 26 * d, 10 * d)
        fp, ip = (ctypes.addressof(ctypes.c_char.from_buffer(b)) for b in (f, n))
        w, z, work, vl = (fp + 8 * k for k in (e, e + d, e + 2 * d, e + 28 * d))
        spaces[d] = (f[:e].reshape(d, d).T, f[e:e + 2 * d], n[7:9], (
            b"V", b"I", b"L", ip, fp, ip + 8, vl, vl + 8, ip + 16, ip + 24,
            vl + 16, ip + 56, w, z, ip + 32, ip + 72, work, ip + 40, ip + 88,
            ip + 48, ip + 64, 1, 1, 1))
    matrix, top, found, args = spaces[d]
    stack = a.reshape(-1, d, d)
    vals, vecs = np.empty(len(stack)), np.empty((len(stack), d))
    for i, m in enumerate(stack):
        matrix[...] = m
        _DSYEVR(*args)
        if found.tolist() == [1, 0]:
            vals[i], vecs[i] = top[0], top[d:]
        else:
            w, v = np.linalg.eigh(m)
            vals[i], vecs[i] = w[-1], v[:, -1]
    # [()] turns a 2-d input's 0-d value into a scalar, as eigh gives it
    return vals.reshape(a.shape[:-2])[()], vecs.reshape(a.shape[:-1])


def full_spectrum(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric array in nonincreasing order.

    Takes a plain square array (a SymMatrix passes its `.data`) or a
    (n, d, d) stack and returns a new array of shape (d,) or (n, d); exact
    dense solve, for traces and tests. Each matrix of a stack gets the same
    bits as a call on that matrix alone.
    """
    return np.linalg.eigvalsh(m)[..., ::-1].copy()

