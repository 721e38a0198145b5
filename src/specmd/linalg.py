"""Dense symmetric-matrix kernels: RNG handles, the SymMatrix type, and the
exact eigen-solves behind the oracles (`leading_eigpair`) and the traces
(`full_spectrum`)."""

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


def leading_eigpair(a: np.ndarray) -> tuple:
    """Maximum eigenvalue and a unit eigenvector of a symmetric array.

    Takes a d x d array or a (k, d, d) stack and returns (values, vectors)
    of shapes () and (d,), or (k,) and (k, d): one exact dense LAPACK solve
    for the whole stack. When the top eigenvalue is degenerate any unit
    vector of the leading eigenspace may be returned.
    """
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

