"""Dense symmetric-matrix kernels: construction, inner products, eigen-solvers."""

import math
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations before meeting its residual target.

    Carries the best iterate seen so far so callers can decide whether a
    coarser answer is still usable.
    """

    def __init__(self, message, best_lambda, best_vector, residual, iterations):
        super().__init__(message)
        self.best_lambda = best_lambda
        self.best_vector = best_vector
        self.residual = residual
        self.iterations = iterations


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; distinct seeds give independent streams."""
    return np.random.Generator(np.random.Philox(int(seed)))


def ensure_rng(rng) -> np.random.Generator:
    """Accept a Generator or an integer seed (None means seed 0)."""
    if rng is None:
        return make_rng(0)
    if isinstance(rng, np.random.Generator):
        return rng
    return make_rng(int(rng))


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Immutable dense real symmetric d x d matrix.

    Entries are exactly symmetric (checked at construction); use `sym_from`
    to symmetrize arbitrary square input.
    """

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if not isinstance(a, np.ndarray) or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square 2-d array, got {getattr(a, 'shape', None)}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.array_equal(a, a.T):
            raise ValueError("entries are not exactly symmetric; build via sym_from")
        a.setflags(write=False)

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


def sym_identity(d: int) -> SymMatrix:
    return SymMatrix(np.eye(d))


def sym_zeros(d: int) -> SymMatrix:
    return SymMatrix(np.zeros((d, d)))


def frob_inner(a: SymMatrix, b: SymMatrix) -> float:
    """Frobenius inner product sum_ij A_ij B_ij."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.tensordot(a.data, b.data))


def _dominance_shift(a: np.ndarray) -> float:
    """Shift c >= -lambda_min(M) from the Gershgorin disc bound.

    With this shift M + c*I is positive semidefinite, so its eigenvalue of
    largest magnitude is the maximum one and plain power iteration targets
    the right eigenpair.
    """
    radii = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    lower = float(np.min(np.diag(a) - radii))
    return max(0.0, -lower)


def _ritz_pair(u, wu, v, w):
    """Top Ritz pair of span{u, v} given the images wu = A u and w = A v.

    Returns (rho, x, residual_norm) for the shifted operator, with rho the
    Rayleigh quotient of the unit vector x, or None when the two iterates are
    too parallel for a stable two-dimensional solve. Costs a handful of dot
    products and no extra matrix-vector product.
    """
    c = float(u @ v)
    det = 1.0 - c * c
    if det <= 1e-12:
        return None
    auu = float(u @ wu)
    avv = float(v @ w)
    auv = 0.5 * (float(u @ w) + float(v @ wu))
    # top eigenpair of the pencil (A_s, G) with G = [[1, c], [c, 1]]
    b11 = (auu - c * auv) / det
    b12 = (auv - c * avv) / det
    b21 = (auv - c * auu) / det
    b22 = (avv - c * auv) / det
    half_tr = 0.5 * (b11 + b22)
    disc = max(half_tr * half_tr - (b11 * b22 - b12 * b21), 0.0)
    theta = half_tr + math.sqrt(disc)
    y1, y2 = b12, theta - b11
    if y1 == 0.0 and y2 == 0.0:
        y1, y2 = theta - b22, b21
    if y1 == 0.0 and y2 == 0.0:
        return None
    x = y1 * u + y2 * v
    norm = math.sqrt(float(x @ x))
    if norm < 1e-150:
        return None
    x = x / norm
    mx = (y1 * wu + y2 * w) / norm
    rho = float(x @ mx)
    r = mx - rho * x
    return rho, x, math.sqrt(float(r @ r))


def leading_eigpair(m: SymMatrix, tol: float = 1e-8, max_iter: int | None = None,
                    rng=None, plateau: float | None = None) -> tuple[float, np.ndarray]:
    """Maximum eigenvalue and a unit eigenvector via shifted power iteration.

    Iterates on M + c*I with a Gershgorin shift c so the top eigenvalue is
    dominant for any symmetric input. Stops when the residual satisfies
    ||M v - lambda v|| <= tol * max(1, |lambda|); raises ConvergenceError
    (carrying the best iterate) if max_iter is exhausted first. Near
    convergence, a two-dimensional Rayleigh-Ritz refinement over the last
    two iterates splits nearly degenerate top pairs that plain power steps
    cannot separate.

    When three or more top eigenvalues cluster within a width delta, the
    residual can still plateau near delta: every vector of the cluster is
    then an equally good answer. Passing `plateau` bounds the time spent in
    that regime: once the residual reaches plateau * max(1, |lambda|) the
    iteration keeps polishing toward tol for a fixed extra budget only, then
    returns its best iterate. When the top eigenvalue is exactly degenerate
    any vector of the leading eigenspace may be returned.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = m.dim
    if max_iter is None:
        max_iter = 50 * d
    gen = ensure_rng(rng)
    shift = _dominance_shift(m.data)
    a = m.data if shift == 0.0 else m.data + shift * np.eye(d)

    v = gen.standard_normal(d)
    norm = math.sqrt(float(v @ v))
    if norm == 0.0:
        v = np.full(d, 1.0)
        norm = math.sqrt(d)
    v = v / norm

    polish_budget = 75
    since_plateau = 0
    best_res = np.inf
    best_lam = 0.0
    best_v = v
    u = None
    wu = None
    for _ in range(max_iter):
        w = a @ v
        lam_shifted = float(v @ w)
        r = w - lam_shifted * v
        residual = math.sqrt(float(r @ r))
        lam = lam_shifted - shift
        if residual < best_res:
            best_res, best_lam, best_v = residual, lam, v
        if residual <= tol * max(1.0, abs(lam)):
            return lam, v
        if u is not None and residual <= 1e-2 * max(1.0, abs(lam)):
            ritz = _ritz_pair(u, wu, v, w)
            if ritz is not None:
                rho_s, x, res_x = ritz
                rho = rho_s - shift
                if res_x < best_res:
                    best_res, best_lam, best_v = res_x, rho, x
                if res_x <= tol * max(1.0, abs(rho)):
                    return rho, x
        if plateau is not None and best_res <= plateau * max(1.0, abs(best_lam)):
            since_plateau += 1
            if since_plateau >= polish_budget:
                return best_lam, best_v
        u, wu = v, w
        v = w / math.sqrt(float(w @ w))

    raise ConvergenceError(
        f"power iteration: residual {best_res:.3e} above target "
        f"{tol:g} * max(1, |lambda|) after {max_iter} iterations",
        best_lambda=best_lam, best_vector=best_v,
        residual=best_res, iterations=max_iter)


def full_spectrum(m: SymMatrix) -> np.ndarray:
    """All eigenvalues in nonincreasing order (exact solve, trace/test use)."""
    return np.linalg.eigvalsh(m.data)[::-1].copy()


def mat_power_apply(x: SymMatrix, p: int, u: np.ndarray) -> list[np.ndarray]:
    """All Krylov vectors [u, Xu, X^2 u, ..., X^p u]."""
    if p < 1:
        raise ValueError("power p must be >= 1")
    u = np.asarray(u, dtype=float)
    if u.shape != (x.dim,):
        raise ValueError(f"vector shape {u.shape} does not match dimension {x.dim}")
    vectors = [u]
    for _ in range(p):
        vectors.append(x.data @ vectors[-1])
    return vectors
