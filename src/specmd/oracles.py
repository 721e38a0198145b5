"""Stochastic first-order oracles for the maximum-eigenvalue objective.

Three oracles share the GradSample output type: Gaussian rank-one smoothing,
the matrix-power quadratic-form oracle, and a deterministic exact subgradient
used by tests and reference runs. All stochastic draws come from an explicit
RNG handle so runs are exactly reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import SymMatrix, ensure_rng, mat_power_apply, sym_from
# unused here; perfbench's tracer wraps specmd.oracles.leading_eigpair by name
from .linalg import leading_eigpair  # noqa: F401


@dataclass(frozen=True)
class SmoothingOracleConfig:
    """Rank-one Gaussian smoothing: max over k draws of lambda_max(X + (eps/d) z z^T).

    Every draw is solved exactly by a dense symmetric eigen-solve (LAPACK),
    so the returned value and direction are exact for the drawn matrices
    and the oracle consumes only the k normal vectors from the stream.
    """

    k: int = 1
    epsilon: float = 1e-2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class PowerOracleConfig:
    """Matrix-power oracle <X^p u, u>^(1/p) with u uniform on [0,1]^d.

    With square_input the form is <X^(2p) u, u>^(1/p) = ||X^p u||^(2/p), the
    same oracle on X @ X: its value tracks lambda_max(X)^2 and stays well
    defined off the PSD cone. Either way a draw costs n matrix-vector
    products (n = 2p with square_input, p without) and one d x n x d GEMM
    for the gradient; no d x d x d product is formed.
    """

    p: int = 21
    square_input: bool = True

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("power order p must be >= 1")


@dataclass(frozen=True)
class ExactOracleConfig:
    """Deterministic subgradient of lambda_max (testing and reference runs)."""


@dataclass(frozen=True)
class GradSample:
    """One oracle draw: gradient matrix and a scalar objective estimate."""

    grad: SymMatrix
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"oracle value is not finite: {self.value}")
        if not np.isfinite(self.grad.data).all():
            raise ValueError("oracle gradient has non-finite entries")


def smoothing_grad(x: SymMatrix, cfg: SmoothingOracleConfig, rng) -> GradSample:
    """One draw of the rank-one smoothing oracle.

    Draws z_1..z_k i.i.d. standard normal (one (k, d) block, the same stream
    as k draws of size d), picks the draw maximizing
    lambda_max(X + (eps/d) z z^T), and returns that eigenvalue together with
    v v^T for a unit leading eigenvector v of the winning matrix (a valid
    subgradient direction of the max by Danskin's rule). All k matrices are
    solved by one stacked eigh call; ties go to the first draw.

    The input is centered by its mean diagonal entry before the eigen-solve.
    This makes the returned direction equivariant under X -> X + c*I by
    construction: the centered matrices coincide, so identical RNG streams
    give bitwise-identical gradients.
    """
    gen = ensure_rng(rng)
    d = x.dim
    offset = float(np.mean(np.diag(x.data)))
    base = x.data.copy()
    base[np.diag_indices(d)] -= offset

    z = gen.standard_normal((cfg.k, d))
    stack = (cfg.epsilon / d) * (z[:, :, None] * z[:, None, :])
    stack += base
    vals, vecs = np.linalg.eigh(stack)
    best = int(np.argmax(vals[:, -1]))
    v = vecs[best, :, -1]
    # v_i * v_j == v_j * v_i, so the outer product is exactly symmetric
    return GradSample(grad=SymMatrix(np.outer(v, v)),
                      value=float(vals[best, -1]) + offset)


def _krylov_value_grad(x: SymMatrix, u: np.ndarray, n: int, p: int) -> GradSample:
    """Value and gradient of <X^n u, u>^(1/p); power_value_grad is n = p."""
    k = np.array(mat_power_apply(x, n, u))
    s = float(k[n - n // 2] @ k[n // 2])
    if s <= 0.0:
        raise ValueError(
            f"<X^n u, u> = {s:g} is not positive for the sampled direction")
    value = s ** (1.0 / p)
    coef = value / (p * s)
    return GradSample(grad=sym_from((coef * k[:n]).T @ k[n - 1::-1]),
                      value=value)


def power_value_grad(x: SymMatrix, u: np.ndarray, p: int) -> GradSample:
    """Exact value and gradient of phi_u(X) = <X^p u, u>^(1/p) at a fixed u.

    With the Krylov vectors k_j = X^j u (j = 0..p), s = <X^p u, u> is
    k_(p-h) . k_h for h = p // 2, and the gradient is
    s^(1/p) / (p s) * sym(sum_(j<p) k_j k_(p-1-j)^T): the true gradient of
    the per-sample function, hence an unbiased draw once u is random. The
    sum is one GEMM of the stacked k_j against themselves in reverse order,
    so a call costs p matrix-vector products and one d x p x d GEMM; no
    d x d x d product is formed.
    """
    return _krylov_value_grad(x, u, p, p)


def power_grad(x: SymMatrix, cfg: PowerOracleConfig, rng) -> GradSample:
    """One draw of the matrix-power oracle with u uniform on [0,1]^d."""
    u = ensure_rng(rng).random(x.dim)
    n = 2 * cfg.p if cfg.square_input else cfg.p
    return _krylov_value_grad(x, u, n, cfg.p)


def exact_subgrad(x: SymMatrix) -> GradSample:
    """Deterministic subgradient v v^T at a unit leading eigenvector of X."""
    vals, vecs = np.linalg.eigh(x.data)
    v = vecs[:, -1]
    # v_i * v_j == v_j * v_i, so the outer product is exactly symmetric
    return GradSample(grad=SymMatrix(np.outer(v, v)), value=float(vals[-1]))


def resolve_oracle(spec):
    """Turn an oracle config (or any (X, rng) -> GradSample callable) into a callable."""
    if isinstance(spec, SmoothingOracleConfig):
        return lambda x, rng: smoothing_grad(x, spec, rng)
    if isinstance(spec, PowerOracleConfig):
        return lambda x, rng: power_grad(x, spec, rng)
    if isinstance(spec, ExactOracleConfig):
        return lambda x, rng: exact_subgrad(x)
    if callable(spec):
        return spec
    raise TypeError(f"unrecognized oracle spec: {spec!r}")


def oracle_echo(spec) -> dict:
    """JSON-friendly description of an oracle spec for trace headers."""
    if isinstance(spec, SmoothingOracleConfig):
        return {"kind": "smoothing", "k": spec.k, "epsilon": spec.epsilon}
    if isinstance(spec, PowerOracleConfig):
        return {"kind": "power", "p": spec.p, "square_input": spec.square_input}
    if isinstance(spec, ExactOracleConfig):
        return {"kind": "exact"}
    return {"kind": "custom", "repr": repr(spec)}
