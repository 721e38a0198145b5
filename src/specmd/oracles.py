"""Stochastic first-order oracles for the maximum-eigenvalue objective.

An oracle is a plain function (X, rng) -> (value, grad) on arrays: a float
estimate of lambda_max(X) and an exactly symmetric d x d (sub)gradient
array. Three are built in: Gaussian rank-one smoothing, the matrix-power
quadratic-form oracle, and a deterministic exact subgradient used by tests
and reference runs. Their config classes are the callables themselves:
SmoothingOracleConfig(k=2)(x, rng) is one draw. All stochastic draws come
from an explicit RNG handle so runs are exactly reproducible.
"""

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import leading_eigpair


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_option(name, value, ok, need):
    if not ok:
        raise ValueError(f"oracle option {name} must be {need}, got {value!r}")


@dataclass(frozen=True)
class SmoothingOracleConfig:
    """Rank-one Gaussian smoothing: max over k draws of lambda_max(X + (eps/d) z z^T).

    Every draw is solved exactly by a dense LAPACK solve for its top
    eigenpair alone, so the returned value and direction are exact for the
    drawn matrices and the oracle consumes only the k normal vectors.

    With k = 1 the draw is unbiased for the smoothed objective
    f_eps(X) = E lambda_max(X + (eps/d) z z^T), which lies in
    [lambda_max(X), lambda_max(X) + eps]. Runs on this oracle therefore
    converge to the eps-smoothed problem, whose minimizer is within eps of
    the true optimum, and their true gap need not shrink below that floor:
    a campaign's target_precision sits above it only if it is at least eps
    (the default campaign has both at 1e-2).
    """

    kind = "smoothing"
    k: int = 1
    epsilon: float = 1e-2

    def __call__(self, x, rng):
        return smoothing_grad(x, self, rng)

    def __post_init__(self):
        _check_option("k", self.k, _is_int(self.k) and self.k >= 1,
                      "an integer >= 1")
        _check_option("epsilon", self.epsilon, _is_real(self.epsilon)
                      and 0 < self.epsilon < math.inf, "positive and finite")


@dataclass(frozen=True)
class PowerOracleConfig:
    """Matrix-power oracle <X^p u, u>^(1/p) with u uniform on [0,1]^d.

    With square_input the form is <X^(2p) u, u>^(1/p) = ||X^p u||^(2/p), the
    same oracle on X @ X: its value tracks max(lambda_max(X)^2,
    lambda_min(X)^2), the top eigenvalue of X @ X, and stays well defined
    off the PSD cone. Either way a draw costs n - 1 matvecs (n = 2p with
    square_input, p without) and one d x (n // 2) x d GEMM for an exactly
    symmetric gradient; no d x d x d product is formed.
    """

    kind = "power"
    p: int = 21
    square_input: bool = True

    def __call__(self, x, rng):
        return power_grad(x, self, rng)

    def __post_init__(self):
        _check_option("p", self.p, _is_int(self.p) and self.p >= 1,
                      "an integer >= 1")
        _check_option("square_input", self.square_input,
                      isinstance(self.square_input, bool), "true or false")


@dataclass(frozen=True)
class ExactOracleConfig:
    """Deterministic subgradient of lambda_max (testing and reference runs)."""

    kind = "exact"

    def __call__(self, x, rng):
        return exact_subgrad(x)


def smoothing_grad(x: np.ndarray, cfg: SmoothingOracleConfig, rng) -> tuple:
    """One draw of the rank-one smoothing oracle.

    Draws z_1..z_k i.i.d. standard normal (one (k, d) block, the same stream
    as k draws of size d), picks the draw maximizing
    lambda_max(X + (eps/d) z z^T), and returns that eigenvalue together with
    v v^T for a unit leading eigenvector v of the winning matrix (a valid
    subgradient direction of the max by Danskin's rule). One leading_eigpair
    call solves each of the k matrices; ties go to the first draw.

    The input is centered by its mean diagonal entry before the solve.
    This makes the returned direction equivariant under X -> X + c*I by
    construction: the centered matrices coincide, so identical RNG streams
    give bitwise-identical gradients.
    """
    base = np.array(x, dtype=float)
    d = base.shape[0]
    offset = float(base.trace() / d)
    base.flat[::d + 1] -= offset

    z = rng.standard_normal((cfg.k, d))
    stack = (cfg.epsilon / d) * (z[:, :, None] * z[:, None, :])
    stack += base
    tops, vecs = leading_eigpair(stack)
    best = int(np.argmax(tops))
    v = vecs[best]
    # v_i * v_j == v_j * v_i, so the outer product is exactly symmetric
    return float(tops[best]) + offset, v[:, None] * v


def _krylov_value_grad(x: np.ndarray, u: np.ndarray, n: int, p: int) -> tuple:
    """Exact value and gradient of <X^n u, u>^(1/p) at a fixed u: the true
    per-sample gradient, hence an unbiased draw once u is random.

    With k_j = X^j u and h = n // 2, s = <X^n u, u> = k_(n-h) . k_h and the
    gradient is s^(1/p) / (p s) * sum_(j<n) k_j k_(n-1-j)^T, whose terms j
    and n-1-j are transposes: it is P + P^T for P the GEMM of k_0..k_(h-1)
    against k_(n-1)..k_(n-h), plus k_h k_h^T / 2 if n is odd. That is n - 1
    matvecs (one if n = 1), one d x (n // 2) x d GEMM and no d x d x d
    product, and P[i, j] + P[j, i] makes the result exactly symmetric.
    """
    h = n // 2
    k = np.empty((max(n, 2), len(u)))
    k[0] = u
    for j in range(len(k) - 1):
        np.dot(x, k[j], out=k[j + 1])
    s = float(k[n - h] @ k[h])
    if s <= 0.0:
        raise ValueError(
            f"<X^n u, u> = {s:g} is not positive for the sampled direction")
    value = s ** (1.0 / p)
    coef = value / (p * s)
    m = (coef * k[:h]).T @ k[n - 1:n - 1 - h:-1]
    if n % 2:
        m += coef / 2.0 * (k[h][:, None] * k[h])
    return value, m + m.T


def power_grad(x: np.ndarray, cfg: PowerOracleConfig, rng) -> tuple:
    """One draw of the matrix-power oracle with u uniform on [0,1]^d."""
    x = np.asarray(x)
    u = rng.random(x.shape[0])
    n = 2 * cfg.p if cfg.square_input else cfg.p
    return _krylov_value_grad(x, u, n, cfg.p)


def exact_subgrad(x: np.ndarray) -> tuple:
    """Deterministic subgradient v v^T at a unit top eigenvector of X."""
    top, v = leading_eigpair(x)
    # v_i * v_j == v_j * v_i, so the outer product is exactly symmetric
    return float(top), v[:, None] * v


def oracle_echo(spec) -> dict:
    """JSON-friendly description of an oracle for trace headers: a config's
    kind and options, or the repr of any other callable."""
    try:
        return {"kind": spec.kind, **asdict(spec)}
    except (AttributeError, TypeError):
        return {"kind": "custom", "repr": repr(spec)}
