"""Box-constrained eigenvalue problem: feasible set, composite objective, prox,
synthetic instance generator, and instance (de)serialization."""

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .linalg import SymMatrix, full_spectrum, make_rng
from .oracles import _check, _parse


@dataclass(frozen=True)
class BoxSet:
    """Feasible set {X : |X_ij - A_ij| <= rho for all i, j}."""

    center: SymMatrix
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _check("radius", self.radius,
                                                  "positive and finite"))

    @property
    def dim(self) -> int:
        return self.center.data.shape[0]

    @cached_property
    def lower(self) -> np.ndarray:
        """Entrywise lower bound A - rho, built once per box (read-only)."""
        bound = self.center.data - self.radius
        bound.setflags(write=False)
        return bound

    @cached_property
    def upper(self) -> np.ndarray:
        """Entrywise upper bound A + rho, built once per box (read-only)."""
        bound = self.center.data + self.radius
        bound.setflags(write=False)
        return bound


@dataclass(frozen=True)
class CompositeProblem:
    """Objective Psi(X) = lambda_max(X) + mu * ||X - X1||_F^2 over a box.

    The start point X1 is the box center. `oracle` is an (X, rng) ->
    (value, grad) callable: one of the oracle configs from specmd.oracles,
    which are callable themselves, or any other function (handy for test
    stubs). X is a plain d x d array; the value must be a finite float and
    the gradient an exactly symmetric d x d array. The solver loop checks
    finiteness only.
    """

    feasible: BoxSet
    mu: float
    oracle: object

    def __post_init__(self):
        object.__setattr__(self, "mu", _check("mu", self.mu,
                                              "positive and finite"))
        if not callable(self.oracle):
            raise ValueError(f"oracle is not callable: {self.oracle!r}")

    @property
    def x1(self) -> SymMatrix:
        return self.feasible.center


def make_problem(box: BoxSet, oracle, T: int | None = None,
                 mu: float | None = None) -> CompositeProblem:
    """Assemble a problem; mu defaults to 1/sqrt(T), for an integer T >= 1."""
    if T is not None:
        T = _check("T", T, "an integer >= 1")
    if mu is None:
        if T is None:
            raise ValueError("either mu or a horizon T is required")
        mu = 1.0 / math.sqrt(T)
    return CompositeProblem(feasible=box, mu=mu, oracle=oracle)


def project_box(x: np.ndarray, box: BoxSet) -> np.ndarray:
    """Entrywise clamp of the d x d array x onto the box, as a new array
    (the Frobenius-nearest feasible point)."""
    out = np.maximum(x, box.lower)
    return np.minimum(out, box.upper, out=out)


def prox_step(xt: np.ndarray, g: np.ndarray, alpha: float, gamma: float,
              prob: CompositeProblem) -> np.ndarray:
    """Closed-form minimizer of the mirror-descent subproblem

        alpha * (<g, x> + mu ||x - X1||^2) + gamma * mu ||x - Xt||^2

    over the box, for alpha, gamma > 0 (StepSchedule.weights makes them so).
    The objective is an entrywise-separable strictly convex quadratic, so
    clamping its stationary point is exact. Takes the arrays Xt and g and
    returns the minimizer as a new array; every operation is entrywise, so
    symmetric inputs give an exactly symmetric output.

    The stationary point (2 mu (alpha X1 + gamma Xt) - alpha g) /
    (2 mu (alpha + gamma)) is built in one buffer, in that operation order,
    and clamped in place: the same bits as the expression followed by
    np.clip.
    """
    mu = prob.mu
    box = prob.feasible
    s = alpha * prob.x1.data
    s += gamma * xt
    s *= 2.0 * mu
    s -= alpha * g
    s /= 2.0 * mu * (alpha + gamma)
    np.maximum(s, box.lower, out=s)
    return np.minimum(s, box.upper, out=s)


def eval_F(x: np.ndarray):
    """Exact objective lambda_max(X) of a symmetric array, as a float; of a
    (n, d, d) stack, as an (n,) array with the same bits per matrix. For
    traces and tests, not solver steps."""
    top = full_spectrum(x)[..., 0]
    return float(top) if top.ndim == 0 else top


def eval_penalty(x: np.ndarray, prob: CompositeProblem) -> float:
    """Regularization term mu ||X - X1||_F^2 of the composite objective."""
    diff = x - prob.x1.data
    return prob.mu * float(np.vdot(diff, diff))


def box_lower_bound(w: np.ndarray, prob: CompositeProblem) -> float:
    """Certified bound Psi* >= min over the box of <W, X> + mu ||X - X1||^2
    for a density matrix W (<W, X> <= lambda_max(X)); the minimizer is the
    entrywise clamp of X1 - W / (2 mu)."""
    x = project_box(prob.x1.data - w / (2.0 * prob.mu), prob.feasible)
    return float(np.vdot(w, x)) + eval_penalty(x, prob)


def gen_instance(d: int, noise_sigma: float, seed: int) -> BoxSet:
    """Synthetic box instance.

    Starts from the diagonal matrix with entries exp(-i), i = 1..d, adds
    i.i.d. Gaussian noise of standard deviation noise_sigma to every entry,
    symmetrizes, rescales so the largest absolute entry is 1, and sets the
    box radius to half the largest diagonal entry. Deterministic given seed.
    """
    d = _check("d", d, "an integer >= 1")
    noise_sigma = _check("noise_sigma", noise_sigma, "nonnegative and finite")
    rng = make_rng(_check("seed", seed, "an integer >= 0"))
    a = np.diag(np.exp(-np.arange(1, d + 1, dtype=float)))
    a = a + rng.normal(0.0, noise_sigma, size=(d, d)) if noise_sigma > 0 else a
    a = (a + a.T) / 2.0
    peak = float(np.max(np.abs(a)))
    a = a / peak
    rho = float(np.max(np.diag(a))) / 2.0
    if rho <= 0:
        raise ValueError("no positive diagonal entry; cannot set a box radius")
    return BoxSet(center=SymMatrix(a), radius=rho)


# the instance-header keys in file order, each with its _check rule
_HEADER = {"d": "an integer >= 1", "rho": "positive and finite",
           "seed": "an integer >= 0", "noise_sigma": "nonnegative and finite"}


def save_instance(path, box: BoxSet, seed: int, noise_sigma: float) -> None:
    """Write a text instance: each _HEADER value checked by its rule (a
    refused one writes no file), then the center's full-precision rows."""
    lines = ["# box-instance v1"] + [
        f"{key} {_check(key, value, _HEADER[key])!r}" for key, value in
        zip(_HEADER, (box.dim, box.radius, seed, noise_sigma))]
    for row in box.center.data:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_instance(path) -> tuple[BoxSet, dict]:
    """Read an instance file back: the box and its header, each value held
    to its _HEADER rule, then the body's rows by np.loadtxt; a ValueError
    names the file (and the key, or loadtxt's row and column)."""
    text = Path(path).read_text().strip().splitlines()
    body_start, meta = None, {}
    for idx, line in enumerate(text):
        if line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key not in _HEADER:
            body_start = idx
            break
        meta[key] = _check(f"{path}: {key}", _parse(value), _HEADER[key])
    if body_start is None or "d" not in meta or "rho" not in meta:
        raise ValueError(f"malformed instance file: {path}")
    try:  # loadtxt's errors give a row and column but no file
        a = np.loadtxt(text[body_start:], ndmin=2, comments=None)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if a.shape != (meta["d"],) * 2:
        raise ValueError(f"{path}: instance body has shape {a.shape}, "
                         f"expected {(meta['d'],) * 2}")
    return BoxSet(center=SymMatrix(a), radius=meta["rho"]), meta
