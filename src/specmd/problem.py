"""Box-constrained eigenvalue problem: feasible set, composite objective, prox,
synthetic instance generator, and instance (de)serialization."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import SymMatrix, full_spectrum, make_rng
from .oracles import _check, _parse


@dataclass(frozen=True)
class BoxSet:
    """Feasible set {X : |X_ij - A_ij| <= rho for all i, j}; its read-only
    entrywise bounds lower = A - rho and upper = A + rho are built with it."""

    center: SymMatrix
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _check("radius", self.radius,
                                                  "positive and finite"))
        object.__setattr__(self, "lower", self.center.data - self.radius)
        object.__setattr__(self, "upper", self.center.data + self.radius)
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.center.data.shape[0]


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


def save_instance(path, box: BoxSet, seed: int, noise_sigma: float) -> dict:
    """Write load_instance's layout: each _HEADER value, checked by its rule
    (a refused one writes no file), then the rows; return the header."""
    meta = {key: _check(key, value, _HEADER[key]) for key, value in
            zip(_HEADER, (box.dim, box.radius, seed, noise_sigma))}
    lines = ["# box-instance v1"] + [f"{k} {v!r}" for k, v in meta.items()]
    for row in box.center.data:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
    return meta


def _loadtxt(lines, line_of, **options) -> np.ndarray:
    """np.loadtxt with comments=None, a bad lines[k] raising `line
    {line_of(k)}: ...` for its reader to prefix with the file. A blank line
    is refused: loadtxt would skip it and name each later row a line early."""
    def rows():  # streamed: a trace's point rows are never held as a list
        for k, line in enumerate(lines):
            if not line.strip():  # loadtxt's words for a ragged row k + 1
                raise ValueError(f"blank line at row {k + 1}")
            yield line
    try:
        return np.loadtxt(rows(), comments=None, **options)
    except ValueError as err:  # loadtxt counts rows from 1 if ragged, else 0
        detail, _, where = str(err).partition(" at row ")
        row, _, column = where.partition(";")[0].rstrip(".").partition(", ")
        raise ValueError(f"line {line_of(int(row) - (not column))}: "
                         f"{detail}{column and ' at ' + column}") from None


def load_instance(path) -> tuple[BoxSet, dict]:
    """Read back save_instance's layout exactly. Its head is one line each, in
    order: the version, then `key value` per _HEADER key (held to its rule);
    the d body rows follow. A head line missing, extra or moved, or no body,
    is malformed; any later refusal names the file once, a bad row its line."""
    head = ("# box-instance v1\n", *(f"{key} " for key in _HEADER))
    with open(path) as lines:
        text = [next(lines, "") for _ in head]
        rows = lines.readlines()
    if not (rows and all(map(str.startswith, text, head))):
        raise ValueError(f"malformed instance file: {path}")
    try:  # names the file for every refusal past the head
        meta = {key: _check(key, _parse(line[len(start):].strip()), need)
                for (key, need), line, start in
                zip(_HEADER.items(), text[1:], head[1:])}
        a = _loadtxt(rows, lambda k: len(head) + k + 1, ndmin=2)
        if a.shape != (meta["d"],) * 2:
            raise ValueError(f"instance body has shape {a.shape}, "
                             f"expected {(meta['d'],) * 2}")
        return BoxSet(center=SymMatrix(a), radius=meta["rho"]), meta
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
