"""Box-constrained eigenvalue problem: feasible set, composite objective, prox,
synthetic instance generator, and instance (de)serialization."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import SymMatrix, full_spectrum, make_rng, sym_from

FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class BoxSet:
    """Feasible set {X : |X_ij - A_ij| <= rho for all i, j}."""

    center: SymMatrix
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.dim

    @property
    def lower(self) -> np.ndarray:
        return self.center.data - self.radius

    @property
    def upper(self) -> np.ndarray:
        return self.center.data + self.radius

    @property
    def diameter_frobenius(self) -> float:
        """Frobenius diameter of the entrywise box: 2 * rho * d."""
        return 2.0 * self.radius * self.dim

    def contains(self, x: SymMatrix, tol: float = FEASIBILITY_TOL) -> bool:
        if x.dim != self.dim:
            return False
        return bool(np.all(np.abs(x.data - self.center.data) <= self.radius + tol))


@dataclass(frozen=True)
class CompositeProblem:
    """Objective Psi(X) = lambda_max(X) + mu * ||X - X1||_F^2 over a box.

    `oracle` is one of the oracle configs from specmd.oracles, or any
    (SymMatrix, rng) -> GradSample callable (handy for test stubs).
    """

    feasible: BoxSet
    mu: float
    x1: SymMatrix
    oracle: object

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.x1.dim != self.feasible.dim:
            raise ValueError("start point dimension does not match the box")
        if not self.feasible.contains(self.x1):
            raise ValueError("start point is not feasible")

    @property
    def dim(self) -> int:
        return self.feasible.dim


def make_problem(box: BoxSet, oracle, T: int | None = None,
                 mu: float | None = None, x1: SymMatrix | None = None) -> CompositeProblem:
    """Assemble a problem; mu defaults to 1/sqrt(T), the start point to the box center."""
    if mu is None:
        if T is None:
            raise ValueError("either mu or a horizon T is required")
        mu = 1.0 / math.sqrt(T)
    if x1 is None:
        x1 = box.center
    return CompositeProblem(feasible=box, mu=mu, x1=x1, oracle=oracle)


@dataclass(frozen=True)
class Diagnostics:
    """A-priori regularity constants attached to reports; solvers never read them.

    Any field may be None when the corresponding assumption is not being
    tracked. M bounds the oracle second moment, (L, sigma2) the smooth case,
    (Lstar, Gamma) the relative-scale case, D0 the start distance, T0 the
    transition time after which the oblivious schedule dominates the unknown
    constant.
    """

    M: float | None = None
    L: float | None = None
    sigma2: float | None = None
    Lstar: float | None = None
    Gamma: float | None = None
    D0: float | None = None
    T0: int | None = None

    def __post_init__(self):
        for name in ("M", "L", "sigma2", "Lstar", "Gamma", "D0"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive when present")
        if self.T0 is not None and self.T0 < 0:
            raise ValueError("T0 must be nonnegative when present")


def project_box(x: SymMatrix, box: BoxSet) -> SymMatrix:
    """Entrywise clamp onto the box (the Frobenius-nearest feasible point)."""
    if x.dim != box.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {box.dim}")
    return SymMatrix(np.clip(x.data, box.lower, box.upper))


def prox_step(xt: SymMatrix, g: SymMatrix, alpha: float, gamma: float,
              prob: CompositeProblem) -> SymMatrix:
    """Closed-form minimizer of the mirror-descent subproblem

        alpha * (<g, x> + mu ||x - X1||^2) + gamma * mu ||x - Xt||^2

    over the box. The objective is an entrywise-separable strictly convex
    quadratic, so clamping its stationary point is exact.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mu = prob.mu
    box = prob.feasible
    stationary = (2.0 * mu * (alpha * prob.x1.data + gamma * xt.data)
                  - alpha * g.data) / (2.0 * mu * (alpha + gamma))
    out = np.clip(stationary, box.lower, box.upper)
    if __debug__:
        _check_prox_optimality(out, xt, g, alpha, gamma, prob)
    return SymMatrix(out)


def _check_prox_optimality(x, xt, g, alpha, gamma, prob):
    """Entrywise KKT conditions of the prox subproblem, to rounding error."""
    box = prob.feasible
    mu = prob.mu
    deriv = (alpha * g.data + 2.0 * mu * alpha * (x - prob.x1.data)
             + 2.0 * mu * gamma * (x - xt.data))
    magnitude = (alpha * np.abs(g.data)
                 + 2.0 * mu * alpha * (np.abs(x) + np.abs(prob.x1.data))
                 + 2.0 * mu * gamma * (np.abs(x) + np.abs(xt.data)))
    tol = 1e-9 * np.maximum(1.0, magnitude)
    at_lower = x == box.lower
    at_upper = x == box.upper
    ok = (np.abs(deriv) <= tol) | (at_lower & (deriv >= -tol)) | (at_upper & (deriv <= tol))
    assert bool(np.all(ok)), "prox step violates first-order optimality"


def eval_F(x: SymMatrix) -> float:
    """Exact objective lambda_max(X); for traces and tests, not solver loops."""
    return float(full_spectrum(x)[0])


def eval_penalty(x: SymMatrix, prob: CompositeProblem) -> float:
    """Regularization term mu ||X - X1||_F^2 of the composite objective."""
    diff = x.data - prob.x1.data
    return prob.mu * float(np.tensordot(diff, diff))


def eval_Psi(x: SymMatrix, prob: CompositeProblem) -> float:
    """Composite objective F(X) + mu ||X - X1||_F^2."""
    return eval_F(x) + eval_penalty(x, prob)


def gen_instance(d: int, noise_sigma: float, seed: int) -> BoxSet:
    """Synthetic box instance.

    Starts from the diagonal matrix with entries exp(-i), i = 1..d, adds
    i.i.d. Gaussian noise of standard deviation noise_sigma to every entry,
    symmetrizes, rescales so the largest absolute entry is 1, and sets the
    box radius to half the largest diagonal entry. Deterministic given seed.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    rng = make_rng(seed)
    a = np.diag(np.exp(-np.arange(1, d + 1, dtype=float)))
    a = a + rng.normal(0.0, noise_sigma, size=(d, d)) if noise_sigma > 0 else a
    a = (a + a.T) / 2.0
    peak = float(np.max(np.abs(a)))
    a = a / peak
    rho = float(np.max(np.diag(a))) / 2.0
    if rho <= 0:
        raise ValueError("no positive diagonal entry; cannot set a box radius")
    return BoxSet(center=SymMatrix(a), radius=rho)


def save_instance(path, box: BoxSet, seed: int, noise_sigma: float) -> None:
    """Write a self-describing text instance (full-precision entries)."""
    lines = [
        "# box-instance v1",
        f"d {box.dim}",
        f"rho {box.radius!r}",
        f"seed {seed}",
        f"noise_sigma {float(noise_sigma)!r}",
    ]
    for row in box.center.data:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_instance(path) -> tuple[BoxSet, dict]:
    """Read an instance file back; returns the box and its header metadata."""
    text = Path(path).read_text().strip().splitlines()
    body_start = None
    meta = {}
    for idx, line in enumerate(text):
        if line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key == "d":
            meta["d"] = int(value)
        elif key == "rho":
            meta["rho"] = float(value)
        elif key == "seed":
            meta["seed"] = int(value)
        elif key == "noise_sigma":
            meta["noise_sigma"] = float(value)
        else:
            body_start = idx
            break
    if body_start is None or "d" not in meta or "rho" not in meta:
        raise ValueError(f"malformed instance file: {path}")
    d = meta["d"]
    rows = [np.array([float(v) for v in line.split()]) for line in text[body_start:]]
    a = np.vstack(rows)
    if a.shape != (d, d):
        raise ValueError(f"instance body has shape {a.shape}, expected ({d}, {d})")
    return BoxSet(center=sym_from(a), radius=meta["rho"]), meta
