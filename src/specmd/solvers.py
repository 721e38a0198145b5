"""Oblivious stochastic mirror descent (plain and accelerated), the polynomial
step-size family, and three projected-gradient baselines.

Every solver returns a RunTrace recording, per evaluated iteration, the exact
objective at the averaged point, the composite objective, the gradient norm of
the draw, and elapsed wall time. Runs are deterministic given an integer seed.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import SymMatrix, ensure_rng
from .oracles import oracle_echo, resolve_oracle
from .problem import (CompositeProblem, eval_F, eval_penalty, project_box,
                      prox_step)


class SolverError(RuntimeError):
    """An oracle or step failure inside the solver loop, tagged with the iteration."""


@dataclass(frozen=True)
class StepSchedule:
    """Problem-independent polynomial step sizes.

    alpha_t = scale * (t+1)^degree and gamma_t = scale * t^(degree+1) /
    (degree+1). By the mean value theorem on t^(degree+1), the gamma
    increments are bracketed for every t >= 1 and every degree:

        scale * t^degree <= gamma_{t+1} - gamma_t <= scale * (t+1)^degree,

    so gamma_t tracks the running sum of alpha_s, alpha is nondecreasing, and
    gamma_t / alpha_t grows like t / (degree+1). The paper's transition time
    rests on this growth: it is the last t at which gamma_t / alpha_t (or
    gamma_t A_t / alpha_t^2, with A_t the sum of alpha_s up to t) is still
    below a problem constant, so every degree has one.
    """

    degree: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def weights(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """(alpha_t, gamma_t) arrays for t = 1..horizon."""
        t = np.arange(1, horizon + 1, dtype=float)
        alpha = self.scale * (t + 1.0) ** self.degree
        gamma = self.scale * t ** (self.degree + 1) / (self.degree + 1)
        return alpha, gamma

    def validate(self, horizon: int, rel_tol: float = 1e-12) -> None:
        """Verify the oblivious step-size inequalities up to the horizon.

        Raises ValueError if alpha ever decreases or a gamma increment
        exceeds the matching alpha beyond rel_tol relative slack.
        """
        alpha, gamma = self.weights(horizon)
        if horizon >= 2:
            if np.any(np.diff(alpha) < 0.0):
                raise ValueError("alpha_t must be nondecreasing")
            increments = gamma[1:] - gamma[:-1]
            slack = rel_tol * np.maximum(1.0, np.maximum(alpha[:-1], gamma[1:]))
            bad = increments - alpha[:-1] > slack
            if np.any(bad):
                t_bad = int(np.argmax(bad)) + 1
                raise ValueError(
                    f"gamma increment exceeds alpha at t={t_bad}: "
                    f"{increments[t_bad - 1]:g} > {alpha[t_bad - 1]:g}")


def schedule_at(sched: StepSchedule, t: int) -> tuple[float, float]:
    """Step pair (alpha_t, gamma_t) for a single iteration index t >= 1."""
    if t < 1:
        raise ValueError("iteration index t must be >= 1")
    n, c = sched.degree, sched.scale
    return c * (t + 1.0) ** n, c * float(t) ** (n + 1) / (n + 1)


@dataclass
class RunTrace:
    """Per-iteration record of one solver run plus a final summary.

    Arrays are aligned: entry i describes evaluated iteration t[i]. elapsed_s
    is cumulative wall time; oracle_seconds sub-accounts time spent inside
    oracle calls. iterates optionally stores the points entering the average
    (tests only).
    """

    t: np.ndarray
    F_ag: np.ndarray
    Psi_ag: np.ndarray
    grad_norm: np.ndarray
    elapsed_s: np.ndarray
    final_point: SymMatrix
    config_echo: dict
    seed: int
    total_seconds: float = 0.0
    oracle_seconds: float = 0.0
    iterates: list | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.t) == 0:
            raise ValueError("trace must contain at least one evaluated iteration")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("iteration indices must be strictly increasing")
        if np.any(np.diff(self.elapsed_s) < 0):
            raise ValueError("elapsed time must be nondecreasing")

    @property
    def final_F_ag(self) -> float:
        return float(self.F_ag[-1])

    @property
    def best_F_ag(self) -> float:
        return float(np.min(self.F_ag))


def _seed_of(rng) -> int:
    return int(rng) if isinstance(rng, (int, np.integer)) else -1


def _default_stride(dim: int) -> int:
    return 1 if dim <= 150 else 10


class _TraceBuilder:
    """Accumulates evaluated iterations and assembles the RunTrace."""

    def __init__(self, prob, T, stride, seed, config_echo, keep_iterates):
        self.prob = prob
        self.T = T
        self.stride = stride
        self.seed = seed
        self.config_echo = config_echo
        self.start = time.perf_counter()
        self.oracle_seconds = 0.0
        self.rows = []
        self.iterates = [] if keep_iterates else None

    def note_iterate(self, x_arr):
        if self.iterates is not None:
            self.iterates.append(SymMatrix(x_arr.copy()))

    def record(self, t, avg_arr, grad_norm):
        if t % self.stride != 0 and t != self.T:
            return
        f = eval_F(avg_arr)
        self.rows.append((t, f, f + eval_penalty(avg_arr, self.prob),
                          grad_norm, time.perf_counter() - self.start))

    def build(self, final_arr) -> RunTrace:
        t, f, psi, gn, el = (np.array(col) for col in zip(*self.rows))
        return RunTrace(t=t.astype(int), F_ag=f, Psi_ag=psi, grad_norm=gn,
                        elapsed_s=el, final_point=SymMatrix(final_arr.copy()),
                        config_echo=self.config_echo, seed=self.seed,
                        total_seconds=time.perf_counter() - self.start,
                        oracle_seconds=self.oracle_seconds, iterates=self.iterates)


def _run(name, params, prob, T, rng, step, weight=None, at_md=False,
         eval_stride=None, keep_iterates=False) -> RunTrace:
    """The one loop behind every solver.

    Each iteration draws a gradient g, takes X_{t+1} = step(t, X_t, g, ||g||)
    and adds one point to the running average. With at_md the oracle is
    queried at the md point (A_{t-1} x_ag + alpha_t X_t) / A_t and X_{t+1}
    enters the average; otherwise the query point X_t does. With a weight the
    average is (A_{t-1} x_ag + alpha_t x) / A_t for alpha_t = weight(t);
    without one it is the uniform mean x_ag += (x - x_ag) / t. An oracle or
    step failure is raised as a SolverError tagged with its iteration.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    oracle = resolve_oracle(prob.oracle)
    gen = ensure_rng(rng)
    echo = {"solver": name, **params, "T": T, "mu": prob.mu,
            "oracle": oracle_echo(prob.oracle)}
    stride = eval_stride or _default_stride(prob.dim)
    builder = _TraceBuilder(prob, T, stride, _seed_of(rng), echo, keep_iterates)

    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        if weight is not None:
            alpha = weight(t)
            a_new = a_sum + alpha
        query = (a_sum * x_ag + alpha * x) / a_new if at_md else x
        tic = time.perf_counter()
        try:
            sample = oracle(SymMatrix(query), gen)
        except Exception as err:
            raise SolverError(f"oracle failed at iteration {t}: {err}") from err
        builder.oracle_seconds += time.perf_counter() - tic
        g = sample.grad.data
        gnorm = float(np.linalg.norm(g))
        try:
            x_next = step(t, x, g, gnorm)
        except Exception as err:
            raise SolverError(f"step failed at iteration {t}: {err}") from err
        point = x_next if at_md else x
        builder.note_iterate(point)
        if weight is None:
            x_ag += (point - x_ag) / t
        else:
            x_ag = (a_sum * x_ag + alpha * point) / a_new
            a_sum = a_new
        x = x_next
        builder.record(t, x_ag, gnorm)
    return builder.build(x_ag)


def _oblivious(name, prob, sched, T, rng, at_md, eval_stride, keep_iterates):
    sched.validate(T)

    def prox(t, x, g, gnorm):
        alpha, gamma = schedule_at(sched, t)
        return prox_step(x, g, alpha, gamma, prob)

    return _run(name, {"degree": sched.degree, "scale": sched.scale}, prob, T,
                rng, prox, lambda t: schedule_at(sched, t)[0], at_md,
                eval_stride, keep_iterates)


def oblivious_smd(prob: CompositeProblem, sched: StepSchedule, T: int, rng,
                  eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Mirror descent with oblivious steps on the composite objective.

    Draws a stochastic (sub)gradient at X_t, takes the closed-form prox step,
    and maintains the alpha-weighted running average of the query points; the
    trace evaluates that averaged point.
    """
    return _oblivious("oblivious_smd", prob, sched, T, rng, False,
                      eval_stride, keep_iterates)


def oblivious_acsmd(prob: CompositeProblem, sched: StepSchedule, T: int, rng,
                    eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Accelerated mirror descent: gradient at the md point, prox from X_t,
    aggregate updated with the same combination weights.

    With A_0 = 0 the first md point is X_1; all three sequences stay feasible
    as convex combinations of feasible points.
    """
    return _oblivious("oblivious_acsmd", prob, sched, T, rng, True,
                      eval_stride, keep_iterates)


def levy_adaptive(prob: CompositeProblem, D: float, M: float, T: int, rng,
                  eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Projected SGD with the adaptive step 2D / sqrt(M^2 + sum ||g||^2).

    Needs the set diameter D up front; the trace follows the uniform average
    of the query points.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    if M < 0:
        raise ValueError("M must be nonnegative")
    acc = M * M

    def step(t, x, g, gnorm):
        nonlocal acc
        acc += gnorm * gnorm
        eta = 2.0 * D / math.sqrt(acc) if acc > 0 else 0.0
        return project_box(x - eta * g, prob.feasible)

    return _run("levy_adaptive", {"D": D, "M": M}, prob, T, rng, step,
                eval_stride=eval_stride, keep_iterates=keep_iterates)


def lan_acsa(prob: CompositeProblem, L: float, sigma: float, T: int, rng,
             eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Accelerated stochastic approximation with a known smoothness constant.

    Combination weights come from alpha_t = t/2 (md weight 2/(t+1)); the
    update is a projected gradient step of size t/(4L) taken at the md point.
    sigma is echoed for reporting; the step rule uses L only.
    """
    if L <= 0:
        raise ValueError("L must be positive")

    def step(t, x, g, gnorm):
        eta = t / (4.0 * L)
        return project_box(x - eta * g, prob.feasible)

    return _run("lan_acsa", {"L": L, "sigma": sigma}, prob, T, rng, step,
                lambda t: 0.5 * t, True, eval_stride, keep_iterates)


def relative_step(Lstar: float, Gamma: float, T: int) -> float:
    """Constant step 1/sqrt(Gamma * Lstar * T) of the relative-scale baseline."""
    if Lstar <= 0 or Gamma <= 0:
        raise ValueError("Lstar and Gamma must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    return 1.0 / math.sqrt(Gamma * Lstar * T)


def relative_md(prob: CompositeProblem, Lstar: float, Gamma: float, T: int, rng,
                eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Projected SGD with the constant relative-scale step and uniform averaging."""
    eta = relative_step(Lstar, Gamma, T)

    def step(t, x, g, gnorm):
        return project_box(x - eta * g, prob.feasible)

    return _run("relative_md", {"Lstar": Lstar, "Gamma": Gamma, "eta": eta},
                prob, T, rng, step, eval_stride=eval_stride,
                keep_iterates=keep_iterates)
