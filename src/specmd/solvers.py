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
    """An oracle or prox failure inside a solver loop, tagged with the iteration."""


@dataclass(frozen=True)
class StepSchedule:
    """Problem-independent polynomial step sizes.

    alpha_t = scale * (t+1)^degree and gamma_t = scale * t^(degree+1) /
    (degree+1). By the mean value theorem on t^(degree+1), the gamma
    increments are bracketed for every t >= 1 and every degree:

        scale * t^degree <= gamma_{t+1} - gamma_t <= scale * (t+1)^degree,

    so gamma_t tracks the running sum of alpha_s, alpha is nondecreasing, and
    gamma_t / alpha_t grows like t / (degree+1). transition_time_relative and
    transition_time_smooth depend on this growth: their transition time is
    the last t at which gamma_t / alpha_t (or gamma_t A_t / alpha_t^2, with
    A_t the sum of alpha_s up to t) is still below a problem constant.
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


def _draw(oracle, x_arr, gen, t, builder):
    tic = time.perf_counter()
    try:
        sample = oracle(SymMatrix(x_arr), gen)
    except Exception as err:
        raise SolverError(f"oracle failed at iteration {t}: {err}") from err
    builder.oracle_seconds += time.perf_counter() - tic
    return sample


def oblivious_smd(prob: CompositeProblem, sched: StepSchedule, T: int, rng,
                  eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Mirror descent with oblivious steps on the composite objective.

    Draws a stochastic (sub)gradient at X_t, takes the closed-form prox step,
    and maintains the alpha-weighted running average of the query points; the
    trace evaluates that averaged point.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    sched.validate(T)
    oracle = resolve_oracle(prob.oracle)
    gen = ensure_rng(rng)
    echo = {"solver": "oblivious_smd", "degree": sched.degree, "scale": sched.scale,
            "T": T, "mu": prob.mu, "oracle": oracle_echo(prob.oracle)}
    stride = eval_stride or _default_stride(prob.dim)
    builder = _TraceBuilder(prob, T, stride, _seed_of(rng), echo, keep_iterates)

    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        alpha, gamma = schedule_at(sched, t)
        sample = _draw(oracle, x, gen, t, builder)
        builder.note_iterate(x)
        a_new = a_sum + alpha
        x_ag = (a_sum * x_ag + alpha * x) / a_new
        a_sum = a_new
        try:
            x = prox_step(x, sample.grad.data, alpha, gamma, prob)
        except Exception as err:
            raise SolverError(f"prox step failed at iteration {t}: {err}") from err
        builder.record(t, x_ag, float(np.linalg.norm(sample.grad.data)))
    return builder.build(x_ag)


def oblivious_acsmd(prob: CompositeProblem, sched: StepSchedule, T: int, rng,
                    eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Accelerated mirror descent: gradient at the md point, prox from X_t,
    aggregate updated with the same combination weights.

    With A_0 = 0 the first md point is X_1; all three sequences stay feasible
    as convex combinations of feasible points.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    sched.validate(T)
    oracle = resolve_oracle(prob.oracle)
    gen = ensure_rng(rng)
    echo = {"solver": "oblivious_acsmd", "degree": sched.degree, "scale": sched.scale,
            "T": T, "mu": prob.mu, "oracle": oracle_echo(prob.oracle)}
    stride = eval_stride or _default_stride(prob.dim)
    builder = _TraceBuilder(prob, T, stride, _seed_of(rng), echo, keep_iterates)

    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        alpha, gamma = schedule_at(sched, t)
        a_new = a_sum + alpha
        x_md = (a_sum * x_ag + alpha * x) / a_new
        sample = _draw(oracle, x_md, gen, t, builder)
        try:
            x = prox_step(x, sample.grad.data, alpha, gamma, prob)
        except Exception as err:
            raise SolverError(f"prox step failed at iteration {t}: {err}") from err
        builder.note_iterate(x)
        x_ag = (a_sum * x_ag + alpha * x) / a_new
        a_sum = a_new
        builder.record(t, x_ag, float(np.linalg.norm(sample.grad.data)))
    return builder.build(x_ag)


def levy_adaptive(prob: CompositeProblem, D: float, M: float, T: int, rng,
                  eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Projected SGD with the adaptive step 2D / sqrt(M^2 + sum ||g||^2).

    Needs the set diameter D up front; the trace follows the uniform average
    of the query points.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if D <= 0:
        raise ValueError("D must be positive")
    if M < 0:
        raise ValueError("M must be nonnegative")
    oracle = resolve_oracle(prob.oracle)
    gen = ensure_rng(rng)
    echo = {"solver": "levy_adaptive", "D": D, "M": M, "T": T, "mu": prob.mu,
            "oracle": oracle_echo(prob.oracle)}
    stride = eval_stride or _default_stride(prob.dim)
    builder = _TraceBuilder(prob, T, stride, _seed_of(rng), echo, keep_iterates)

    x = prob.x1.data.copy()
    x_bar = x.copy()
    acc = M * M
    for t in range(1, T + 1):
        sample = _draw(oracle, x, gen, t, builder)
        builder.note_iterate(x)
        gnorm = float(np.linalg.norm(sample.grad.data))
        acc += gnorm * gnorm
        eta = 2.0 * D / math.sqrt(acc) if acc > 0 else 0.0
        x_bar += (x - x_bar) / t
        x = project_box(x - eta * sample.grad.data, prob.feasible)
        builder.record(t, x_bar, gnorm)
    return builder.build(x_bar)


def lan_acsa(prob: CompositeProblem, L: float, sigma: float, T: int, rng,
             eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Accelerated stochastic approximation with a known smoothness constant.

    Combination weights come from alpha_t = t/2 (md weight 2/(t+1)); the
    update is a projected gradient step of size t/(4L) taken at the md point.
    sigma is echoed for reporting; the step rule uses L only.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if L <= 0:
        raise ValueError("L must be positive")
    oracle = resolve_oracle(prob.oracle)
    gen = ensure_rng(rng)
    echo = {"solver": "lan_acsa", "L": L, "sigma": sigma, "T": T, "mu": prob.mu,
            "oracle": oracle_echo(prob.oracle)}
    stride = eval_stride or _default_stride(prob.dim)
    builder = _TraceBuilder(prob, T, stride, _seed_of(rng), echo, keep_iterates)

    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        alpha = 0.5 * t
        a_new = a_sum + alpha
        x_md = (a_sum * x_ag + alpha * x) / a_new
        sample = _draw(oracle, x_md, gen, t, builder)
        eta = t / (4.0 * L)
        x = project_box(x - eta * sample.grad.data, prob.feasible)
        builder.note_iterate(x)
        x_ag = (a_sum * x_ag + alpha * x) / a_new
        a_sum = a_new
        builder.record(t, x_ag, float(np.linalg.norm(sample.grad.data)))
    return builder.build(x_ag)


def relative_step(Lstar: float, Gamma: float, T: int) -> float:
    """Constant step 1/sqrt(Gamma * Lstar * T) of the relative-scale baseline."""
    return 1.0 / math.sqrt(Gamma * Lstar * T)


def relative_md(prob: CompositeProblem, Lstar: float, Gamma: float, T: int, rng,
                eval_stride: int | None = None, keep_iterates: bool = False) -> RunTrace:
    """Projected SGD with the constant relative-scale step and uniform averaging."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if Lstar <= 0 or Gamma <= 0:
        raise ValueError("Lstar and Gamma must be positive")
    oracle = resolve_oracle(prob.oracle)
    gen = ensure_rng(rng)
    eta = relative_step(Lstar, Gamma, T)
    echo = {"solver": "relative_md", "Lstar": Lstar, "Gamma": Gamma, "T": T,
            "mu": prob.mu, "eta": eta, "oracle": oracle_echo(prob.oracle)}
    stride = eval_stride or _default_stride(prob.dim)
    builder = _TraceBuilder(prob, T, stride, _seed_of(rng), echo, keep_iterates)

    x = prob.x1.data.copy()
    x_bar = x.copy()
    for t in range(1, T + 1):
        sample = _draw(oracle, x, gen, t, builder)
        builder.note_iterate(x)
        x_bar += (x - x_bar) / t
        x = project_box(x - eta * sample.grad.data, prob.feasible)
        builder.record(t, x_bar, float(np.linalg.norm(sample.grad.data)))
    return builder.build(x_bar)


def transition_time_relative(sched: StepSchedule, Lstar: float, mu: float,
                             horizon: int) -> int:
    """Largest t <= horizon with gamma_t / alpha_t <= 2 Lstar / mu (0 if none)."""
    alpha, gamma = sched.weights(horizon)
    hits = np.nonzero(gamma / alpha <= 2.0 * Lstar / mu)[0]
    return int(hits[-1]) + 1 if hits.size else 0


def transition_time_smooth(sched: StepSchedule, L: float, mu: float,
                           horizon: int) -> int:
    """Largest t <= horizon with gamma_t A_t / alpha_t^2 < 2 L / mu (0 if none)."""
    alpha, gamma = sched.weights(horizon)
    a_t = np.cumsum(alpha)
    hits = np.nonzero(gamma * a_t / alpha ** 2 < 2.0 * L / mu)[0]
    return int(hits[-1]) + 1 if hits.size else 0
