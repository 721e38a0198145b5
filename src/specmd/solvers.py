"""Oblivious stochastic mirror descent (plain and accelerated), the polynomial
step-size family, and three projected-gradient baselines.

Every solver returns a RunTrace recording, per evaluated iteration, the exact
objective at the averaged point, the composite objective, the gradient norm of
the draw, and elapsed wall time. Runs are deterministic given an integer seed.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .linalg import SymMatrix, make_rng
from .oracles import _check, oracle_echo
from .problem import (CompositeProblem, eval_F, eval_penalty, project_box,
                      prox_step)


class SolverError(RuntimeError):
    """An oracle or step failure inside the solver loop, tagged with the iteration."""


@dataclass(frozen=True)
class StepSchedule:
    """Problem-independent polynomial step sizes.

    alpha_t = (t+1)^degree and gamma_t = t^(degree+1) / (degree+1), with
    no scale: a common factor cancels in the prox step, which reads only
    gamma_t / alpha_t, and in the averages, which read only alpha_t / A_t.
    By the mean value theorem on t^(degree+1), the gamma increments are
    bracketed for every t >= 1 and every degree:

        t^degree <= gamma_{t+1} - gamma_t <= (t+1)^degree,

    so gamma_t tracks the running sum of alpha_s, alpha is nondecreasing, and
    gamma_t / alpha_t grows like t / (degree+1). The paper's transition time
    rests on this growth: it is the last t at which gamma_t / alpha_t (or
    gamma_t A_t / alpha_t^2, with A_t the sum of alpha_s up to t) is still
    below a problem constant, so every degree has one. The bracket and the
    nondecreasing alpha are pinned over 10^5 steps by the test
    TestStepSchedule.test_bracket_holds_over_a_long_horizon in
    tests/test_solvers.py.
    """

    degree: int = 1

    def __post_init__(self):
        object.__setattr__(self, "degree", _check(
            "solver option degree", self.degree, "an integer >= 0"))

    def weights(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """(alpha_t, gamma_t) arrays for t = 1..horizon."""
        t = np.arange(1, horizon + 1, dtype=float)
        alpha = (t + 1.0) ** self.degree
        gamma = t ** (self.degree + 1) / (self.degree + 1)
        return alpha, gamma


@dataclass
class RunTrace:
    """Per-iteration record of one solver run plus a final summary.

    Arrays are aligned 1-d columns: entry i describes evaluated iteration
    t[i], t (signed integers) rising strictly from 1 or later. F_ag, Psi_ag
    and elapsed_s are finite floats, and grad_norm floats >= 0 or inf: a
    finite gradient's norm can overflow, and the run goes on. elapsed_s is
    cumulative wall time, stamped when the row's averaged point is formed:
    the eigen-solve that gives the row its F_ag runs later, with a block of
    rows, and falls in later rows' elapsed_s and in total_seconds.
    oracle_seconds sub-accounts time spent inside oracle calls.

    COLUMNS and HEADER (each number with its _check rule) are the trace
    file's rows and number lines: any trace this class accepts reads back.
    """

    COLUMNS = ("t", "F_ag", "Psi_ag", "grad_norm", "elapsed_s")
    HEADER = {"seed": "an integer >= 0",
              "total_seconds": "nonnegative and finite",
              "oracle_seconds": "nonnegative and finite"}

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

    def __post_init__(self):
        for key, need in self.HEADER.items():
            setattr(self, key, _check(key, getattr(self, key), need))
        cols = [getattr(self, c) for c in self.COLUMNS]
        if not all(isinstance(c, np.ndarray) and c.ndim == 1
                   and len(c) == len(cols[0]) for c in cols):
            raise ValueError("the trace columns are not 1-d arrays of one length")
        if len(self.t) == 0:
            raise ValueError("trace must contain at least one evaluated iteration")
        # signed: np.diff of an unsigned t wraps, so a falling t would pass
        if [c.dtype.kind for c in cols] != ["i"] + ["f"] * (len(cols) - 1):
            raise ValueError("t is not signed integers or another column not floats")
        for key, kind in (("final_point", SymMatrix), ("config_echo", dict)):
            if not isinstance(getattr(self, key), kind):
                raise ValueError(f"{key} is not a {kind.__name__}")
        if self.t[0] < 1:
            raise ValueError("iteration indices must start at 1 or later")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("iteration indices must be strictly increasing")
        if not np.isfinite(np.r_[self.F_ag, self.Psi_ag, self.elapsed_s]).all():
            raise ValueError("F_ag, Psi_ag or elapsed_s has a non-finite entry")
        if not (self.grad_norm >= 0).all():  # inf passes: see the docstring
            raise ValueError("grad_norm has a negative or NaN entry")
        if np.any(np.diff(self.elapsed_s) < 0):
            raise ValueError("elapsed time must be nondecreasing")


# bytes of averaged points a trace holds before evaluating them: 256 KiB
# keeps peak memory flat in T, and one d x d point per block once d > 181
BLOCK_BYTES = 256 * 1024


def _block_rows(d, T, stride):
    """Averaged points per trace block; see _run."""
    return min(max(1, BLOCK_BYTES // (8 * d * d)), (T + stride - 1) // stride)


def _check_constant(name, value) -> float:
    """The rule of each baseline constant: M is nonnegative, D, L, Lstar and
    Gamma positive, all finite."""
    need = "nonnegative and finite" if name == "M" else "positive and finite"
    return _check(f"solver option {name}", value, need)


def _run(name, params, prob, T, rng, step, alphas=None, at_md=False,
         eval_stride=None, stop=None) -> RunTrace:
    """The one loop behind every solver, with one averaging rule.

    Each iteration draws a gradient g, takes X_{t+1} = step(t, X_t, g, ||g||)
    and, with A_t = A_{t-1} + alphas[t - 1], folds a point p into the
    average as x_ag += (p - x_ag) * alpha_t / A_t, left to right, so alpha
    = 1 (alphas None) is the uniform mean (p - x_ag) / t bit for bit. With
    at_md the oracle is queried at the md point x_ag + (X_t - x_ag) *
    alpha_t / A_t and p = X_{t+1}; otherwise both are X_t. rng is the run's
    integer seed. An oracle failure (a non-finite value or gradient too) or
    a step failure is raised as a SolverError tagged with its iteration. A
    `stop(t, x_ag, g, alpha_t, A_t)` that returns true ends the run after
    iteration t as if T were t: that row is recorded and the echoed T is t.
    eval_stride is None (the default stride) or an integer >= 1.

    Every stride-th iteration and the last is a row: t, penalty, gradient
    norm and elapsed time, with x_ag copied into a block of _block_rows
    points (BLOCK_BYTES, at least one point, at most the rows the run can
    record). A full block, and the last partial one, is evaluated by one
    eval_F on the (n, d, d) stack: the same bits per matrix as n calls.
    """
    T = _check("T", T, "an integer >= 1")
    if eval_stride is not None:
        eval_stride = _check("eval_stride", eval_stride, "an integer >= 1")
    seed = _check("seed", rng, "an integer >= 0")
    # Python floats: the loop's scalar arithmetic is cheaper on them
    alphas = [1.0] * T if alphas is None else alphas.tolist()
    gen = make_rng(seed)
    echo = {"solver": name, **params, "T": T, "mu": prob.mu,
            "oracle": oracle_echo(prob.oracle)}
    start = time.perf_counter()
    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    stride = eval_stride or (1 if prob.feasible.dim <= 150 else 10)
    block = np.empty((_block_rows(prob.feasible.dim, T, stride), *x.shape))
    filled, rows, tops, oracle_seconds = 0, [], [], 0.0
    for t in range(1, T + 1):
        alpha = alphas[t - 1]
        a_sum += alpha
        query = x_ag + (x - x_ag) * alpha / a_sum if at_md else x
        tic = time.perf_counter()
        try:
            value, g = prob.oracle(query, gen)
            oracle_seconds += time.perf_counter() - tic
            # sqrt(ddot), as np.linalg.norm; a non-finite entry makes it
            # non-finite, so the full scan runs only then
            flat = g.ravel(order="K")
            gnorm = math.sqrt(flat.dot(flat))
            if not math.isfinite(gnorm) and not np.isfinite(flat).all():
                raise ValueError("entries are not finite")
            if not math.isfinite(value):
                raise ValueError(f"oracle value is not finite: {value}")
        except Exception as err:
            raise SolverError(f"oracle failed at iteration {t}: {err}") from err
        try:
            x_next = step(t, x, g, gnorm)
        except Exception as err:
            raise SolverError(f"step failed at iteration {t}: {err}") from err
        x_ag += ((x_next if at_md else x) - x_ag) * alpha / a_sum
        x = x_next
        last = stop is not None and stop(t, x_ag, g, alpha, a_sum) or t == T
        if t % stride == 0 or last:
            block[filled] = x_ag
            filled += 1
            rows.append((t, eval_penalty(x_ag, prob), gnorm,
                         time.perf_counter() - start))
            if filled == len(block) or last:
                tops.extend(eval_F(block[:filled]).tolist())
                filled = 0
        if last:
            ts, penalty, gn, el = (np.array(col) for col in zip(*rows))
            f = np.array(tops)
            return RunTrace(t=ts, F_ag=f, Psi_ag=f + penalty, grad_norm=gn,
                            elapsed_s=el, final_point=SymMatrix(x_ag.copy()),
                            config_echo={**echo, "T": t}, seed=seed,
                            total_seconds=time.perf_counter() - start,
                            oracle_seconds=oracle_seconds)


def _oblivious(name, prob, sched, T, rng, at_md, eval_stride, stop=None):
    # the weights are built from T before _run checks it
    alphas, gammas = sched.weights(_check("T", T, "an integer >= 1"))

    def prox(t, x, g, gnorm):
        return prox_step(x, g, alphas[t - 1], gammas[t - 1], prob)

    return _run(name, {"degree": sched.degree}, prob, T, rng, prox, alphas,
                at_md, eval_stride, stop)


def oblivious_smd(prob: CompositeProblem, sched: StepSchedule, T: int, rng,
                  eval_stride: int | None = None) -> RunTrace:
    """Mirror descent with oblivious steps on the composite objective.

    Draws a stochastic (sub)gradient at X_t, takes the closed-form prox step,
    and maintains the alpha-weighted running average of the query points; the
    trace evaluates that averaged point.
    """
    return _oblivious("oblivious_smd", prob, sched, T, rng, False, eval_stride)


def oblivious_acsmd(prob: CompositeProblem, sched: StepSchedule, T: int, rng,
                    eval_stride: int | None = None) -> RunTrace:
    """Accelerated mirror descent: gradient at the md point, prox from X_t,
    aggregate updated with the same combination weights.

    With A_0 = 0 the first md point is X_1; all three sequences stay feasible
    as convex combinations of feasible points.
    """
    return _oblivious("oblivious_acsmd", prob, sched, T, rng, True, eval_stride)


def levy_adaptive(prob: CompositeProblem, D: float, M: float, T: int, rng,
                  eval_stride: int | None = None) -> RunTrace:
    """Projected SGD with the adaptive step 2D / sqrt(M^2 + sum ||g||^2).

    Needs the set diameter D up front; the trace follows the uniform average
    of the query points.
    """
    D, M = _check_constant("D", D), _check_constant("M", M)
    acc = M * M

    def step(t, x, g, gnorm):
        nonlocal acc
        acc += gnorm * gnorm
        eta = 2.0 * D / math.sqrt(acc) if acc > 0 else 0.0
        return project_box(x - eta * g, prob.feasible)

    return _run("levy_adaptive", {"D": D, "M": M}, prob, T, rng, step,
                eval_stride=eval_stride)


def lan_acsa(prob: CompositeProblem, L: float, T: int, rng,
             eval_stride: int | None = None) -> RunTrace:
    """Accelerated stochastic approximation with a known smoothness constant.

    Combination weights come from alpha_t = t/2 (md weight 2/(t+1)); the
    update is a projected gradient step of size t/(4L) taken at the md point.
    The step reads L only; AC-SA's noise level sigma enters no step here.
    """
    L = _check_constant("L", L)
    # the weights are built from T before _run checks it
    T = _check("T", T, "an integer >= 1")

    def step(t, x, g, gnorm):
        eta = t / (4.0 * L)
        return project_box(x - eta * g, prob.feasible)

    return _run("lan_acsa", {"L": L}, prob, T, rng, step,
                0.5 * np.arange(1, T + 1), True, eval_stride)


def relative_md(prob: CompositeProblem, Lstar: float, Gamma: float, T: int, rng,
                eval_stride: int | None = None) -> RunTrace:
    """Projected SGD with the constant relative-scale step
    1/sqrt(Gamma * Lstar * T) and uniform averaging."""
    Lstar = _check_constant("Lstar", Lstar)
    Gamma = _check_constant("Gamma", Gamma)
    # the step divides by T before the loop checks it
    T = _check("T", T, "an integer >= 1")
    eta = 1.0 / math.sqrt(Gamma * Lstar * T)

    def step(t, x, g, gnorm):
        return project_box(x - eta * g, prob.feasible)

    return _run("relative_md", {"Lstar": Lstar, "Gamma": Gamma, "eta": eta},
                prob, T, rng, step, eval_stride=eval_stride)
