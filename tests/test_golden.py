"""Golden traces: each solver against a test-local copy of its loop body.

The reference loops below keep every iterate as a plain array, call the
oracle on it directly, take their steps from a scalar step law of their
own, and evaluate the trace with their own prox, clamp, eigvalsh and
tensordot arithmetic. A solver whose loop drops a
symmetrizing step, reorders an update or changes an evaluation kernel shows
up here as a bitwise difference in F_ag, Psi_ag, grad_norm or the final
point.
"""

import math

import numpy as np
import pytest

from specmd.linalg import make_rng
from specmd.oracles import (ExactOracleConfig, PowerOracleConfig,
                            SmoothingOracleConfig)
from specmd.problem import gen_instance, make_problem
from specmd.solvers import (StepSchedule, lan_acsa, levy_adaptive,
                            oblivious_acsmd, oblivious_smd, relative_md)

D, T, SEED = 12, 60, 7
SCHED = StepSchedule(degree=1)
LEVY_D, LEVY_M = 3.0, 1.0
LAN_L = 40.0
REL_LSTAR, REL_GAMMA = 10.0, 0.01


def _steps(t):
    """(alpha_t, gamma_t) of SCHED: (t+1)^n and t^(n+1) / (n+1)."""
    n = SCHED.degree
    return (t + 1.0) ** n, float(t) ** (n + 1) / (n + 1)


def _bounds(prob):
    box = prob.feasible
    return box.center.data - box.radius, box.center.data + box.radius


def _prox(xt, g, alpha, gamma, prob):
    mu = prob.mu
    stationary = (2.0 * mu * (alpha * prob.x1.data + gamma * xt)
                  - alpha * g) / (2.0 * mu * (alpha + gamma))
    return np.clip(stationary, *_bounds(prob))


def _project(x, prob):
    return np.clip(x, *_bounds(prob))


class _Rows:
    """Per-iteration (F_ag, Psi_ag, grad_norm) of a reference loop."""

    def __init__(self, prob):
        self.prob = prob
        self.f, self.psi, self.gn = [], [], []

    def record(self, avg, gnorm):
        f = float(np.linalg.eigvalsh(avg)[-1])
        diff = avg - self.prob.x1.data
        self.f.append(f)
        self.psi.append(f + self.prob.mu * float(np.tensordot(diff, diff)))
        self.gn.append(gnorm)


def ref_smd(prob):
    oracle, gen, rows = prob.oracle, make_rng(SEED), _Rows(prob)
    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        alpha, gamma = _steps(t)
        _, g = oracle(x, gen)
        a_sum += alpha
        x_ag = x_ag + (x - x_ag) * alpha / a_sum
        x = _prox(x, g, alpha, gamma, prob)
        rows.record(x_ag, float(np.linalg.norm(g)))
    return rows, x_ag


def ref_acsmd(prob):
    oracle, gen, rows = prob.oracle, make_rng(SEED), _Rows(prob)
    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        alpha, gamma = _steps(t)
        a_sum += alpha
        x_md = x_ag + (x - x_ag) * alpha / a_sum
        _, g = oracle(x_md, gen)
        x = _prox(x, g, alpha, gamma, prob)
        x_ag = x_ag + (x - x_ag) * alpha / a_sum
        rows.record(x_ag, float(np.linalg.norm(g)))
    return rows, x_ag


def ref_levy(prob):
    oracle, gen, rows = prob.oracle, make_rng(SEED), _Rows(prob)
    x = prob.x1.data.copy()
    x_bar = x.copy()
    acc = LEVY_M * LEVY_M
    for t in range(1, T + 1):
        _, g = oracle(x, gen)
        gnorm = float(np.linalg.norm(g))
        acc += gnorm * gnorm
        eta = 2.0 * LEVY_D / math.sqrt(acc) if acc > 0 else 0.0
        x_bar += (x - x_bar) / t
        x = _project(x - eta * g, prob)
        rows.record(x_bar, gnorm)
    return rows, x_bar


def ref_lan(prob):
    oracle, gen, rows = prob.oracle, make_rng(SEED), _Rows(prob)
    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        alpha = 0.5 * t
        a_sum += alpha
        x_md = x_ag + (x - x_ag) * alpha / a_sum
        _, g = oracle(x_md, gen)
        x = _project(x - t / (4.0 * LAN_L) * g, prob)
        x_ag = x_ag + (x - x_ag) * alpha / a_sum
        rows.record(x_ag, float(np.linalg.norm(g)))
    return rows, x_ag


def ref_relative(prob):
    oracle, gen, rows = prob.oracle, make_rng(SEED), _Rows(prob)
    eta = 1.0 / math.sqrt(REL_GAMMA * REL_LSTAR * T)
    x = prob.x1.data.copy()
    x_bar = x.copy()
    for t in range(1, T + 1):
        _, g = oracle(x, gen)
        x_bar += (x - x_bar) / t
        x = _project(x - eta * g, prob)
        rows.record(x_bar, float(np.linalg.norm(g)))
    return rows, x_bar


SOLVERS = {
    "smd": (lambda prob: oblivious_smd(prob, SCHED, T, SEED, eval_stride=1),
            ref_smd),
    "acsmd": (lambda prob: oblivious_acsmd(prob, SCHED, T, SEED, eval_stride=1),
              ref_acsmd),
    "levy": (lambda prob: levy_adaptive(prob, LEVY_D, LEVY_M, T, SEED,
                                        eval_stride=1), ref_levy),
    "lan": (lambda prob: lan_acsa(prob, LAN_L, T, SEED,
                                  eval_stride=1), ref_lan),
    "relative": (lambda prob: relative_md(prob, REL_LSTAR, REL_GAMMA, T, SEED,
                                          eval_stride=1), ref_relative),
}

ORACLES = {
    "exact": ExactOracleConfig(),
    "smoothing": SmoothingOracleConfig(k=2),
    "power": PowerOracleConfig(p=5),
}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_trace_matches_reference_loop(solver, oracle):
    prob = make_problem(gen_instance(D, 0.2, seed=0), ORACLES[oracle], T=T)
    run, reference = SOLVERS[solver]
    trace = run(prob)
    rows, final = reference(prob)
    assert list(trace.t) == list(range(1, T + 1))
    assert _bits(trace.F_ag) == _bits(rows.f)
    assert _bits(trace.Psi_ag) == _bits(rows.psi)
    assert _bits(trace.grad_norm) == _bits(rows.gn)
    assert _bits(trace.final_point.data) == _bits(final)
