"""Trace rows evaluated in blocks: the same bits as one row at a time.

The solver loop copies each evaluated averaged point into a block and
evaluates a full block with one stacked eigen-solve. The reference loops
below evaluate every row on its own, so a row dropped, shifted or
mis-evaluated at a block boundary shows up as a bitwise difference.
"""

import math

import numpy as np
import pytest

from specmd.linalg import make_rng
from specmd.oracles import ExactOracleConfig, PowerOracleConfig
from specmd.problem import gen_instance, make_problem
from specmd.solvers import (BLOCK_BYTES, StepSchedule, _block_rows,
                            oblivious_acsmd, relative_md)

SEED = 5
SCHED = StepSchedule(degree=1)


class _Rows:
    """Per-row (F_ag, Psi_ag, grad_norm) of a reference loop, every stride-th
    iteration and the last."""

    def __init__(self, prob, T, stride):
        self.prob, self.T, self.stride = prob, T, stride
        self.f, self.psi, self.gn = [], [], []

    def record(self, t, avg, gnorm):
        if t % self.stride and t != self.T:
            return
        f = float(np.linalg.eigvalsh(avg)[-1])
        diff = avg - self.prob.x1.data
        self.f.append(f)
        self.psi.append(f + self.prob.mu * float(np.tensordot(diff, diff)))
        self.gn.append(gnorm)


def _clip(x, prob):
    box = prob.feasible
    return np.clip(x, box.center.data - box.radius, box.center.data + box.radius)


def ref_acsmd(prob, T, stride):
    oracle, gen, rows = prob.oracle, make_rng(SEED), _Rows(prob, T, stride)
    alphas, gammas = SCHED.weights(T)
    mu = prob.mu
    x = prob.x1.data.copy()
    x_ag = x.copy()
    a_sum = 0.0
    for t in range(1, T + 1):
        alpha, gamma = alphas[t - 1], gammas[t - 1]
        a_sum += alpha
        _, g = oracle(x_ag + (x - x_ag) * alpha / a_sum, gen)
        x = _clip((2.0 * mu * (alpha * prob.x1.data + gamma * x) - alpha * g)
                  / (2.0 * mu * (alpha + gamma)), prob)
        x_ag = x_ag + (x - x_ag) * alpha / a_sum
        rows.record(t, x_ag, float(np.linalg.norm(g)))
    return rows, x_ag


def ref_relative(prob, T, stride):
    oracle, gen, rows = prob.oracle, make_rng(SEED), _Rows(prob, T, stride)
    eta = 1.0 / math.sqrt(0.01 * 10.0 * T)
    x = prob.x1.data.copy()
    x_bar = x.copy()
    for t in range(1, T + 1):
        _, g = oracle(x, gen)
        x_bar += (x - x_bar) / t
        x = _clip(x - eta * g, prob)
        rows.record(t, x_bar, float(np.linalg.norm(g)))
    return rows, x_bar


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("d, T, stride, oracle, solver", [
    # 2,001 rows at 910 per block: two full blocks and a partial one
    (6, 2001, 1, ExactOracleConfig(), "acsmd"),
    (6, 2001, 1, ExactOracleConfig(), "relative"),
    # one point per block; the last row (t = T = 35) is off the stride
    (200, 35, 10, PowerOracleConfig(p=5), "acsmd"),
    (200, 35, 10, PowerOracleConfig(p=5), "relative"),
])
def test_blocks_match_rows_evaluated_one_at_a_time(d, T, stride, oracle, solver):
    prob = make_problem(gen_instance(d, 0.2, seed=0), oracle, T=T)
    if solver == "acsmd":
        trace = oblivious_acsmd(prob, SCHED, T, SEED, eval_stride=stride)
        rows, final = ref_acsmd(prob, T, stride)
    else:
        trace = relative_md(prob, 10.0, 0.01, T, SEED, eval_stride=stride)
        rows, final = ref_relative(prob, T, stride)
    per_block = _block_rows(d, T, stride)
    assert len(trace.t) == len(rows.f)
    if d == 6:
        assert 2 * per_block < len(trace.t) < 3 * per_block
    else:
        assert per_block == 1
    assert _bits(trace.F_ag) == _bits(rows.f)
    assert _bits(trace.Psi_ag) == _bits(rows.psi)
    assert _bits(trace.grad_norm) == _bits(rows.gn)
    assert _bits(trace.final_point.data) == _bits(final)


@pytest.mark.parametrize("d, most", [(6, 910), (20, 81), (200, 1)])
def test_block_buffer_is_bounded_whatever_T(d, most):
    # peak memory must not grow with the number of evaluated rows: at most
    # BLOCK_BYTES of points, or one point where a point alone is larger
    for T, stride in ((1, 1), (100, 1), (10**6, 1), (10**6, 10), (25, 10)):
        rows = _block_rows(d, T, stride)
        assert rows == min(most, -(-T // stride))
        assert rows * 8 * d * d <= max(BLOCK_BYTES, 8 * d * d)
