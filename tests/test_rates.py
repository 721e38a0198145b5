"""The paper's rates and its robustness to constants, as checks on one
d = 20 instance.

At a fixed mu, each gap is Psi(X_ag) minus the certified anchor's bound
Psi_ag - gap from reference_run: an upper bound on the true gap Psi(X_ag) -
Psi*, above it by at most the anchor's certified gap of 1e-5 or less.

With the paper's mu = 1/sqrt(T) per horizon, each gap is F(X_ag) - LB_F,
where LB_F = max_i A_ii - rho <= X_ii <= lambda_max(X) for every box point
X; on this instance LB_F = 0.5 and F* is within 3e-8 of it. acsmd is below
smd on Psi at a fixed mu, but not reliably on F at mu = 1/sqrt(T), so that
is not checked. Measured on gen_instance(20, 0.2, s) for s = 0, ..., 3, with
the exact oracle and with smoothing eps = 1e-3 at seeds 1, 2 and 3: acsmd
ends below smd on F at T = 400 on every instance, oracle and seed, but at
T = 6,400 only on instances 1 and 3 with the exact oracle, and at 0, 2, 0
and 1 of the 3 seeds of instances 0 to 3 with smoothing. On instances 1 and
2, LB_F is loose: F - LB_F is still 1.4e-2 and 7.2e-2 at T = 6,400.
"""

import math

import numpy as np
import pytest

from specmd.harness import (TUNE_D, TUNE_L, reference_run, run_solver_spec,
                            theory_parameters)
from specmd.oracles import ExactOracleConfig, SmoothingOracleConfig
from specmd.problem import gen_instance, make_problem
from specmd.solvers import StepSchedule, oblivious_acsmd, oblivious_smd

MU = 1.0 / math.sqrt(500)
SEED = 1
HORIZONS = (100, 400, 1600)
SWEEP = tuple(100 * 2 ** k for k in range(6))  # 100, 200, ..., 3,200


@pytest.fixture(scope="module")
def box_and_bound():
    box = gen_instance(20, 0.2, 0)
    _, gap, _, anchor = reference_run(box, MU, 20_000, 1e-5)
    assert gap <= 1e-5
    return box, float(anchor.Psi_ag[-1]) - gap


def _gaps(solver, oracle, box, bound):
    """Psi_ag - bound at each horizon. mu is fixed and the steps do not
    depend on the horizon, so the run of horizon 1,600 passes through the
    runs of horizon 100 and 400 (the exact oracle draws nothing; the
    smoothing oracle draws the same stream): its rows at t = 100 and 400
    are theirs."""
    prob = make_problem(box, oracle, mu=MU)
    trace = solver(prob, StepSchedule(degree=1), HORIZONS[-1], SEED,
                   eval_stride=HORIZONS[0])
    rows = dict(zip(trace.t.tolist(), trace.Psi_ag))
    return np.array([rows[T] - bound for T in HORIZONS])


def test_gaps_shrink_at_least_as_fast_as_one_over_sqrt_T(box_and_bound):
    smd = _gaps(oblivious_smd, ExactOracleConfig(), *box_and_bound)
    acsmd = _gaps(oblivious_acsmd, ExactOracleConfig(), *box_and_bound)
    root_t = np.sqrt(HORIZONS)
    for gaps in (smd, acsmd):
        assert np.all(gaps > 0)
        scaled = gaps * root_t
        assert np.all(np.diff(scaled) <= 0), scaled
    assert np.all(acsmd < smd), (acsmd, smd)


def test_smoothing_runs_end_within_epsilon_of_the_optimum(box_and_bound):
    # the oracle is unbiased for the eps-smoothed objective, not for
    # lambda_max: the gap stalls near 1.6e-3 here, but not above eps
    eps = 1e-2
    gaps = _gaps(oblivious_acsmd, SmoothingOracleConfig(k=1, epsilon=eps),
                 *box_and_bound)
    assert 0 < gaps[-1] <= eps


def _lb_F(box):
    """max_i A_ii - rho: a lower bound on lambda_max over the box."""
    return float(np.max(np.diag(box.center.data))) - box.radius


@pytest.mark.parametrize("oracle", [
    ExactOracleConfig(), SmoothingOracleConfig(k=1, epsilon=1e-3)],
    ids=["exact", "smoothing"])
@pytest.mark.parametrize("solver", [oblivious_smd, oblivious_acsmd])
def test_F_gap_at_mu_one_over_sqrt_T_shrinks_as_one_over_sqrt_T(solver,
                                                                oracle):
    # each horizon runs at its own mu, so no run passes through another;
    # measured log-log slopes: smd -1.42 and acsmd -1.34 (exact), -1.41 and
    # -1.37 (smoothing)
    box = gen_instance(20, 0.2, 0)
    gaps = np.array([
        solver(make_problem(box, oracle, T=T), StepSchedule(degree=1), T,
               SEED, eval_stride=T).F_ag[-1] for T in SWEEP]) - _lb_F(box)
    assert np.all(gaps >= 0), gaps
    slope = np.polyfit(np.log(SWEEP), np.log(gaps), 1)[0]
    assert slope <= -0.5, (slope, gaps)


def test_only_the_baselines_need_their_constant():
    # the paper's headline. smd and acsmd take no constant and end 4.19e-3
    # to 4.29e-3 above LB_F (the mu ||X - X1||^2 bias of Psi). Each
    # baseline's final gap over the scales ranges over levy 1.7e-3 to 0.70,
    # lan 7.3e-5 to 0.17 and relative 2.9e-3 to 0.19.
    box = gen_instance(20, 0.2, 0)
    oracle = SmoothingOracleConfig(k=1, epsilon=1e-2)
    T = 500
    prob = make_problem(box, oracle, T=T)
    theory = theory_parameters(box, oracle, T)
    # levy's D and lan's L scaled from their tuned theory values, and
    # relative's Lstar from 10, as perfbench's campaign sets it: the
    # smoothing oracle has no theory Lstar
    constants = {"levy": ("D", theory["D"] / TUNE_D),
                 "lan": ("L", theory["L"] / TUNE_L),
                 "relative": ("Lstar", 10.0)}

    def gap(spec, seed):
        trace = run_solver_spec(spec, prob, T, seed, theory, eval_stride=T)
        return trace.F_ag[-1] - _lb_F(box)

    for seed in (0, 1):
        for kind in ("smd", "acsmd"):
            assert 0 <= gap({"kind": kind}, seed) <= 1e-2
        for kind, (key, value) in constants.items():
            gaps = [gap({"kind": kind, key: value * scale}, seed)
                    for scale in (0.01, 0.1, 1.0, 10.0, 100.0)]
            assert min(gaps) >= 0, (kind, seed, gaps)
            assert max(gaps) >= 10 * min(gaps), (kind, seed, gaps)
            assert max(gaps) > 1e-2, (kind, seed, gaps)
