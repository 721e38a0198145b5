"""The paper's rates as checks on one d = 20 instance.

Each gap is Psi(X_ag) minus the certified anchor's bound Psi_ag - gap from
reference_run: an upper bound on the true gap Psi(X_ag) - Psi*, above it
by at most the anchor's certified gap of 1e-5 or less.
"""

import math

import numpy as np
import pytest

from specmd.harness import reference_run
from specmd.oracles import ExactOracleConfig, SmoothingOracleConfig
from specmd.problem import gen_instance, make_problem
from specmd.solvers import StepSchedule, oblivious_acsmd, oblivious_smd

MU = 1.0 / math.sqrt(500)
SEED = 1
HORIZONS = (100, 400, 1600)


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
