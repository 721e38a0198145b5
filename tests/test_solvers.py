import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_oracle, zero_oracle
from specmd.harness import resolve_solver_spec
from specmd.linalg import SymMatrix
from specmd.oracles import (ExactOracleConfig, PowerOracleConfig,
                            SmoothingOracleConfig)
from specmd.problem import BoxSet, gen_instance, make_problem, project_box
import specmd.solvers as solvers
from specmd.solvers import (RunTrace, SolverError, StepSchedule, lan_acsa,
                            levy_adaptive, oblivious_acsmd, oblivious_smd,
                            relative_md)


def schedule_at(sched, t):
    """The step law one scalar at a time, kept here so StepSchedule.weights
    is checked against an independent formula."""
    n = sched.degree
    return (t + 1.0) ** n, float(t) ** (n + 1) / (n + 1)


class TestStepSchedule:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(degree=-1)

    def test_degree_zero_increment_equality(self):
        sched = StepSchedule(degree=0)
        alpha, gamma = sched.weights(1000)
        for t in (1, 2, 10, 999):
            assert alpha[t - 1] == 1.0
            assert gamma[t] - gamma[t - 1] == alpha[t - 1]
            assert (alpha[t - 1], gamma[t - 1]) == schedule_at(sched, t)

    def test_formula_values(self):
        # alpha = (t+1)^degree, gamma = t^(degree+1) / (degree+1)
        alpha, gamma = StepSchedule(degree=1).weights(3)
        assert alpha[2] == 4.0  # (3+1)^1
        assert gamma[2] == 4.5  # 3^2 / 2
        alpha, gamma = StepSchedule(degree=2).weights(2)
        assert alpha[1] == 9.0  # (2+1)^2
        assert gamma[1] == 8.0 / 3.0  # 2^3 / 3

    def test_rejects_bad_iteration_index(self):
        # no step exists before t = 1: the schedule is empty and the
        # solvers refuse a horizon below 1
        alpha, gamma = StepSchedule().weights(0)
        assert alpha.size == gamma.size == 0
        prob = make_problem(gen_instance(3, 0.2, 0), ExactOracleConfig(), T=10)
        for solver in (oblivious_smd, oblivious_acsmd):
            with pytest.raises(ValueError,
                               match="^T must be an integer >= 1, got 0$"):
                solver(prob, StepSchedule(), 0, 0)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_bracket_holds_over_a_long_horizon(self, degree):
        # the bracket t^n <= gamma_{t+1} - gamma_t <= (t+1)^n that the mean
        # value theorem gives, and a nondecreasing alpha
        t = np.arange(1, 100_000, dtype=float)
        alpha, gamma = StepSchedule(degree=degree).weights(100_000)
        assert np.all(np.diff(alpha) >= 0.0)
        increments = np.diff(gamma)
        low, high = t ** degree, (t + 1.0) ** degree
        slack = 1e-12 * np.maximum(1.0, np.maximum(high, gamma[1:]))
        assert np.all(increments >= low - slack)
        assert np.all(increments <= high + slack)

    def test_weights_match_schedule_at(self):
        for sched in (StepSchedule(degree=2), StepSchedule(),
                      StepSchedule(degree=0)):
            alpha, gamma = sched.weights(50)
            for t in range(1, 51):
                assert (alpha[t - 1], gamma[t - 1]) == schedule_at(sched, t)


class TestRunTrace:
    def _mk(self, t, elapsed):
        n = len(t)
        return RunTrace(t=np.array(t), F_ag=np.zeros(n), Psi_ag=np.zeros(n),
                        grad_norm=np.ones(n), elapsed_s=np.array(elapsed),
                        final_point=SymMatrix(np.zeros((2, 2))),
                        config_echo={}, seed=0)

    def test_validation(self):
        good = self._mk([1, 2, 3], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            self._mk([], [])
        with pytest.raises(ValueError):
            self._mk([1, 1, 2], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            self._mk([1, 2, 3], [0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="start at 1"):
            self._mk([0, 1, 2], [0.1, 0.2, 0.3])
        for key, value, message in (("F_ag", math.nan, "non-finite"),
                                    ("grad_norm", math.nan, "negative or NaN"),
                                    ("grad_norm", -1.0, "negative or NaN")):
            with pytest.raises(ValueError, match=message):
                replace(good, **{key: np.array([1.0, value, 1.0])})
        # a finite gradient's norm can overflow, and the run records it
        replace(good, grad_norm=np.array([1.0, math.inf, 1.0]))


def interior_problem(seed=1, d=5, mu=0.5, oracle=None):
    box = gen_instance(d, 0.15, seed=seed)
    return make_problem(box, oracle if oracle is not None else zero_oracle, mu=mu)


class TestZeroOracleFixedPoint:
    @pytest.mark.parametrize("solver", [oblivious_smd, oblivious_acsmd])
    def test_oblivious_stay_at_start(self, solver):
        prob = interior_problem()
        trace = solver(prob, StepSchedule(degree=1), 60, 0)
        assert np.max(np.abs(trace.final_point.data - prob.x1.data)) <= 1e-12
        assert trace.F_ag[-1] == pytest.approx(trace.F_ag[0], abs=1e-12)

    def test_levy_stub_is_pinned(self):
        prob = interior_problem()
        trace = levy_adaptive(prob, D=2.0, M=1.0, T=40, rng=0)
        assert np.max(np.abs(trace.final_point.data - prob.x1.data)) == 0.0

    def test_relative_stub_is_pinned(self):
        prob = interior_problem()
        trace = relative_md(prob, Lstar=2.0, Gamma=1.0, T=40, rng=0)
        assert np.max(np.abs(trace.final_point.data - prob.x1.data)) == 0.0


class TestScalarEndpointConvergence:
    """d=1 objective min x over [a - rho, a + rho]: the left endpoint wins."""

    def setup_problem(self, mu):
        box = BoxSet(center=SymMatrix(np.array([[1.3]])), radius=0.4)
        return make_problem(box, ExactOracleConfig(), mu=mu)

    def test_smd_reaches_left_endpoint(self):
        T = 10_000
        prob = self.setup_problem(mu=1.0 / math.sqrt(T))
        trace = oblivious_smd(prob, StepSchedule(degree=1), T, 0,
                              eval_stride=1000)
        assert trace.final_point.data[0, 0] - 0.9 <= 1e-3

    def test_acsmd_degree0_reaches_left_endpoint(self):
        T = 10_000
        prob = self.setup_problem(mu=1.0 / math.sqrt(T))
        trace = oblivious_acsmd(prob, StepSchedule(degree=0), T, 0,
                                eval_stride=1000)
        assert trace.final_point.data[0, 0] - 0.9 <= 1e-3


class Recorder:
    """Keeps every oracle query point and every step output of a run.

    Wraps the loop's `prox_step` and `project_box` at their specmd.solvers
    names; `oracle(spec)` is an oracle that keeps its query points.
    """

    def __init__(self, monkeypatch):
        self.queries, self.steps = [], []
        for name in ("prox_step", "project_box"):
            monkeypatch.setattr(solvers, name, self._keeping(getattr(solvers, name)))

    def _keeping(self, step):
        def wrapped(*args):
            out = step(*args)
            self.steps.append(out)
            return out
        return wrapped

    def oracle(self, draw):
        def keeping(x, rng):
            self.queries.append(x)
            return draw(x, rng)
        return keeping


@pytest.fixture
def recorder(monkeypatch):
    return Recorder(monkeypatch)


class TestFeasibilityAndAveraging:
    @pytest.mark.parametrize("runner", [
        lambda prob, T, rng: oblivious_smd(prob, StepSchedule(degree=1), T, rng),
        lambda prob, T, rng: oblivious_acsmd(prob, StepSchedule(degree=2), T, rng),
        lambda prob, T, rng: levy_adaptive(prob, 3.0, 1.0, T, rng),
        lambda prob, T, rng: lan_acsa(prob, 20.0, T, rng),
        lambda prob, T, rng: relative_md(prob, 10.0, 0.01, T, rng),
    ])
    def test_iterates_stay_feasible(self, runner, recorder):
        for oracle in (SmoothingOracleConfig(), PowerOracleConfig(p=5)):
            recorder.queries.clear()
            recorder.steps.clear()
            prob = interior_problem(seed=3, d=6, oracle=recorder.oracle(oracle))
            trace = runner(prob, 40, 5)
            assert len(recorder.queries) == len(recorder.steps) == 40
            box = prob.feasible
            for point in [*recorder.queries, *recorder.steps,
                          trace.final_point.data]:
                assert np.all(np.abs(point - box.center.data)
                              <= box.radius + 1e-9)
                # the loop never re-symmetrizes, so its updates must keep
                # exact symmetry on their own
                assert np.array_equal(point, point.T)

    def test_smd_weighted_average_identity(self, recorder):
        # smd averages its query points X_t
        prob = interior_problem(seed=4, d=4,
                                oracle=recorder.oracle(SmoothingOracleConfig()))
        sched = StepSchedule(degree=1)
        trace = oblivious_smd(prob, sched, 30, 7)
        alpha, _ = sched.weights(30)
        stack = np.array(recorder.queries)
        recomputed = np.tensordot(alpha, stack, axes=1) / alpha.sum()
        assert np.allclose(recomputed, trace.final_point.data, rtol=1e-10,
                           atol=1e-14)

    def test_acsmd_weighted_average_identity(self, recorder):
        # acsmd averages its prox outputs X_{t+1}
        prob = interior_problem(seed=5, d=4, oracle=SmoothingOracleConfig())
        sched = StepSchedule(degree=2)
        trace = oblivious_acsmd(prob, sched, 30, 7)
        alpha, _ = sched.weights(30)
        stack = np.array(recorder.steps)
        recomputed = np.tensordot(alpha, stack, axes=1) / alpha.sum()
        assert np.allclose(recomputed, trace.final_point.data, rtol=1e-10,
                           atol=1e-14)

    def test_uniform_average_identity(self, recorder):
        # levy averages its query points uniformly
        prob = interior_problem(seed=6, d=4,
                                oracle=recorder.oracle(SmoothingOracleConfig()))
        trace = levy_adaptive(prob, 3.0, 1.0, 25, 9)
        stack = np.array(recorder.queries)
        assert np.allclose(stack.mean(axis=0), trace.final_point.data,
                           rtol=1e-10, atol=1e-14)


class TestLevy:
    def test_step_denominator_is_nondecreasing(self):
        prob = interior_problem(seed=8, d=5, oracle=SmoothingOracleConfig())
        D, M = 4.0, 1.0
        trace = levy_adaptive(prob, D, M, 50, 3)
        acc = M * M + np.cumsum(trace.grad_norm ** 2)
        eta = 2.0 * D / np.sqrt(acc)
        assert np.all(np.diff(eta) <= 0)

    def test_rejects_bad_parameters(self):
        prob = interior_problem()
        with pytest.raises(ValueError):
            levy_adaptive(prob, 0.0, 1.0, 10, 0)
        with pytest.raises(ValueError):
            levy_adaptive(prob, 1.0, -1.0, 10, 0)


class TestLanAcsa:
    def test_huge_smoothness_pins_iterates(self):
        prob = interior_problem(seed=9, d=5, oracle=SmoothingOracleConfig())
        trace = lan_acsa(prob, L=1e12, T=50, rng=2)
        assert np.max(np.abs(trace.final_point.data - prob.x1.data)) <= 1e-8

    def test_scalar_quadratic_rate(self):
        # f(x) = (L/2)(x - b)^2 with exact gradients; gap must beat 1/T decay
        L, b = 4.0, 1.1
        box = BoxSet(center=SymMatrix(np.array([[1.0]])), radius=0.5)

        def grad_oracle(x, rng):
            return 0.5 * L * (x[0, 0] - b) ** 2, np.array([[L * (x[0, 0] - b)]])

        prob = make_problem(box, grad_oracle, mu=1e-9)
        gaps = {}
        for T in (100, 1000):
            trace = lan_acsa(prob, L, T, 0, eval_stride=T)
            x_end = trace.final_point.data[0, 0]
            gaps[T] = 0.5 * L * (x_end - b) ** 2
        assert gaps[1000] <= max(2.0 * gaps[100] * 100 / 1000, 1e-10)


class TestRelativeMd:
    def test_step_formula(self):
        prob = interior_problem()
        eta1, eta2 = (relative_md(prob, 10.0, 0.5, T, 0).config_echo["eta"]
                      for T in (1000, 2000))
        assert eta2 * math.sqrt(2.0) == pytest.approx(eta1, rel=1e-14)
        assert eta1 == pytest.approx(1.0 / math.sqrt(0.5 * 10.0 * 1000),
                                     rel=1e-15)

    def test_rejects_bad_parameters(self):
        prob = interior_problem()
        with pytest.raises(ValueError):
            relative_md(prob, 0.0, 1.0, 10, 0)
        with pytest.raises(ValueError):
            relative_md(prob, 1.0, 0.0, 10, 0)


FIVE_SOLVERS = [
    lambda prob: oblivious_smd(prob, StepSchedule(degree=1), 10, 0),
    lambda prob: oblivious_acsmd(prob, StepSchedule(degree=1), 10, 0),
    lambda prob: levy_adaptive(prob, 3.0, 1.0, 10, 0),
    lambda prob: lan_acsa(prob, 20.0, 10, 0),
    lambda prob: relative_md(prob, 10.0, 0.01, 10, 0),
]


# each public solver with its inputs ahead of (T, rng)
SOLVER_PARAMS = [
    (oblivious_smd, (StepSchedule(),)), (oblivious_acsmd, (StepSchedule(),)),
    (levy_adaptive, (1.0, 1.0)), (lan_acsa, (40.0,)),
    (relative_md, (10.0, 0.01))]


class TestDeterminismAndErrors:
    def test_identical_seeds_identical_traces(self):
        prob = interior_problem(seed=10, d=6, oracle=SmoothingOracleConfig())
        a = oblivious_acsmd(prob, StepSchedule(degree=1), 40, 12)
        b = oblivious_acsmd(prob, StepSchedule(degree=1), 40, 12)
        assert np.array_equal(a.F_ag, b.F_ag)
        assert np.array_equal(a.Psi_ag, b.Psi_ag)
        assert np.array_equal(a.grad_norm, b.grad_norm)
        assert np.array_equal(a.final_point.data, b.final_point.data)
        assert a.seed == b.seed == 12

    def test_different_seeds_differ(self):
        prob = interior_problem(seed=10, d=6, oracle=SmoothingOracleConfig())
        a = oblivious_smd(prob, StepSchedule(degree=1), 40, 1)
        b = oblivious_smd(prob, StepSchedule(degree=1), 40, 2)
        assert not np.array_equal(a.final_point.data, b.final_point.data)

    def test_oracle_failure_is_tagged_with_iteration(self):
        calls = {"n": 0}

        def flaky(x, rng):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("synthetic oracle failure")
            return zero_oracle(x, rng)

        prob = interior_problem(seed=11, oracle=flaky)
        with pytest.raises(SolverError, match="iteration 3"):
            oblivious_smd(prob, StepSchedule(degree=1), 10, 0)

    @pytest.mark.parametrize("run", FIVE_SOLVERS)
    def test_nan_gradient_is_tagged_with_iteration(self, run):
        # a non-finite gradient entry or value fails in the oracle check, a
        # wrong-shape gradient in the step
        def bad_entry(d, value):
            entries = np.zeros((d, d))
            entries[0, 1] = value
            return entries

        for bad_draw, message in (
                (lambda d: (0.0, bad_entry(d, np.nan)),
                 "iteration 3: entries are not finite"),
                (lambda d: (0.0, bad_entry(d, np.inf)),
                 "iteration 3: entries are not finite"),
                (lambda d: (0.0, bad_entry(d, -np.inf)),
                 "iteration 3: entries are not finite"),
                (lambda d: (np.nan, np.zeros((d, d))),
                 "iteration 3: oracle value is not finite: nan"),
                (lambda d: (-np.inf, np.zeros((d, d))),
                 "iteration 3: oracle value is not finite: -inf"),
                (lambda d: (0.0, np.ones((d + 1, d + 1))), "iteration 3")):
            calls = {"n": 0}

            def bad_at_three(x, rng):
                calls["n"] += 1
                return (bad_draw(len(x)) if calls["n"] == 3
                        else zero_oracle(x, rng))

            prob = interior_problem(seed=11, oracle=bad_at_three)
            with pytest.raises(SolverError, match=message):
                run(prob)

    @pytest.mark.parametrize("run", FIVE_SOLVERS)
    def test_overflowing_norm_of_a_finite_gradient_runs(self, run):
        # the norm of 1e200 entries overflows to inf, but every entry is
        # finite: the run goes on and records grad_norm = inf there
        calls = {"n": 0}

        def huge_at_three(x, rng):
            calls["n"] += 1
            if calls["n"] == 3:
                return 0.0, np.full_like(x, 1e200)
            return zero_oracle(x, rng)

        prob = interior_problem(seed=11, oracle=huge_at_three)
        with pytest.warns(RuntimeWarning, match="overflow"):
            trace = run(prob)
        assert list(trace.t) == list(range(1, 11))
        assert trace.grad_norm[2] == math.inf
        assert np.isfinite(np.delete(trace.grad_norm, 2)).all()
        assert np.isfinite(trace.F_ag).all() and np.isfinite(trace.Psi_ag).all()

    def test_rejects_bad_horizon(self):
        prob = interior_problem()
        with pytest.raises(ValueError):
            oblivious_smd(prob, StepSchedule(), 0, 0)

    @pytest.mark.parametrize("solver, params", SOLVER_PARAMS)
    @pytest.mark.parametrize("T", [2.5, 10.0, True])
    def test_rejects_a_non_integer_horizon(self, solver, params, T):
        with pytest.raises(ValueError) as err:
            solver(interior_problem(), *params, T, 0)
        assert str(err.value) == f"T must be an integer >= 1, got {T!r}"

    @pytest.mark.parametrize("solver, params", SOLVER_PARAMS)
    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(
            self, solver, params, seed):
        # 1.5 and True ran as seed 1; -1 failed in numpy without a name
        with pytest.raises(ValueError) as err:
            solver(interior_problem(), *params, 10, seed)
        assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"

    @pytest.mark.parametrize("solver, params", SOLVER_PARAMS)
    def test_eval_stride_is_none_or_an_integer_of_at_least_1(self, solver,
                                                            params):
        prob = interior_problem()
        for stride in (0, -1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"eval_stride must be an integer >= 1, got {stride!r}")
                    + "$"):
                solver(prob, *params, 10, 0, eval_stride=stride)
        trace = solver(prob, *params, 10, 0, eval_stride=np.int64(4))
        assert list(trace.t) == [4, 8, 10]


class TestStopHook:
    def test_sees_every_draw_with_the_loop_weights(self):
        draws = []

        def recording(x, rng):
            value, g = ExactOracleConfig()(x, rng)
            draws.append(g)
            return value, g

        seen = []

        def stop(t, x_ag, g, alpha, a_sum):
            seen.append((t, g, alpha, a_sum))
            return False

        sched, T = StepSchedule(degree=2), 12
        prob = interior_problem(seed=3, oracle=recording)
        trace = solvers._oblivious("oblivious_acsmd", prob, sched, T, 0, True,
                                   None, stop)
        alphas = sched.weights(T)[0]
        assert [t for t, *_ in seen] == list(range(1, T + 1))
        assert len(draws) == T
        assert all(g is draw for (_, g, _, _), draw in zip(seen, draws))
        assert [alpha for _, _, alpha, _ in seen] == list(alphas)
        assert [a_sum for *_, a_sum in seen] == list(np.cumsum(alphas))
        assert trace.t[-1] == T


class TestConstantOracleDynamics:
    def test_smd_with_constant_push_hits_box_wall(self):
        # constant gradient direction drives iterates to the facing wall
        box = gen_instance(3, 0.0, seed=0)
        push = np.eye(3) / math.sqrt(3.0)
        prob = make_problem(box, constant_oracle(push), mu=0.01)
        trace = oblivious_smd(prob, StepSchedule(degree=1), 400, 0,
                              eval_stride=100)
        diag_end = np.diag(trace.final_point.data)
        assert np.all(diag_end <= np.diag(box.lower) + 0.05)


class TestLookupNames:
    """perfbench times prox_step, project_box and eval_F by wrapping them at
    their specmd.solvers names, so the loop must look them up at call time.
    eval_F takes the trace's points in stacked blocks, so its count is of
    matrices, not calls."""

    @pytest.mark.parametrize(
        "run, n_prox, n_proj",
        zip(FIVE_SOLVERS, [10, 10, 0, 0, 0], [0, 0, 10, 10, 10]),
        ids=["smd", "acsmd", "levy", "lan", "relative"])
    def test_calls_go_through_solvers_globals(self, monkeypatch, run, n_prox,
                                              n_proj):
        counts = dict.fromkeys(("prox_step", "project_box", "eval_F"), 0)
        for name in counts:
            def counting(*args, _name=name, _inner=getattr(solvers, name)):
                counts[_name] += len(args[0]) if _name == "eval_F" else 1
                return _inner(*args)
            monkeypatch.setattr(solvers, name, counting)
        run(interior_problem(seed=12, oracle=SmoothingOracleConfig()))
        assert counts == {"prox_step": n_prox, "project_box": n_proj,
                          "eval_F": 10}


# each solver input, the direct call that takes it, and the spec that names it
SOLVER_INPUTS = {
    "D": (lambda prob, v: levy_adaptive(prob, v, 1.0, 10, 0), "levy"),
    "M": (lambda prob, v: levy_adaptive(prob, 3.0, v, 10, 0), "levy"),
    "L": (lambda prob, v: lan_acsa(prob, v, 10, 0), "lan"),
    "Lstar": (lambda prob, v: relative_md(prob, v, 0.01, 10, 0), "relative"),
    "Gamma": (lambda prob, v: relative_md(prob, 10.0, v, 10, 0), "relative"),
    "degree": (lambda prob, v: oblivious_smd(prob, StepSchedule(degree=v),
                                             10, 0), "smd"),
}


def _bad_inputs():
    for key in SOLVER_INPUTS:
        # M = 0 and degree = 0 are valid; 1.5 is a valid constant
        for value in (math.nan, math.inf, -1, 0, "abc", True, 1.5):
            if (value == 0 and key in ("M", "degree")
                    or value == 1.5 and key != "degree"):
                continue
            yield pytest.param(key, value, id=f"{key}={value!r}")


@pytest.mark.parametrize("key, value", _bad_inputs())
def test_direct_call_and_spec_refuse_an_input_in_one_line(key, value):
    # one check per input: the solver call and the campaign's spec
    # resolution must raise the same words
    call, kind = SOLVER_INPUTS[key]
    theory = {"D": 12.0, "M": 1.0, "L": 600.0, "Lstar": 10.0, "Gamma": 0.01}
    with pytest.raises(ValueError) as direct:
        call(interior_problem(), value)
    with pytest.raises(ValueError) as spec:
        resolve_solver_spec({"kind": kind, key: value}, theory)
    need = {"degree": "an integer >= 0",
            "M": "nonnegative and finite"}.get(key, "positive and finite")
    assert str(direct.value) == str(spec.value) == (
        f"solver option {key} must be {need}, got {value!r}")
