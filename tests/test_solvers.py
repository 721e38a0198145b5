import math

import numpy as np
import pytest

from conftest import constant_oracle, zero_oracle
from specmd.linalg import SymMatrix, make_rng, sym_from, sym_zeros
from specmd.oracles import (ExactOracleConfig, GradSample, PowerOracleConfig,
                            SmoothingOracleConfig)
from specmd.problem import BoxSet, gen_instance, make_problem, project_box
import specmd.solvers as solvers
from specmd.solvers import (RunTrace, SolverError, StepSchedule, lan_acsa,
                            levy_adaptive, oblivious_acsmd, oblivious_smd,
                            relative_md, relative_step, schedule_at)


class TestStepSchedule:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(degree=-1)
        with pytest.raises(ValueError):
            StepSchedule(scale=0.0)

    def test_degree_zero_increment_equality(self):
        sched = StepSchedule(degree=0, scale=1.0)
        for t in (1, 2, 10, 999):
            alpha_t, gamma_t = schedule_at(sched, t)
            _, gamma_next = schedule_at(sched, t + 1)
            assert alpha_t == 1.0
            assert gamma_next - gamma_t == alpha_t

    def test_formula_values(self):
        # alpha = scale * (t+1)^degree, gamma = scale * t^(degree+1) / (degree+1)
        alpha, gamma = schedule_at(StepSchedule(degree=1, scale=1.0), 3)
        assert alpha == 4.0  # 1 * (3+1)^1
        assert gamma == 4.5  # 1 * 3^2 / 2
        alpha, gamma = schedule_at(StepSchedule(degree=2, scale=0.5), 2)
        assert alpha == 0.5 * 9.0  # 0.5 * (2+1)^2
        assert gamma == 0.5 * 8.0 / 3.0  # 0.5 * 2^3 / 3

    def test_rejects_bad_iteration_index(self):
        with pytest.raises(ValueError):
            schedule_at(StepSchedule(), 0)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_validate_long_horizon(self, degree):
        for scale in (0.1, 1.0, 2.0, 10.0):
            StepSchedule(degree=degree, scale=scale).validate(100_000)

    def test_weights_match_schedule_at(self):
        sched = StepSchedule(degree=2, scale=1.3)
        alpha, gamma = sched.weights(50)
        for t in (1, 7, 50):
            a_t, g_t = schedule_at(sched, t)
            assert alpha[t - 1] == a_t
            assert gamma[t - 1] == g_t


class TestRunTrace:
    def _mk(self, t, elapsed):
        n = len(t)
        return RunTrace(t=np.array(t), F_ag=np.zeros(n), Psi_ag=np.zeros(n),
                        grad_norm=np.ones(n), elapsed_s=np.array(elapsed),
                        final_point=sym_zeros(2), config_echo={}, seed=0)

    def test_validation(self):
        self._mk([1, 2, 3], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            self._mk([], [])
        with pytest.raises(ValueError):
            self._mk([1, 1, 2], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            self._mk([1, 2, 3], [0.3, 0.2, 0.1])


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
        box = BoxSet(center=sym_from([[1.3]]), radius=0.4)
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


class TestFeasibilityAndAveraging:
    @pytest.mark.parametrize("runner", [
        lambda prob, T, rng: oblivious_smd(prob, StepSchedule(degree=1), T, rng,
                                           keep_iterates=True),
        lambda prob, T, rng: oblivious_acsmd(prob, StepSchedule(degree=2), T, rng,
                                             keep_iterates=True),
        lambda prob, T, rng: levy_adaptive(prob, 3.0, 1.0, T, rng,
                                           keep_iterates=True),
        lambda prob, T, rng: lan_acsa(prob, 20.0, 1.0, T, rng,
                                      keep_iterates=True),
        lambda prob, T, rng: relative_md(prob, 10.0, 0.01, T, rng,
                                         keep_iterates=True),
    ])
    def test_iterates_stay_feasible(self, runner):
        for oracle in (SmoothingOracleConfig(), PowerOracleConfig(p=5)):
            prob = interior_problem(seed=3, d=6, oracle=oracle)
            trace = runner(prob, 40, 5)
            box = prob.feasible
            for point in trace.iterates + [trace.final_point]:
                assert np.all(np.abs(point.data - box.center.data)
                              <= box.radius + 1e-9)
                # the loops never re-symmetrize, so their updates must keep
                # exact symmetry on their own
                assert np.array_equal(point.data, point.data.T)

    def test_smd_weighted_average_identity(self):
        prob = interior_problem(seed=4, d=4, oracle=SmoothingOracleConfig())
        sched = StepSchedule(degree=1)
        trace = oblivious_smd(prob, sched, 30, 7, keep_iterates=True)
        alpha, _ = sched.weights(30)
        stack = np.array([p.data for p in trace.iterates])
        recomputed = np.tensordot(alpha, stack, axes=1) / alpha.sum()
        assert np.allclose(recomputed, trace.final_point.data, rtol=1e-10,
                           atol=1e-14)

    def test_acsmd_weighted_average_identity(self):
        prob = interior_problem(seed=5, d=4, oracle=SmoothingOracleConfig())
        sched = StepSchedule(degree=2)
        trace = oblivious_acsmd(prob, sched, 30, 7, keep_iterates=True)
        alpha, _ = sched.weights(30)
        stack = np.array([p.data for p in trace.iterates])
        recomputed = np.tensordot(alpha, stack, axes=1) / alpha.sum()
        assert np.allclose(recomputed, trace.final_point.data, rtol=1e-10,
                           atol=1e-14)

    def test_uniform_average_identity(self):
        prob = interior_problem(seed=6, d=4, oracle=SmoothingOracleConfig())
        trace = levy_adaptive(prob, 3.0, 1.0, 25, 9, keep_iterates=True)
        stack = np.array([p.data for p in trace.iterates])
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
        trace = lan_acsa(prob, L=1e12, sigma=1.0, T=50, rng=2)
        assert np.max(np.abs(trace.final_point.data - prob.x1.data)) <= 1e-8

    def test_scalar_quadratic_rate(self):
        # f(x) = (L/2)(x - b)^2 with exact gradients; gap must beat 1/T decay
        L, b = 4.0, 1.1
        box = BoxSet(center=sym_from([[1.0]]), radius=0.5)

        def grad_oracle(x, rng):
            val = 0.5 * L * (x.data[0, 0] - b) ** 2
            return GradSample(grad=sym_from([[L * (x.data[0, 0] - b)]]),
                              value=val)

        prob = make_problem(box, grad_oracle, mu=1e-9)
        gaps = {}
        for T in (100, 1000):
            trace = lan_acsa(prob, L, 0.0, T, 0, eval_stride=T)
            x_end = trace.final_point.data[0, 0]
            gaps[T] = 0.5 * L * (x_end - b) ** 2
        assert gaps[1000] <= max(2.0 * gaps[100] * 100 / 1000, 1e-10)


class TestRelativeMd:
    def test_step_formula(self):
        eta1 = relative_step(10.0, 0.5, 1000)
        eta2 = relative_step(10.0, 0.5, 2000)
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
    lambda prob: lan_acsa(prob, 20.0, 1.0, 10, 0),
    lambda prob: relative_md(prob, 10.0, 0.01, 10, 0),
]


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
        # a NaN entry fails in the oracle, a wrong-shape gradient in the step
        def nan_entry(d):
            entries = np.zeros((d, d))
            entries[0, 1] = np.nan
            return entries

        for bad_entries, message in (
                (nan_entry, "iteration 3: entries are not finite"),
                (lambda d: np.ones((d + 1, d + 1)), "iteration 3")):
            calls = {"n": 0}

            def bad_at_three(x, rng):
                calls["n"] += 1
                entries = (bad_entries(x.dim) if calls["n"] == 3
                           else np.zeros((x.dim, x.dim)))
                return GradSample(grad=sym_from(entries), value=0.0)

            prob = interior_problem(seed=11, oracle=bad_at_three)
            with pytest.raises(SolverError, match=message):
                run(prob)

    def test_rejects_bad_horizon(self):
        prob = interior_problem()
        with pytest.raises(ValueError):
            oblivious_smd(prob, StepSchedule(), 0, 0)


class TestConstantOracleDynamics:
    def test_smd_with_constant_push_hits_box_wall(self):
        # constant gradient direction drives iterates to the facing wall
        box = gen_instance(3, 0.0, seed=0)
        push = sym_from(np.eye(3) / math.sqrt(3.0))
        prob = make_problem(box, constant_oracle(push), mu=0.01)
        trace = oblivious_smd(prob, StepSchedule(degree=1), 400, 0,
                              eval_stride=100)
        diag_end = np.diag(trace.final_point.data)
        assert np.all(diag_end <= np.diag(box.lower) + 0.05)


class TestLookupNames:
    """perfbench times prox_step, project_box and eval_F by wrapping them at
    their specmd.solvers names, so the loop must look them up at call time."""

    @pytest.mark.parametrize(
        "run, n_prox, n_proj",
        zip(FIVE_SOLVERS, [10, 10, 0, 0, 0], [0, 0, 10, 10, 10]),
        ids=["smd", "acsmd", "levy", "lan", "relative"])
    def test_calls_go_through_solvers_globals(self, monkeypatch, run, n_prox,
                                              n_proj):
        counts = dict.fromkeys(("prox_step", "project_box", "eval_F"), 0)
        for name in counts:
            def counting(*args, _name=name, _inner=getattr(solvers, name)):
                counts[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(solvers, name, counting)
        run(interior_problem(seed=12, oracle=SmoothingOracleConfig()))
        assert counts == {"prox_step": n_prox, "project_box": n_proj,
                          "eval_F": 10}
