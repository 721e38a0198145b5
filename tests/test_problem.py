import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import asymmetric_instance, sym_matrix
from specmd.linalg import SymMatrix, make_rng
from specmd.oracles import ExactOracleConfig, PowerOracleConfig
from specmd.problem import (_HEADER, BoxSet, CompositeProblem,
                            box_lower_bound, eval_F, eval_penalty,
                            gen_instance, load_instance, make_problem,
                            project_box, prox_step, save_instance)
from specmd.harness import theory_parameters
import specmd.solvers as solvers
from specmd.solvers import StepSchedule, oblivious_acsmd


# per instance-header key, header texts its rule refuses and the value the
# message shows
BAD_HEADERS = {"d": [("x", "'x'"), ("2.0", "2.0")],
               "rho": [("nan", "nan"), ("0", "0")],
               "seed": [("-1", "-1"), ("1.5", "1.5")],
               "noise_sigma": [("nan", "nan"), ("-0.1", "-0.1")]}


def random_box(seed, d=3, radius=0.8):
    return BoxSet(center=sym_matrix(make_rng(seed).standard_normal((d, d))),
                  radius=radius)


def prox_kkt_violations(x, xt, g, alpha, gamma, prob):
    """Entries breaking the prox subproblem's KKT conditions beyond rounding.

    The derivative of alpha (<g, x> + mu ||x - X1||^2) + gamma mu ||x - Xt||^2
    must vanish at an interior entry, be >= 0 at the lower face and <= 0 at
    the upper face.
    """
    box = prob.feasible
    mu = prob.mu
    deriv = (alpha * g + 2.0 * mu * alpha * (x - prob.x1.data)
             + 2.0 * mu * gamma * (x - xt))
    magnitude = (alpha * np.abs(g)
                 + 2.0 * mu * alpha * (np.abs(x) + np.abs(prob.x1.data))
                 + 2.0 * mu * gamma * (np.abs(x) + np.abs(xt)))
    tol = 1e-9 * np.maximum(1.0, magnitude)
    at_lower = x == box.lower
    at_upper = x == box.upper
    ok = ((np.abs(deriv) <= tol) | (at_lower & (deriv >= -tol))
          | (at_upper & (deriv <= tol)))
    return int(np.count_nonzero(~ok))


def random_feasible(box, rng):
    offs = rng.uniform(-box.radius, box.radius, size=(box.dim, box.dim))
    return project_box(sym_matrix(box.center.data + offs).data, box)


class TestBoxSet:
    def test_radius_must_be_positive(self):
        # and finite: nan and inf would pass a bare "radius <= 0" test
        for radius in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radius must be positive "
                               f"and finite, got {radius!r}"):
                BoxSet(center=SymMatrix(np.eye(2)), radius=radius)

    def test_radius_must_be_a_number(self):
        # "0.5" raised a raw TypeError from the comparison
        with pytest.raises(ValueError) as err:
            BoxSet(center=SymMatrix(np.eye(2)), radius="0.5")
        assert str(err.value) == "radius must be positive and finite, got '0.5'"
        assert type(BoxSet(SymMatrix(np.eye(2)), np.float32(0.5)).radius) \
            is float

    def test_bounds_are_built_once_and_read_only(self):
        box = random_box(24)
        assert box.lower is box.lower and box.upper is box.upper
        assert np.array_equal(box.lower, box.center.data - box.radius)
        assert np.array_equal(box.upper, box.center.data + box.radius)
        with pytest.raises(ValueError):
            box.lower[0, 0] = 0.0

    def test_frobenius_diameter(self):
        # the baselines' theory D is the box's Frobenius diameter 2 rho d
        box = BoxSet(center=SymMatrix(np.zeros((5, 5))), radius=0.3)
        assert theory_parameters(box, ExactOracleConfig(), 10)["D"] == 3.0


class TestProjectBox:
    def test_feasible_point_unchanged(self):
        box = random_box(1)
        x = random_feasible(box, make_rng(2))
        assert np.array_equal(project_box(x, box), x)

    def test_scaled_identity_clamps(self):
        box = BoxSet(center=SymMatrix(np.zeros((3, 3))), radius=1.0)
        assert np.array_equal(project_box(3.0 * np.eye(3), box),
                              np.eye(3))

    def test_matches_per_entry_clamp(self):
        box = random_box(3)
        rng = make_rng(4)
        for _ in range(25):
            x = sym_matrix(3.0 * rng.standard_normal((3, 3)))
            out = project_box(x.data, box)
            for i in range(3):
                for j in range(3):
                    lo = box.center.data[i, j] - box.radius
                    hi = box.center.data[i, j] + box.radius
                    assert out[i, j] == min(max(x.data[i, j], lo), hi)

    def test_nonexpansive(self):
        box = random_box(5)
        rng = make_rng(6)
        for _ in range(50):
            x = sym_matrix(2.0 * rng.standard_normal((3, 3)))
            y = sym_matrix(2.0 * rng.standard_normal((3, 3)))
            dist_before = np.linalg.norm(x.data - y.data)
            dist_after = np.linalg.norm(project_box(x.data, box)
                                        - project_box(y.data, box))
            assert dist_after <= dist_before + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            project_box(np.eye(2), random_box(7, d=3))


class TestCompositeProblem:
    def test_requires_positive_mu(self):
        box = random_box(8)
        with pytest.raises(ValueError):
            CompositeProblem(feasible=box, mu=0.0, oracle=ExactOracleConfig())

    def test_make_problem_defaults(self):
        box = random_box(10)
        prob = make_problem(box, ExactOracleConfig(), T=400)
        assert prob.mu == pytest.approx(1.0 / 20.0)
        # the start point is the box center, with no other way to set it
        assert prob.x1 is box.center
        with pytest.raises(ValueError):
            make_problem(box, ExactOracleConfig())

    @pytest.mark.parametrize("T", [2.5, 0, True, np.float64(4.0)])
    def test_make_problem_takes_an_integer_horizon(self, T):
        # the rule and message of the solver loop's own check
        with pytest.raises(ValueError) as err:
            make_problem(random_box(4), ExactOracleConfig(), T=T)
        assert str(err.value) == f"T must be an integer >= 1, got {T!r}"
        assert make_problem(random_box(4), ExactOracleConfig(),
                            T=np.int64(4)).mu == 0.5

    @pytest.mark.parametrize("mu", [True, "0.1"])
    def test_mu_must_be_a_number(self, mu):
        # True built mu = 1.0 and "0.1" raised a raw TypeError
        with pytest.raises(ValueError) as err:
            make_problem(random_box(4), ExactOracleConfig(), mu=mu)
        assert str(err.value) == f"mu must be positive and finite, got {mu!r}"


def with_nan(x, i=0, j=1):
    """A copy of x with one NaN entry, to pin how the clamps pass NaN on."""
    out = np.array(x, dtype=float)
    out[i, j] = np.nan
    return out


class TestClampArithmetic:
    """prox_step and project_box clamp in place; pinned bit for bit against
    their np.clip forms, NaN entries included."""

    @pytest.mark.parametrize("d", [3, 20])
    def test_project_box_matches_np_clip(self, d):
        box = random_box(31, d=d)
        rng = make_rng(32)
        for trial in range(10):
            x = 3.0 * rng.standard_normal((d, d))
            x = with_nan(x) if trial % 2 else x
            expected = np.clip(x, box.lower, box.upper)
            before = x.copy()
            assert project_box(x, box).tobytes() == expected.tobytes()
            assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("d", [3, 20])
    def test_prox_step_matches_np_clip(self, d):
        box = random_box(33, d=d)
        prob = make_problem(box, ExactOracleConfig(), mu=0.05)
        rng = make_rng(34)
        for trial in range(10):
            xt = random_feasible(box, rng)
            g = 5.0 * rng.standard_normal((d, d))
            g = with_nan(g) if trial % 2 else g
            alpha, gamma = 1.0 + trial, 0.5 * trial * trial + 1.0
            mu = prob.mu
            stationary = (2.0 * mu * (alpha * prob.x1.data + gamma * xt)
                          - alpha * g) / (2.0 * mu * (alpha + gamma))
            expected = np.clip(stationary, box.lower, box.upper)
            assert (prox_step(xt, g, alpha, gamma, prob).tobytes()
                    == expected.tobytes())


class TestProxStep:
    def test_zero_gradient_is_clamped_blend(self):
        box = random_box(11)
        prob = make_problem(box, ExactOracleConfig(), mu=0.4)
        xt = random_feasible(box, make_rng(12))
        alpha, gamma = 0.7, 1.9
        out = prox_step(xt, np.zeros_like(xt), alpha, gamma, prob)
        blend = (alpha * prob.x1.data + gamma * xt) / (alpha + gamma)
        expected = np.clip(blend, box.lower, box.upper)
        assert np.allclose(out, expected, atol=1e-14)

    def test_vanishing_alpha_returns_xt(self):
        box = random_box(13)
        prob = make_problem(box, ExactOracleConfig(), mu=0.7)
        xt = random_feasible(box, make_rng(14))
        g = sym_matrix(make_rng(15).standard_normal((box.dim, box.dim)))
        out = prox_step(xt, g.data, 1e-14, 3.0, prob)
        assert np.allclose(out, xt, atol=1e-12)

    def test_beats_random_feasible_points(self):
        box = random_box(17)
        prob = make_problem(box, ExactOracleConfig(), mu=0.9)
        rng = make_rng(18)
        xt = random_feasible(box, rng)
        g = sym_matrix(rng.standard_normal((box.dim, box.dim)))
        alpha, gamma = 1.3, 2.1

        def objective(x):
            return (alpha * (float(np.tensordot(g.data, x))
                             + prob.mu * float(np.tensordot(x - prob.x1.data,
                                                            x - prob.x1.data)))
                    + gamma * prob.mu * float(np.tensordot(x - xt, x - xt)))

        out = prox_step(xt, g.data, alpha, gamma, prob)
        best = objective(out)
        for _ in range(1000):
            cand = random_feasible(box, rng)
            assert best <= objective(cand) + 1e-9

    @pytest.mark.parametrize("d", [3, 20, 200])
    def test_prox_step_satisfies_kkt(self, d):
        rng = make_rng(25 + d)
        for trial in range(6):
            box = random_box(100 * d + trial, d=d,
                             radius=float(rng.uniform(0.1, 1.0)))
            prob = make_problem(box, ExactOracleConfig(),
                                mu=float(rng.uniform(0.05, 2.0)))
            xt = random_feasible(box, rng)
            # the last trials scale g so that entries land on both faces
            scale = 1e3 if trial >= 4 else 1.0
            g = sym_matrix(scale * rng.standard_normal((d, d)))
            alpha = float(rng.uniform(0.01, 5.0))
            gamma = float(rng.uniform(0.01, 5.0))
            out = prox_step(xt, g.data, alpha, gamma, prob)
            assert prox_kkt_violations(out, xt, g.data, alpha, gamma, prob) == 0
            assert np.all(np.abs(out - box.center.data) <= box.radius + 1e-12)
            assert np.array_equal(project_box(out, box), out)
            if scale > 1.0:
                assert np.any(out == box.lower) and np.any(out == box.upper)

    def test_acsmd_power_iterates_satisfy_kkt(self, monkeypatch):
        # record each prox step of a short run as the loop calls it
        box = gen_instance(8, 0.2, seed=26)
        prob = make_problem(box, PowerOracleConfig(p=5), T=40)
        sched = StepSchedule(degree=1)
        calls = []

        def recording(xt, g, alpha, gamma, problem):
            out = prox_step(xt, g, alpha, gamma, problem)
            calls.append((xt, g, alpha, gamma, out))
            return out

        monkeypatch.setattr(solvers, "prox_step", recording)
        oblivious_acsmd(prob, sched, 40, 27)
        assert len(calls) == 40
        previous = prob.x1.data
        for t, (xt, g, alpha, gamma, x) in enumerate(calls, start=1):
            # degree 1: alpha_t = t + 1 and gamma_t = t^2 / 2
            assert (alpha, gamma) == ((t + 1.0) ** 1, float(t) ** 2 / 2)
            assert np.array_equal(xt, previous)
            assert prox_kkt_violations(x, xt, g, alpha, gamma, prob) == 0
            previous = x

    def test_matches_per_entry_golden_section(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        box = random_box(19, d=2)
        prob = make_problem(box, ExactOracleConfig(), mu=0.5)
        rng = make_rng(20)
        for _ in range(50):
            xt = random_feasible(box, rng)
            g = sym_matrix(rng.standard_normal((2, 2)))
            alpha = float(rng.uniform(0.1, 3.0))
            gamma = float(rng.uniform(0.1, 3.0))
            out = prox_step(xt, g.data, alpha, gamma, prob)
            mu = prob.mu
            for i in range(2):
                for j in range(2):
                    def entry_obj(v):
                        return (alpha * (g.data[i, j] * v
                                         + mu * (v - prob.x1.data[i, j]) ** 2)
                                + gamma * mu * (v - xt[i, j]) ** 2)
                    res = scipy_opt.minimize_scalar(
                        entry_obj, bounds=(box.lower[i, j], box.upper[i, j]),
                        method="bounded", options={"xatol": 1e-10})
                    assert out[i, j] == pytest.approx(res.x, abs=1e-6)


class TestCommonStepFactorCancels:
    """Why StepSchedule has no scale: a factor common to alpha and gamma
    cancels in the prox step and in the alpha_t / A_t averages."""

    @pytest.mark.parametrize("d", [3, 20, 200])
    def test_prox_step_ignores_a_common_factor(self, d):
        rng = make_rng(50 + d)
        for trial in range(6):
            box = random_box(300 * d + trial, d=d,
                             radius=float(rng.uniform(0.1, 1.0)))
            prob = make_problem(box, ExactOracleConfig(),
                                mu=float(rng.uniform(0.05, 2.0)))
            xt = random_feasible(box, rng)
            # the last trials scale g so that entries land on both faces
            scale = 1e3 if trial >= 4 else 1.0
            g = sym_matrix(scale * rng.standard_normal((d, d))).data
            alpha = float(rng.uniform(0.01, 5.0))
            gamma = float(rng.uniform(0.01, 5.0))
            base = prox_step(xt, g, alpha, gamma, prob)
            # doubling is exact in every operation, so not a bit moves
            doubled = prox_step(xt, g, 2 * alpha, 2 * gamma, prob)
            assert doubled.tobytes() == base.tobytes()
            # a factor of 3 rounds, but only in the last bits: within 4 ulps
            # of the largest entry (measured at most 1.9, or 1.3e-15 at d = 200)
            tripled = prox_step(xt, g, 3 * alpha, 3 * gamma, prob)
            ulp = np.finfo(float).eps * max(1.0, float(np.max(np.abs(base))))
            assert np.max(np.abs(tripled - base)) <= 4 * ulp

    def test_acsmd_run_ignores_doubled_weights(self):
        class Doubled(StepSchedule):
            def weights(self, horizon):
                alpha, gamma = super().weights(horizon)
                return 2.0 * alpha, 2.0 * gamma

        prob = make_problem(gen_instance(6, 0.2, seed=3),
                            PowerOracleConfig(p=5), T=40)
        base = oblivious_acsmd(prob, StepSchedule(), 40, 1, eval_stride=1)
        doubled = oblivious_acsmd(prob, Doubled(), 40, 1, eval_stride=1)
        assert doubled.F_ag.tobytes() == base.F_ag.tobytes()
        assert doubled.final_point.data.tobytes() == \
            base.final_point.data.tobytes()


class TestEvaluation:
    def test_eval_f_diagonal(self):
        assert eval_F(np.diag([5.0, 1.0])) == 5.0

    # Psi = eval_F + eval_penalty, as the solver traces compute it

    def test_eval_psi_at_start_equals_f(self):
        box = random_box(21)
        prob = make_problem(box, ExactOracleConfig(), mu=2.0)
        assert eval_penalty(prob.x1.data, prob) == 0.0

    def test_eval_psi_adds_quadratic(self):
        box = random_box(22)
        prob = make_problem(box, ExactOracleConfig(), mu=0.3)
        x = random_feasible(box, make_rng(23))
        diff = x - prob.x1.data
        expected = 0.3 * float(np.tensordot(diff, diff))
        assert eval_penalty(x, prob) == pytest.approx(expected, rel=1e-12)


class TestBoxLowerBound:
    def test_matches_perfbench_bound_of(self, monkeypatch):
        # perfbench's numpy-only copy is the independent yardstick
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        from specbench.certify import bound_of
        box = gen_instance(9, 0.2, 4)
        prob = make_problem(box, ExactOracleConfig(), mu=0.07)
        v = make_rng(5).standard_normal((3, 9))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = np.einsum("k,ki,kj->ij", [0.5, 0.3, 0.2], v, v)
        ours = box_lower_bound(w, prob)
        theirs = bound_of(w, box.center.data, box.radius, prob.mu,
                          prob.x1.data)
        assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

    def test_never_exceeds_psi_at_a_feasible_point(self):
        box = random_box(31, d=5)
        prob = make_problem(box, ExactOracleConfig(), mu=0.2)
        rng = make_rng(32)
        for _ in range(20):
            v = rng.standard_normal(5)
            w = np.outer(v, v) / (v @ v)
            lb = box_lower_bound(w, prob)
            for _ in range(10):
                x = random_feasible(box, rng)
                assert lb <= eval_F(x) + eval_penalty(x, prob) + 1e-12


class TestScalarCompositeBounds:
    """Grid-checked relations between the plain and regularized problems (d=1)."""

    def setup_instance(self, seed):
        rng = make_rng(seed)
        a = float(rng.uniform(0.8, 2.0))
        rho = float(rng.uniform(0.1, 0.6))
        mu = float(rng.uniform(0.05, 0.8))
        grid = np.linspace(a - rho, a + rho, 40001)
        return a, rho, mu, grid

    def test_composite_gap_bound(self):
        # F(X) - F_star <= mu * D0^2 + (Psi(X) - Psi_star) for any feasible X
        for seed in range(10):
            a, rho, mu, grid = self.setup_instance(seed)
            f = grid
            psi = grid + mu * (grid - a) ** 2
            f_star, psi_star = f.min(), psi.min()
            d0 = abs(a - grid[np.argmin(f)])
            rng = make_rng(100 + seed)
            for x in rng.uniform(a - rho, a + rho, size=50):
                lhs = x - f_star
                rhs = mu * d0 ** 2 + (x + mu * (x - a) ** 2 - psi_star)
                assert lhs <= rhs + 1e-6

    def test_regularized_minimizer_is_closer_to_start(self):
        for seed in range(10):
            a, rho, mu, grid = self.setup_instance(seed)
            x_f = grid[np.argmin(grid)]
            x_star = grid[np.argmin(grid + mu * (grid - a) ** 2)]
            assert abs(a - x_star) <= abs(a - x_f) + 1e-6

    def test_quadratic_growth_bound(self):
        # with F >= Gamma * (x - x1)^2 on the box: Psi_star <= F_star (1 + mu/Gamma)
        for seed in range(10):
            a, rho, mu, grid = self.setup_instance(seed)
            ratio = grid[grid != a] / (grid[grid != a] - a) ** 2
            gamma = float(ratio.min())
            assert gamma > 0
            psi_star = float((grid + mu * (grid - a) ** 2).min())
            f_star = float(grid.min())
            assert psi_star <= f_star * (1.0 + mu / gamma) + 1e-6


class TestGenInstance:
    def test_zero_noise_structure(self):
        box = gen_instance(5, 0.0, seed=3)
        assert box.radius == 0.5
        expected = np.diag(np.exp(-np.arange(1, 6, dtype=float)) / math.exp(-1))
        assert np.allclose(box.center.data, expected, rtol=1e-15)
        assert box.center.data[0, 0] == 1.0

    def test_normalization_and_radius(self):
        for sigma in (0.05, 0.2):
            box = gen_instance(20, sigma, seed=5)
            assert np.max(np.abs(box.center.data)) == pytest.approx(1.0, abs=1e-15)
            assert box.radius == pytest.approx(
                np.max(np.diag(box.center.data)) / 2.0)

    def test_deterministic_given_seed(self):
        a = gen_instance(12, 0.2, seed=9)
        b = gen_instance(12, 0.2, seed=9)
        assert np.array_equal(a.center.data, b.center.data)
        assert a.radius == b.radius
        c = gen_instance(12, 0.2, seed=10)
        assert not np.array_equal(a.center.data, c.center.data)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_instance(0, 0.1, seed=1)
        with pytest.raises(ValueError):
            gen_instance(3, -0.1, seed=1)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 0.0, 0), "d must be an integer >= 1, got 2.5"),
        ((True, 0.0, 0), "d must be an integer >= 1, got True"),
        ((3, 0.0, 1.5), "seed must be an integer >= 0, got 1.5"),
        ((3, 0.0, -1), "seed must be an integer >= 0, got -1")])
    def test_rejects_a_dimension_or_seed_that_is_no_such_integer(
            self, args, message):
        # 2.5 built a 3 x 3 instance and True a 1 x 1 one; a seed of 1.5
        # drew seed 1's noise
        with pytest.raises(ValueError) as err:
            gen_instance(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf])
    def test_rejects_a_noise_level_that_is_not_finite_and_nonnegative(
            self, sigma):
        # nan > 0 is false, so nan used to give a noise-free instance, and
        # inf drew infinite noise before failing
        with pytest.raises(ValueError) as err:
            gen_instance(3, sigma, seed=1)
        assert str(err.value) == (
            f"noise_sigma must be nonnegative and finite, got {sigma!r}")


class TestInstanceFiles:
    def test_round_trip_bitwise(self, tmp_path):
        box = gen_instance(9, 0.2, seed=17)
        path = tmp_path / "instance.txt"
        save_instance(path, box, seed=17, noise_sigma=0.2)
        back, meta = load_instance(path)
        assert np.array_equal(back.center.data, box.center.data)
        assert back.radius == box.radius
        assert meta == {"d": 9, "rho": box.radius, "seed": 17,
                        "noise_sigma": 0.2}

    def test_asymmetric_file_is_refused_not_averaged(self, tmp_path):
        # (0, 1) and (1, 0) were both loaded as their mean, -0.1529: a
        # matrix the file does not hold
        path = asymmetric_instance(tmp_path / "instance.txt")
        rows = [line.split() for line in path.read_text().splitlines()[5:]]
        assert (rows[0][1], round(float(rows[1][0]), 4)) == ("0.123", -0.4288)
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value) == f"{path}: entries are not exactly symmetric"

    @pytest.mark.parametrize("seed, sigma, message", [
        (1.5, 0.2, "seed must be an integer >= 0, got 1.5"),
        (-1, 0.2, "seed must be an integer >= 0, got -1"),
        (True, 0.2, "seed must be an integer >= 0, got True"),
        (0, math.nan, "noise_sigma must be nonnegative and finite, got nan"),
        (0, -0.1, "noise_sigma must be nonnegative and finite, got -0.1")])
    def test_save_refuses_a_bad_seed_or_noise_level_and_writes_nothing(
            self, tmp_path, seed, sigma, message):
        # a seed of 1.5 was written as "seed 1.5", which load_instance then
        # failed to read as an int
        path = tmp_path / "instance.txt"
        with pytest.raises(ValueError) as err:
            save_instance(path, gen_instance(3, 0.2, 0), seed=seed,
                          noise_sigma=sigma)
        assert str(err.value) == message
        assert not path.exists()

    def test_every_header_key_has_refusal_cases(self):
        assert BAD_HEADERS.keys() == _HEADER.keys()

    @pytest.mark.parametrize("key, text, shown", [
        (key, text, shown) for key, cases in BAD_HEADERS.items()
        for text, shown in cases])
    def test_a_header_value_its_rule_refuses_names_file_and_key(
            self, tmp_path, key, text, shown):
        # seed 1.5 failed as a raw "invalid literal for int()", and
        # noise_sigma nan loaded and was echoed into trace headers as NaN
        path = tmp_path / "instance.txt"
        save_instance(path, gen_instance(3, 0.2, 0), seed=0, noise_sigma=0.2)
        path.write_text(re.sub(rf"^{key} \S+$", f"{key} {text}",
                               path.read_text(), flags=re.MULTILINE))
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value) == (
            f"{path}: {key} must be {_HEADER[key]}, got {shown}")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("d 3\n1.0 2.0\n")
        with pytest.raises(ValueError):
            load_instance(path)

    @staticmethod
    def _lines(tmp_path):
        """A d = 3 instance file and its lines: lines[0] is the version,
        lines[1:5] the header keys in _HEADER order, lines[5:8] (file lines
        6 to 8) the body rows."""
        path = tmp_path / "instance.txt"
        save_instance(path, gen_instance(3, 0.2, 0), seed=0, noise_sigma=0.2)
        return path, path.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("bad_body", [False, True])
    @pytest.mark.parametrize("edit", [
        "two blank lines on top", "comment in the head", "keys reordered",
        "no seed", "no noise_sigma", "no version", "version v10",
        "version v2"])
    def test_a_head_save_instance_does_not_write_is_malformed(
            self, tmp_path, edit, bad_body):
        # the head loop skipped '#' lines and took keys in any order, or
        # not at all, and the .strip() dropped blank lines on top; only
        # save_instance writes these files. A bad body (a blank line, then
        # a bad entry) was named a line early, and is now never reached.
        path, lines = self._lines(tmp_path)
        head, body = lines[:5], lines[5:]
        if bad_body:
            body = [body[0], "\n", "x.0 " + body[1].split(" ", 1)[1], body[2]]
        head = {"two blank lines on top": ["\n", "\n", *head],
                "comment in the head": [*head[:2], "# note\n", *head[2:]],
                "keys reordered": [head[0], head[2], head[1], *head[3:]],
                "no seed": [*head[:3], head[4]],
                "no noise_sigma": head[:4],
                "no version": head[1:],
                "version v10": ["# box-instance v10\n", *head[1:]],
                "version v2": ["# box-instance v2\n", *head[1:]]}[edit]
        path.write_text("".join(head + body))
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value) == f"malformed instance file: {path}"

    @pytest.mark.parametrize("blank_at, bad_row", [(6, 1), (8, None)])
    def test_a_blank_line_is_refused_at_its_own_line(self, tmp_path,
                                                     blank_at, bad_row):
        # loadtxt skipped it and counted only the rows it kept, so a bad
        # entry on line 8 after a blank line 7 was named as line 7's, and
        # the .strip() of the whole text dropped a trailing one
        path, lines = self._lines(tmp_path)
        if bad_row is not None:
            lines[5 + bad_row] = "x.0 " + lines[5 + bad_row].split(" ", 1)[1]
        lines.insert(blank_at, "\n")
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value) == f"{path}: line {blank_at + 1}: blank line"
