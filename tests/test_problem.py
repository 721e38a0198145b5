import math

import numpy as np
import pytest

from specmd.linalg import SymMatrix, make_rng, sym_from, sym_identity, sym_zeros
from specmd.oracles import ExactOracleConfig, PowerOracleConfig, power_grad
from specmd.problem import (BoxSet, CompositeProblem, eval_F,
                            eval_Psi, gen_instance, load_instance,
                            make_problem, project_box, prox_step,
                            save_instance)
from specmd.solvers import StepSchedule, oblivious_acsmd, schedule_at


def random_box(seed, d=3, radius=0.8):
    return BoxSet(center=sym_from(make_rng(seed).standard_normal((d, d))),
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
    return project_box(sym_from(box.center.data + offs).data, box)


class TestBoxSet:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            BoxSet(center=sym_identity(2), radius=0.0)

    def test_bounds_are_built_once_and_read_only(self):
        box = random_box(24)
        assert box.lower is box.lower and box.upper is box.upper
        assert np.array_equal(box.lower, box.center.data - box.radius)
        assert np.array_equal(box.upper, box.center.data + box.radius)
        with pytest.raises(ValueError):
            box.lower[0, 0] = 0.0

    def test_frobenius_diameter(self):
        assert BoxSet(center=sym_zeros(5), radius=0.3).diameter_frobenius == 3.0

    def test_contains_with_slack(self):
        box = BoxSet(center=sym_zeros(2), radius=1.0)
        assert box.contains(SymMatrix(np.full((2, 2), 1.0 + 1e-13)).data)
        assert not box.contains(SymMatrix(np.full((2, 2), 1.0 + 1e-9)).data)


class TestProjectBox:
    def test_feasible_point_unchanged(self):
        box = random_box(1)
        x = random_feasible(box, make_rng(2))
        assert np.array_equal(project_box(x, box), x)

    def test_scaled_identity_clamps(self):
        box = BoxSet(center=sym_zeros(3), radius=1.0)
        assert np.array_equal(project_box(sym_from(3.0 * np.eye(3)).data, box),
                              np.eye(3))

    def test_matches_per_entry_clamp(self):
        box = random_box(3)
        rng = make_rng(4)
        for _ in range(25):
            x = sym_from(3.0 * rng.standard_normal((3, 3)))
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
            x = sym_from(2.0 * rng.standard_normal((3, 3)))
            y = sym_from(2.0 * rng.standard_normal((3, 3)))
            dist_before = np.linalg.norm(x.data - y.data)
            dist_after = np.linalg.norm(project_box(x.data, box)
                                        - project_box(y.data, box))
            assert dist_after <= dist_before + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            project_box(sym_identity(2).data, random_box(7, d=3))


class TestCompositeProblem:
    def test_requires_positive_mu(self):
        box = random_box(8)
        with pytest.raises(ValueError):
            CompositeProblem(feasible=box, mu=0.0, x1=box.center,
                             oracle=ExactOracleConfig())

    def test_requires_feasible_start(self):
        box = random_box(9)
        bad = SymMatrix(box.center.data + 2.0 * box.radius * np.eye(box.dim))
        with pytest.raises(ValueError):
            CompositeProblem(feasible=box, mu=1.0, x1=bad,
                             oracle=ExactOracleConfig())

    def test_make_problem_defaults(self):
        box = random_box(10)
        prob = make_problem(box, ExactOracleConfig(), T=400)
        assert prob.mu == pytest.approx(1.0 / 20.0)
        assert np.array_equal(prob.x1.data, box.center.data)
        with pytest.raises(ValueError):
            make_problem(box, ExactOracleConfig())


class TestProxStep:
    def test_zero_gradient_is_clamped_blend(self):
        box = random_box(11)
        prob = make_problem(box, ExactOracleConfig(), mu=0.4)
        xt = random_feasible(box, make_rng(12))
        alpha, gamma = 0.7, 1.9
        out = prox_step(xt, sym_zeros(box.dim).data, alpha, gamma, prob)
        blend = (alpha * prob.x1.data + gamma * xt) / (alpha + gamma)
        expected = np.clip(blend, box.lower, box.upper)
        assert np.allclose(out, expected, atol=1e-14)

    def test_vanishing_alpha_returns_xt(self):
        box = random_box(13)
        prob = make_problem(box, ExactOracleConfig(), mu=0.7)
        xt = random_feasible(box, make_rng(14))
        g = sym_from(make_rng(15).standard_normal((box.dim, box.dim)))
        out = prox_step(xt, g.data, 1e-14, 3.0, prob)
        assert np.allclose(out, xt, atol=1e-12)

    def test_rejects_nonpositive_steps(self):
        box = random_box(16)
        prob = make_problem(box, ExactOracleConfig(), mu=1.0)
        with pytest.raises(ValueError):
            prox_step(box.center.data, sym_zeros(box.dim).data, 0.0, 1.0, prob)
        with pytest.raises(ValueError):
            prox_step(box.center.data, sym_zeros(box.dim).data, 1.0, -1.0, prob)

    def test_beats_random_feasible_points(self):
        box = random_box(17)
        prob = make_problem(box, ExactOracleConfig(), mu=0.9)
        rng = make_rng(18)
        xt = random_feasible(box, rng)
        g = sym_from(rng.standard_normal((box.dim, box.dim)))
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
            g = sym_from(scale * rng.standard_normal((d, d)))
            alpha = float(rng.uniform(0.01, 5.0))
            gamma = float(rng.uniform(0.01, 5.0))
            out = prox_step(xt, g.data, alpha, gamma, prob)
            assert prox_kkt_violations(out, xt, g.data, alpha, gamma, prob) == 0
            assert box.contains(out)
            assert np.array_equal(project_box(out, box), out)
            if scale > 1.0:
                assert np.any(out == box.lower) and np.any(out == box.upper)

    def test_acsmd_power_iterates_satisfy_kkt(self):
        # replay each prox step of a short run from its recorded gradient
        box = gen_instance(8, 0.2, seed=26)
        cfg = PowerOracleConfig(p=5)
        grads = []

        def recording_oracle(x, rng):
            sample = power_grad(x, cfg, rng)
            grads.append(sample.grad)
            return sample

        prob = make_problem(box, recording_oracle, T=40)
        sched = StepSchedule(degree=1)
        trace = oblivious_acsmd(prob, sched, 40, 27, keep_iterates=True)
        points = [prob.x1, *trace.iterates]
        assert len(grads) == len(trace.iterates) == 40
        for t, g in enumerate(grads, start=1):
            alpha, gamma = schedule_at(sched, t)
            xt, x = points[t - 1].data, points[t].data
            assert prox_kkt_violations(x, xt, g.data, alpha, gamma, prob) == 0

    def test_matches_per_entry_golden_section(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        box = random_box(19, d=2)
        prob = make_problem(box, ExactOracleConfig(), mu=0.5)
        rng = make_rng(20)
        for _ in range(50):
            xt = random_feasible(box, rng)
            g = sym_from(rng.standard_normal((2, 2)))
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


class TestEvaluation:
    def test_eval_f_diagonal(self):
        assert eval_F(sym_from(np.diag([5.0, 1.0])).data) == 5.0

    def test_eval_psi_at_start_equals_f(self):
        box = random_box(21)
        prob = make_problem(box, ExactOracleConfig(), mu=2.0)
        assert eval_Psi(prob.x1.data, prob) == eval_F(prob.x1.data)

    def test_eval_psi_adds_quadratic(self):
        box = random_box(22)
        prob = make_problem(box, ExactOracleConfig(), mu=0.3)
        x = random_feasible(box, make_rng(23))
        diff = x - prob.x1.data
        expected = eval_F(x) + 0.3 * float(np.tensordot(diff, diff))
        assert eval_Psi(x, prob) == pytest.approx(expected, rel=1e-12)


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

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("d 3\n1.0 2.0\n")
        with pytest.raises(ValueError):
            load_instance(path)
