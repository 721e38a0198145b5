import numpy as np
import pytest

from specmd.linalg import SymMatrix, full_spectrum, make_rng, sym_from, sym_zeros
from specmd.oracles import (ExactOracleConfig, GradSample, PowerOracleConfig,
                            SmoothingOracleConfig, exact_subgrad, oracle_echo,
                            power_grad, power_value_grad, resolve_oracle,
                            smoothing_grad)


def random_psd(d, seed, floor=0.1):
    b = make_rng(seed).standard_normal((d, d))
    return sym_from(b @ b.T + floor * np.eye(d))


def dense_draw(x, epsilon, z):
    """Top eigenpair of one smoothing draw, by a 2-d eigh of the centered matrix."""
    d = x.dim
    offset = np.mean(np.diag(x.data))
    vals, vecs = np.linalg.eigh(x.data - offset * np.eye(d)
                                + epsilon / d * np.outer(z, z))
    return vals[-1] + offset, vecs[:, -1]


class TestSmoothingOracle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingOracleConfig(k=0)
        with pytest.raises(ValueError):
            SmoothingOracleConfig(epsilon=0.0)

    def test_zero_matrix_rank_one_draw(self):
        # mirror the oracle's stream: z is drawn first
        d = 3
        cfg = SmoothingOracleConfig(k=1, epsilon=1e-2)
        z = make_rng(11).standard_normal(d)
        sample = smoothing_grad(sym_zeros(d), cfg, make_rng(11))
        assert sample.value == pytest.approx(cfg.epsilon / d * (z @ z), abs=1e-9)
        unit = z / np.linalg.norm(z)
        assert np.allclose(sample.grad.data, np.outer(unit, unit), atol=1e-7)

    def test_small_epsilon_brackets_lambda_max(self):
        d = 4
        x = sym_from(make_rng(12).standard_normal((d, d)))
        top = full_spectrum(x)[0]
        for eps in (1e-3, 1e-5):
            cfg = SmoothingOracleConfig(k=1, epsilon=eps)
            z = make_rng(13).standard_normal(d)
            sample = smoothing_grad(x, cfg, make_rng(13))
            assert top - 1e-8 <= sample.value <= top + eps / d * (z @ z) + 1e-8

    def test_unit_frobenius_norm(self):
        rng = make_rng(14)
        cfg = SmoothingOracleConfig(k=3)
        for _ in range(40):
            x = sym_from(rng.standard_normal((7, 7)))
            sample = smoothing_grad(x, cfg, rng)
            assert abs(np.linalg.norm(sample.grad.data) - 1.0) <= 1e-8

    def test_gradient_is_rank_one_projector(self):
        x = sym_from(make_rng(15).standard_normal((5, 5)))
        sample = smoothing_grad(x, SmoothingOracleConfig(), make_rng(15))
        g = sample.grad.data
        assert np.trace(g) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(g @ g, g, atol=1e-9)

    def test_diagonal_shift_gives_bitwise_equal_gradients(self):
        # dyadic entries and power-of-two dimension keep the centering exact
        d = 4
        rng = make_rng(16)
        x = sym_from(np.round(rng.standard_normal((d, d)) * 1024) / 1024)
        cfg = SmoothingOracleConfig(k=2)
        for shift in (0.5, 1.0, 2.75):
            shifted = SymMatrix(x.data + shift * np.eye(d))
            a = smoothing_grad(x, cfg, make_rng(99))
            b = smoothing_grad(shifted, cfg, make_rng(99))
            assert np.array_equal(a.grad.data, b.grad.data)
            assert b.value - a.value == pytest.approx(shift, abs=1e-12)

    @pytest.mark.parametrize("x", [
        sym_from(make_rng(17).standard_normal((6, 6))),
        # top pair split below any power-iteration tolerance
        sym_from(np.diag([1.0, 1.0 - 1e-12, 0.2])),
    ])
    def test_matches_dense_solve_on_the_same_stream(self, x):
        cfg = SmoothingOracleConfig(k=1, epsilon=1e-2)
        z = make_rng(18).standard_normal(x.dim)
        top, v = dense_draw(x, cfg.epsilon, z)
        sample = smoothing_grad(x, cfg, make_rng(18))
        assert sample.value == pytest.approx(top, abs=1e-12)
        assert np.max(np.abs(sample.grad.data - np.outer(v, v))) <= 1e-12

    def test_stacked_solve_picks_the_per_draw_winner(self):
        # reference: k separate draws of size d, first maximum wins
        d, k = 5, 3
        cfg = SmoothingOracleConfig(k=k, epsilon=1.0)
        rng = make_rng(19)
        for trial in range(20):
            x = sym_from(rng.standard_normal((d, d)))
            stream = make_rng(200 + trial)
            best_val, best_vec = -np.inf, None
            for _ in range(k):
                top, v = dense_draw(x, cfg.epsilon, stream.standard_normal(d))
                if top > best_val:
                    best_val, best_vec = top, v
            sample = smoothing_grad(x, cfg, make_rng(200 + trial))
            assert sample.value == pytest.approx(best_val, abs=1e-12)
            assert np.max(np.abs(sample.grad.data
                                 - np.outer(best_vec, best_vec))) <= 1e-12


class TestPowerOracle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PowerOracleConfig(p=0)

    def test_scalar_case(self):
        p = 5
        sample = power_value_grad(sym_from([[2.0]]), np.array([0.7]), p)
        assert sample.value == pytest.approx(2.0 * 0.7 ** (2.0 / p), rel=1e-12)
        assert sample.grad.data[0, 0] == pytest.approx(0.7 ** (2.0 / p), rel=1e-12)

    def test_homogeneity_in_the_matrix(self):
        x = random_psd(5, 21)
        u = make_rng(22).random(5)
        base = power_value_grad(x, u, 7)
        for c in (0.5, 3.0):
            scaled = power_value_grad(sym_from(c * x.data), u, 7)
            assert scaled.value == pytest.approx(c * base.value, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        h = 1e-6
        for seed in range(5):
            x = random_psd(5, 30 + seed, floor=0.5)
            u = make_rng(60 + seed).random(5)
            sample = power_value_grad(x, u, 7)
            for i in range(5):
                for j in range(i, 5):
                    e = np.zeros((5, 5))
                    e[i, j] = e[j, i] = 1.0
                    up = power_value_grad(sym_from(x.data + h * e), u, 7).value
                    dn = power_value_grad(sym_from(x.data - h * e), u, 7).value
                    fd = (up - dn) / (2 * h)
                    analytic = sample.grad.data[i, j] * (2.0 if i != j else 1.0)
                    assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_value_upper_bound_per_draw(self):
        p = 9
        rng = make_rng(23)
        for seed in range(50):
            x = random_psd(6, 100 + seed)
            u = rng.random(6)
            sample = power_value_grad(x, u, p)
            bound = full_spectrum(x)[0] * float(u @ u) ** (1.0 / p)
            assert sample.value <= bound * (1.0 + 1e-12)

    def test_euler_identity(self):
        # phi_u is 1-homogeneous, so <grad, X> equals the value exactly
        x = random_psd(6, 24)
        u = make_rng(25).random(6)
        sample = power_value_grad(x, u, 11)
        assert float(np.tensordot(sample.grad.data, x.data)) == pytest.approx(
            sample.value, rel=1e-10)

    def test_nonpositive_form_raises(self):
        x = sym_from(-np.eye(3))
        with pytest.raises(ValueError):
            power_value_grad(x, np.array([0.5, 0.5, 0.5]), 3)

    def test_square_input_matches_composed_finite_differences(self):
        d, p, h = 4, 5, 1e-6
        x = sym_from(make_rng(26).standard_normal((d, d)))
        cfg = PowerOracleConfig(p=p, square_input=True)
        u = make_rng(27).random(d)
        sample = power_grad(x, cfg, make_rng(27))

        def composed(mat):
            return power_value_grad(sym_from(mat @ mat), u, p).value

        assert sample.value == pytest.approx(composed(x.data), rel=1e-12)
        for i in range(d):
            for j in range(i, d):
                e = np.zeros((d, d))
                e[i, j] = e[j, i] = 1.0
                fd = (composed(x.data + h * e) - composed(x.data - h * e)) / (2 * h)
                analytic = sample.grad.data[i, j] * (2.0 if i != j else 1.0)
                assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_square_input_tracks_squared_top_eigenvalue(self):
        x = sym_from(make_rng(28).standard_normal((6, 6)))
        top2 = max(np.abs(full_spectrum(x))) ** 2
        cfg = PowerOracleConfig(p=21, square_input=True)
        values = [power_grad(x, cfg, make_rng(s)).value for s in range(40)]
        assert max(values) <= top2 * 6 ** (1.0 / 21) * (1 + 1e-10)
        assert np.mean(values) >= 0.3 * top2


class TestExactSubgrad:
    def test_diagonal(self):
        sample = exact_subgrad(sym_from(np.diag([2.0, 1.0])))
        assert sample.value == 2.0
        assert np.allclose(sample.grad.data, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_gives_unit_projector(self):
        sample = exact_subgrad(sym_from(np.eye(4)))
        assert sample.value == pytest.approx(1.0)
        g = sample.grad.data
        assert np.trace(g) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-8

    def test_rayleigh_identity(self):
        rng = make_rng(31)
        for _ in range(20):
            x = sym_from(rng.standard_normal((6, 6)))
            sample = exact_subgrad(x)
            rayleigh = float(np.tensordot(sample.grad.data, x.data))
            assert rayleigh == pytest.approx(sample.value, abs=1e-8)


class TestPlumbing:
    def test_grad_sample_requires_finite_value(self):
        with pytest.raises(ValueError):
            GradSample(grad=sym_zeros(2), value=float("nan"))

    def test_resolve_oracle_dispatch(self):
        x = sym_from(np.diag([2.0, 1.0]))
        rng = make_rng(32)
        assert resolve_oracle(ExactOracleConfig())(x, rng).value == 2.0
        assert resolve_oracle(SmoothingOracleConfig())(x, rng).grad.dim == 2
        assert resolve_oracle(PowerOracleConfig(p=3))(x, rng).value > 0

    def test_resolve_oracle_passes_callables_through(self):
        stub = lambda x, rng: GradSample(grad=sym_zeros(x.dim), value=0.0)
        assert resolve_oracle(stub) is stub
        with pytest.raises(TypeError):
            resolve_oracle("nonsense")

    def test_oracle_echo_is_json_friendly(self):
        import json
        for spec in (SmoothingOracleConfig(), PowerOracleConfig(),
                     ExactOracleConfig(), lambda x, r: None):
            json.dumps(oracle_echo(spec))
