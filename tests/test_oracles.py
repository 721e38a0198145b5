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


def chain_rule_power(x, u, p, square_input):
    """Reference power oracle: X @ X, a p-term outer-product loop, chain rule.

    Shares no arithmetic with the oracle's single Krylov block, so the two
    agree only if the Krylov gradient formula is right.
    """
    def on(m):
        w = [u]
        for _ in range(p):
            w.append(m @ w[-1])
        s = float(w[p] @ w[0])
        value = s ** (1.0 / p)
        acc = np.zeros_like(m)
        for j in range(p):
            acc += np.outer(w[j], w[p - 1 - j])
        return value, sym_from(value / (p * s) * acc).data

    if not square_input:
        return on(x.data)
    value, g = on(sym_from(x.data @ x.data).data)
    return value, sym_from(x.data @ g + g @ x.data).data


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
        top = full_spectrum(x.data)[0]
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
            bound = full_spectrum(x.data)[0] * float(u @ u) ** (1.0 / p)
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

    @pytest.mark.parametrize("d", [5, 50, 200])
    @pytest.mark.parametrize("square_input", [True, False])
    @pytest.mark.parametrize("p", [4, 21])
    def test_matches_chain_rule_reference(self, d, square_input, p):
        # spectra of order one; the unsquared form needs X PSD to stay positive
        rng = make_rng(40 + d)
        if square_input:
            x = sym_from(rng.standard_normal((d, d)) / np.sqrt(d))
        else:
            x = sym_from(random_psd(d, 41 + d).data / d)
        cfg = PowerOracleConfig(p=p, square_input=square_input)
        for seed in range(3):
            u = make_rng(seed).random(d)
            value, grad = chain_rule_power(x, u, p, square_input)
            sample = power_grad(x, cfg, make_rng(seed))
            assert sample.value == pytest.approx(value, rel=1e-12)
            err = np.max(np.abs(sample.grad.data - grad))
            assert err <= 1e-12 * np.max(np.abs(grad))

    def test_square_input_euler_identity(self):
        # the squared form is 2-homogeneous in X, so <grad, X> = 2 * value
        x = sym_from(make_rng(42).standard_normal((7, 7)))
        for p in (1, 4, 21):
            sample = power_grad(x, PowerOracleConfig(p=p), make_rng(43))
            assert float(np.tensordot(sample.grad.data, x.data)) == pytest.approx(
                2.0 * sample.value, rel=1e-10)

    @pytest.mark.parametrize("square_input", [True, False])
    def test_draw_consumes_d_uniforms(self, square_input):
        d = 6
        x = random_psd(d, 44)
        gen, ref = make_rng(45), make_rng(45)
        power_grad(x, PowerOracleConfig(p=3, square_input=square_input), gen)
        ref.random(d)
        np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)

    def test_square_input_tracks_squared_top_eigenvalue(self):
        x = sym_from(make_rng(28).standard_normal((6, 6)))
        top2 = max(np.abs(full_spectrum(x.data))) ** 2
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
            assert abs(np.linalg.norm(sample.grad.data) - 1.0) <= 1e-8


class TestPlumbing:
    def test_grad_sample_requires_finite_value(self):
        with pytest.raises(ValueError):
            GradSample(grad=sym_zeros(2), value=float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grad_sample_requires_finite_grad(self, bad):
        entries = np.zeros((2, 2))
        entries[0, 0] = bad
        # SymMatrix's constructor already refuses a non-finite entry; build
        # the matrix past that check to reach GradSample's own
        grad = object.__new__(SymMatrix)
        object.__setattr__(grad, "data", entries)
        with pytest.raises(ValueError, match="gradient"):
            GradSample(grad=grad, value=0.0)

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
