import numpy as np
import pytest

from specmd.harness import build_oracle
from specmd.linalg import full_spectrum, leading_eigpair, make_rng, sym_from
from specmd.oracles import (ExactOracleConfig, PowerOracleConfig,
                            SmoothingOracleConfig, _krylov_value_grad,
                            exact_subgrad, oracle_echo, power_grad,
                            smoothing_grad)
from specmd.problem import gen_instance, make_problem


def sym(raw):
    """Exactly symmetric float array (M + M^T) / 2 of a square input."""
    return sym_from(raw).data


def random_psd(d, seed, floor=0.1):
    b = make_rng(seed).standard_normal((d, d))
    return sym(b @ b.T + floor * np.eye(d))


def outer_sum_reference(x, u, n, p):
    """<X^n u, u>^(1/p) and its gradient from a list of matvecs and an n-term
    np.outer loop, symmetrized at the end: no shared arithmetic with the
    kernel's single Krylov block and half-size GEMM."""
    w = [u]
    for _ in range(n):
        w.append(x @ w[-1])
    s = float(w[n] @ w[0])
    value = s ** (1.0 / p)
    acc = np.zeros_like(x)
    for j in range(n):
        acc += np.outer(w[j], w[n - 1 - j])
    return value, sym(value / (p * s) * acc)


def chain_rule_power(x, u, p, square_input):
    """Reference power oracle: X @ X, a p-term outer-product loop, chain rule.

    Shares no arithmetic with the oracle's single Krylov block, so the two
    agree only if the Krylov gradient formula is right.
    """
    if not square_input:
        return outer_sum_reference(x, u, p, p)
    value, g = outer_sum_reference(sym(x @ x), u, p, p)
    return value, sym(x @ g + g @ x)


def dense_draw(x, epsilon, z):
    """Top eigenpair of one smoothing draw, by a 2-d eigh of the centered matrix."""
    d = len(x)
    offset = np.mean(np.diag(x))
    vals, vecs = np.linalg.eigh(x - offset * np.eye(d)
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
        value, grad = smoothing_grad(np.zeros((d, d)), cfg, make_rng(11))
        assert value == pytest.approx(cfg.epsilon / d * (z @ z), abs=1e-9)
        unit = z / np.linalg.norm(z)
        assert np.allclose(grad, np.outer(unit, unit), atol=1e-7)

    def test_small_epsilon_brackets_lambda_max(self):
        d = 4
        x = sym(make_rng(12).standard_normal((d, d)))
        top = full_spectrum(x)[0]
        for eps in (1e-3, 1e-5):
            cfg = SmoothingOracleConfig(k=1, epsilon=eps)
            z = make_rng(13).standard_normal(d)
            value, _ = smoothing_grad(x, cfg, make_rng(13))
            assert top - 1e-8 <= value <= top + eps / d * (z @ z) + 1e-8

    def test_unit_frobenius_norm(self):
        rng = make_rng(14)
        cfg = SmoothingOracleConfig(k=3)
        for _ in range(40):
            _, grad = smoothing_grad(sym(rng.standard_normal((7, 7))), cfg, rng)
            assert abs(np.linalg.norm(grad) - 1.0) <= 1e-8

    def test_gradient_is_rank_one_projector(self):
        x = sym(make_rng(15).standard_normal((5, 5)))
        _, g = smoothing_grad(x, SmoothingOracleConfig(), make_rng(15))
        assert np.trace(g) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(g @ g, g, atol=1e-9)

    def test_diagonal_shift_gives_bitwise_equal_gradients(self):
        # dyadic entries and power-of-two dimension keep the centering exact
        d = 4
        rng = make_rng(16)
        x = sym(np.round(rng.standard_normal((d, d)) * 1024) / 1024)
        cfg = SmoothingOracleConfig(k=2)
        for shift in (0.5, 1.0, 2.75):
            a_value, a_grad = smoothing_grad(x, cfg, make_rng(99))
            b_value, b_grad = smoothing_grad(x + shift * np.eye(d), cfg,
                                             make_rng(99))
            assert np.array_equal(a_grad, b_grad)
            assert b_value - a_value == pytest.approx(shift, abs=1e-12)

    @pytest.mark.parametrize("x", [
        sym(make_rng(17).standard_normal((6, 6))),
        # top pair split by 1e-12: a near-degenerate leading eigenspace
        np.diag([1.0, 1.0 - 1e-12, 0.2]),
    ])
    def test_matches_dense_solve_on_the_same_stream(self, x):
        cfg = SmoothingOracleConfig(k=1, epsilon=1e-2)
        z = make_rng(18).standard_normal(len(x))
        top, v = dense_draw(x, cfg.epsilon, z)
        value, grad = smoothing_grad(x, cfg, make_rng(18))
        assert value == pytest.approx(top, abs=1e-12)
        assert np.max(np.abs(grad - np.outer(v, v))) <= 1e-12

    def test_stacked_solve_picks_the_per_draw_winner(self):
        # reference: k separate draws of size d, first maximum wins
        d, k = 5, 3
        cfg = SmoothingOracleConfig(k=k, epsilon=1.0)
        rng = make_rng(19)
        for trial in range(20):
            x = sym(rng.standard_normal((d, d)))
            stream = make_rng(200 + trial)
            best_val, best_vec = -np.inf, None
            for _ in range(k):
                top, v = dense_draw(x, cfg.epsilon, stream.standard_normal(d))
                if top > best_val:
                    best_val, best_vec = top, v
            value, grad = smoothing_grad(x, cfg, make_rng(200 + trial))
            assert value == pytest.approx(best_val, abs=1e-12)
            assert np.max(np.abs(grad - np.outer(best_vec, best_vec))) <= 1e-12


class TestPowerOracle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PowerOracleConfig(p=0)

    def test_scalar_case(self):
        p = 5
        value, grad = _krylov_value_grad(np.array([[2.0]]), np.array([0.7]), p, p)
        assert value == pytest.approx(2.0 * 0.7 ** (2.0 / p), rel=1e-12)
        assert grad[0, 0] == pytest.approx(0.7 ** (2.0 / p), rel=1e-12)

    def test_homogeneity_in_the_matrix(self):
        x = random_psd(5, 21)
        u = make_rng(22).random(5)
        base, _ = _krylov_value_grad(x, u, 7, 7)
        for c in (0.5, 3.0):
            scaled, _ = _krylov_value_grad(c * x, u, 7, 7)
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        h = 1e-6
        for seed in range(5):
            x = random_psd(5, 30 + seed, floor=0.5)
            u = make_rng(60 + seed).random(5)
            _, grad = _krylov_value_grad(x, u, 7, 7)
            for i in range(5):
                for j in range(i, 5):
                    e = np.zeros((5, 5))
                    e[i, j] = e[j, i] = 1.0
                    up, _ = _krylov_value_grad(x + h * e, u, 7, 7)
                    dn, _ = _krylov_value_grad(x - h * e, u, 7, 7)
                    fd = (up - dn) / (2 * h)
                    analytic = grad[i, j] * (2.0 if i != j else 1.0)
                    assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_value_upper_bound_per_draw(self):
        p = 9
        rng = make_rng(23)
        for seed in range(50):
            x = random_psd(6, 100 + seed)
            u = rng.random(6)
            value, _ = _krylov_value_grad(x, u, p, p)
            bound = full_spectrum(x)[0] * float(u @ u) ** (1.0 / p)
            assert value <= bound * (1.0 + 1e-12)

    def test_euler_identity(self):
        # phi_u is 1-homogeneous, so <grad, X> equals the value exactly
        x = random_psd(6, 24)
        u = make_rng(25).random(6)
        value, grad = _krylov_value_grad(x, u, 11, 11)
        assert float(np.tensordot(grad, x)) == pytest.approx(value, rel=1e-10)

    def test_nonpositive_form_raises(self):
        with pytest.raises(ValueError):
            _krylov_value_grad(-np.eye(3), np.array([0.5, 0.5, 0.5]), 3, 3)

    def test_square_input_matches_composed_finite_differences(self):
        d, p, h = 4, 5, 1e-6
        x = sym(make_rng(26).standard_normal((d, d)))
        cfg = PowerOracleConfig(p=p, square_input=True)
        u = make_rng(27).random(d)
        value, grad = power_grad(x, cfg, make_rng(27))

        def composed(mat):
            return _krylov_value_grad(sym(mat @ mat), u, p, p)[0]

        assert value == pytest.approx(composed(x), rel=1e-12)
        for i in range(d):
            for j in range(i, d):
                e = np.zeros((d, d))
                e[i, j] = e[j, i] = 1.0
                fd = (composed(x + h * e) - composed(x - h * e)) / (2 * h)
                analytic = grad[i, j] * (2.0 if i != j else 1.0)
                assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("d", [5, 50, 200])
    @pytest.mark.parametrize("square_input", [True, False])
    @pytest.mark.parametrize("p", [4, 21])
    def test_matches_chain_rule_reference(self, d, square_input, p):
        # spectra of order one; the unsquared form needs X PSD to stay positive
        rng = make_rng(40 + d)
        if square_input:
            x = sym(rng.standard_normal((d, d)) / np.sqrt(d))
        else:
            x = random_psd(d, 41 + d) / d
        cfg = PowerOracleConfig(p=p, square_input=square_input)
        for seed in range(3):
            u = make_rng(seed).random(d)
            value, grad = chain_rule_power(x, u, p, square_input)
            got_value, got_grad = power_grad(x, cfg, make_rng(seed))
            assert got_value == pytest.approx(value, rel=1e-12)
            err = np.max(np.abs(got_grad - grad))
            assert err <= 1e-12 * np.max(np.abs(grad))

    def test_square_input_euler_identity(self):
        # the squared form is 2-homogeneous in X, so <grad, X> = 2 * value
        x = sym(make_rng(42).standard_normal((7, 7)))
        for p in (1, 4, 21):
            value, grad = power_grad(x, PowerOracleConfig(p=p), make_rng(43))
            assert float(np.tensordot(grad, x)) == pytest.approx(
                2.0 * value, rel=1e-10)

    @pytest.mark.parametrize("square_input", [True, False])
    def test_draw_consumes_d_uniforms(self, square_input):
        d = 6
        x = random_psd(d, 44)
        gen, ref = make_rng(45), make_rng(45)
        power_grad(x, PowerOracleConfig(p=3, square_input=square_input), gen)
        ref.random(d)
        np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)

    def test_square_input_tracks_squared_top_eigenvalue(self):
        x = sym(make_rng(28).standard_normal((6, 6)))
        top2 = max(np.abs(full_spectrum(x))) ** 2
        cfg = PowerOracleConfig(p=21, square_input=True)
        values = [power_grad(x, cfg, make_rng(s))[0] for s in range(40)]
        assert max(values) <= top2 * 6 ** (1.0 / 21) * (1 + 1e-10)
        assert np.mean(values) >= 0.3 * top2


class TestKrylovKernel:
    """_krylov_value_grad(x, u, n, p) for even and odd n, n = 1 included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 21, 42])
    def test_matches_outer_sum_reference(self, n):
        d = 30
        x = random_psd(d, 70 + n) / d
        for seed in range(3):
            u = make_rng(seed).random(d)
            value, grad = outer_sum_reference(x, u, n, 21)
            got_value, got_grad = _krylov_value_grad(x, u, n, 21)
            assert got_value == pytest.approx(value, rel=1e-12)
            err = np.max(np.abs(got_grad - grad))
            assert err <= 1e-12 * np.max(np.abs(grad))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 21, 42])
    def test_value_matches_explicit_matrix_power(self, n):
        d = 8
        x = random_psd(d, 80 + n) / d
        u = make_rng(81).random(d)
        s = float(u @ np.linalg.matrix_power(x, n) @ u)
        value, _ = _krylov_value_grad(x, u, n, 5)
        assert value == pytest.approx(s ** (1.0 / 5), rel=1e-12)

    def test_identity_gives_the_scaled_rank_one_gradient(self):
        # X = I: every k_j is u, s = u.u and the gradient is n coef u u^T
        u = make_rng(82).random(4)
        for n in (1, 2, 3, 6):
            value, grad = _krylov_value_grad(np.eye(4), u, n, 3)
            s = float(u @ u)
            assert value == pytest.approx(s ** (1.0 / 3), rel=1e-15)
            coef = n * value / (3 * s)
            np.testing.assert_allclose(grad, coef * np.outer(u, u),
                                       rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 21, 42])
    def test_gradient_is_bitwise_symmetric(self, n):
        d = 40
        x = sym(make_rng(90 + n).standard_normal((d, d)) / np.sqrt(d))
        x = sym(x @ x)  # PSD, so odd n stays positive too
        for seed in range(3):
            _, grad = _krylov_value_grad(x, make_rng(seed).random(d), n, 3)
            assert np.array_equal(grad, grad.T)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nonpositive_form_raises(self, n):
        # <X^n u, u> = (-1)^n |u|^2 at X = -I, and 0 at X = 0
        u = np.array([0.5, 0.5, 0.5])
        for x in ((-np.eye(3),) if n % 2 else ()) + (np.zeros((3, 3)),):
            with pytest.raises(ValueError, match="is not positive"):
                _krylov_value_grad(x, u, n, 3)

    def test_rejects_a_direction_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            _krylov_value_grad(np.eye(3), np.ones(4), 4, 2)


class TestExactSubgrad:
    def test_diagonal(self):
        value, grad = exact_subgrad(np.diag([2.0, 1.0]))
        assert value == 2.0
        assert np.allclose(grad, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity_gives_unit_projector(self):
        value, g = exact_subgrad(np.eye(4))
        assert value == pytest.approx(1.0)
        assert np.trace(g) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-8

    def test_rayleigh_identity(self):
        rng = make_rng(31)
        for _ in range(20):
            x = sym(rng.standard_normal((6, 6)))
            value, grad = exact_subgrad(x)
            rayleigh = float(np.tensordot(grad, x))
            assert rayleigh == pytest.approx(value, abs=1e-8)
            assert abs(np.linalg.norm(grad) - 1.0) <= 1e-8


def smoothing_reference(x, cfg, rng):
    """The smoothing draw in its first arithmetic: np.mean of np.diag,
    np.diag_indices and np.outer, around the same leading_eigpair call."""
    base = np.array(x, dtype=float)
    d = base.shape[0]
    offset = float(np.mean(np.diag(base)))
    base[np.diag_indices(d)] -= offset
    z = rng.standard_normal((cfg.k, d))
    stack = (cfg.epsilon / d) * (z[:, :, None] * z[:, None, :])
    stack += base
    tops, vecs = leading_eigpair(stack)
    best = int(np.argmax(tops))
    v = vecs[best]
    return float(tops[best]) + offset, np.outer(v, v)


class TestOracleArithmetic:
    """The golden traces call the same oracle on both sides, so the
    oracles' own rounding is pinned here, bit for bit, around the one
    eigen-solve seam leading_eigpair (tested in tests/test_linalg.py)."""

    @pytest.mark.parametrize("d", [6, 20, 50])
    @pytest.mark.parametrize("k", [1, 2])
    def test_smoothing_matches_its_first_arithmetic(self, d, k):
        cfg = SmoothingOracleConfig(k=k)
        rng = make_rng(70 + d)
        for seed in range(5):
            x = sym(rng.standard_normal((d, d)) + 3.0 * rng.random() * np.eye(d))
            value, grad = smoothing_grad(x, cfg, make_rng(seed))
            ref_value, ref_grad = smoothing_reference(x, cfg, make_rng(seed))
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("d", [6, 20, 50])
    def test_exact_matches_np_outer(self, d):
        rng = make_rng(80 + d)
        for _ in range(5):
            x = sym(rng.standard_normal((d, d)))
            top, v = leading_eigpair(x)
            value, grad = exact_subgrad(x)
            assert value == float(top)
            assert grad.tobytes() == np.outer(v, v).tobytes()


class TestGradientSymmetry:
    """The solver loop checks only finiteness, so exact symmetry of every
    built-in gradient is pinned here."""

    @pytest.mark.parametrize("d", [1, 5, 20, 50])
    @pytest.mark.parametrize("oracle", [
        ExactOracleConfig(), SmoothingOracleConfig(), SmoothingOracleConfig(k=3),
        PowerOracleConfig(p=4), PowerOracleConfig(p=5),
        PowerOracleConfig(p=4, square_input=False),
        PowerOracleConfig(p=5, square_input=False),
    ], ids=["exact", "smoothing", "smoothing_k3", "power_p4_sq", "power_p5_sq",
            "power_p4", "power_p5"])
    def test_gradient_is_exactly_symmetric(self, oracle, d):
        rng = make_rng(50 + d)
        for seed in range(3):
            # the unsquared power form needs a PSD argument to stay positive
            if isinstance(oracle, PowerOracleConfig) and not oracle.square_input:
                x = random_psd(d, 60 + seed) / d
            else:
                x = sym(rng.standard_normal((d, d)) / np.sqrt(d))
            value, grad = oracle(x, rng)
            assert isinstance(value, float) and np.isfinite(value)
            assert grad.shape == (d, d)
            assert np.array_equal(grad, grad.T)


class TestPlumbing:
    @pytest.mark.parametrize("make, message", [
        (lambda: SmoothingOracleConfig(k="abc"),
         "k must be an integer >= 1, got 'abc'"),
        (lambda: SmoothingOracleConfig(k=2.0), "k must be an integer >= 1, got 2.0"),
        (lambda: SmoothingOracleConfig(k=True), "k must be an integer >= 1, got True"),
        (lambda: SmoothingOracleConfig(epsilon="abc"),
         "epsilon must be positive and finite, got 'abc'"),
        (lambda: SmoothingOracleConfig(epsilon=float("inf")),
         "epsilon must be positive and finite, got inf"),
        (lambda: SmoothingOracleConfig(epsilon=float("nan")),
         "epsilon must be positive and finite, got nan"),
        (lambda: PowerOracleConfig(p=1.5), "p must be an integer >= 1, got 1.5"),
        (lambda: PowerOracleConfig(square_input="yes"),
         "square_input must be true or false, got 'yes'"),
    ])
    def test_wrong_type_option_is_named_in_one_line(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"oracle option {message}"

    @pytest.mark.parametrize("oracle, function", [
        (ExactOracleConfig(), lambda x, cfg, rng: exact_subgrad(x)),
        (SmoothingOracleConfig(k=3, epsilon=0.2), smoothing_grad),
        (PowerOracleConfig(p=4), power_grad),
        (PowerOracleConfig(p=3, square_input=False), power_grad),
    ], ids=["exact", "smoothing", "power_sq", "power"])
    def test_configs_are_the_oracles(self, oracle, function):
        # a config called on (x, rng) is one draw of its module function,
        # bit for bit and from the same stream
        x = random_psd(6, 31) / 6
        value, grad = oracle(x, make_rng(32))
        expected_value, expected_grad = function(x, oracle, make_rng(32))
        assert value == expected_value
        assert grad.tobytes() == expected_grad.tobytes()

    def test_make_problem_rejects_a_non_callable_oracle(self):
        box = gen_instance(3, 0.2, 0)
        with pytest.raises(ValueError, match="oracle is not callable: 'nonsense'"):
            make_problem(box, "nonsense", T=10)
        stub = lambda x, rng: (0.0, np.zeros_like(x))
        assert make_problem(box, stub, T=10).oracle is stub

    def test_oracle_echo_is_json_friendly(self):
        import json
        for spec in (SmoothingOracleConfig(), PowerOracleConfig(),
                     ExactOracleConfig(), lambda x, r: None):
            json.dumps(oracle_echo(spec))
        assert oracle_echo(ExactOracleConfig()) == {"kind": "exact"}
        assert oracle_echo(len) == {"kind": "custom", "repr": repr(len)}

    @pytest.mark.parametrize("oracle", [
        ExactOracleConfig(), SmoothingOracleConfig(k=3, epsilon=0.25),
        PowerOracleConfig(p=7, square_input=False)], ids=lambda o: o.kind)
    def test_echo_builds_the_same_oracle(self, oracle):
        echo = oracle_echo(oracle)
        assert echo["kind"] == oracle.kind
        assert build_oracle(echo) == oracle
