import numpy as np
import pytest

from specmd.linalg import (ConvergenceError, SymMatrix, frob_inner,
                           full_spectrum, leading_eigpair, make_rng,
                           mat_power_apply, sym_from, sym_identity, sym_zeros)


class TestSymFrom:
    def test_identity_unchanged(self):
        m = sym_from(np.eye(3))
        assert np.array_equal(m.data, np.eye(3))

    def test_symmetrizes_strict_upper(self):
        m = sym_from([[0.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(m.data, [[0.0, 1.0], [1.0, 0.0]])

    def test_matches_half_sum_recomputation(self):
        rng = make_rng(1)
        raw = rng.standard_normal((5, 5))
        m = sym_from(raw)
        assert np.array_equal(m.data, (raw + raw.T) / 2.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_from(np.zeros((2, 3)))

    def test_direct_constructor_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_fails_as_not_finite(self, bad):
        # checked before symmetry: NaN != NaN would otherwise read as asymmetric
        with pytest.raises(ValueError, match="not finite"):
            sym_from([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not finite"):
            sym_from([[0.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="not finite"):
            SymMatrix(np.array([[0.0, bad], [0.0, 1.0]]))

    def test_entries_are_read_only(self):
        m = sym_identity(2)
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestFrobInner:
    def test_identity_pair(self):
        assert frob_inner(sym_identity(2), sym_identity(2)) == 2.0

    def test_zero(self):
        a = sym_from(make_rng(2).standard_normal((4, 4)))
        assert frob_inner(a, sym_zeros(4)) == 0.0

    def test_matches_naive_double_loop(self):
        rng = make_rng(3)
        for _ in range(20):
            a = sym_from(rng.standard_normal((6, 6)))
            b = sym_from(rng.standard_normal((6, 6)))
            naive = sum(a.data[i, j] * b.data[i, j]
                        for i in range(6) for j in range(6))
            assert frob_inner(a, b) == pytest.approx(naive, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            frob_inner(sym_identity(2), sym_identity(3))


class TestLeadingEigpair:
    def test_diagonal_spectrum(self):
        lam, v = leading_eigpair(sym_from(np.diag([3.0, 1.0, 0.0])), rng=0)
        assert lam == pytest.approx(3.0, abs=1e-8)
        assert abs(abs(v[0]) - 1.0) < 1e-6

    def test_identity_any_unit_vector(self):
        lam, v = leading_eigpair(sym_identity(5), rng=1)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_dominant_negative_eigenvalue_is_not_returned(self):
        # |lambda_min| > lambda_max: the dominance shift must still pick the max
        lam, _ = leading_eigpair(sym_from(np.diag([-5.0, 1.0])), rng=2)
        assert lam == pytest.approx(1.0, abs=1e-7)

    def test_matches_full_spectrum_on_randoms(self):
        rng = make_rng(4)
        for _ in range(20):
            m = sym_from(rng.standard_normal((10, 10)))
            lam, v = leading_eigpair(m, rng=rng)
            assert lam == pytest.approx(full_spectrum(m.data)[0], abs=1e-8)

    def test_residual_contract(self):
        rng = make_rng(5)
        for _ in range(20):
            m = sym_from(3.0 * rng.standard_normal((8, 8)))
            lam, v = leading_eigpair(m, tol=1e-8, rng=rng)
            assert np.linalg.norm(m.data @ v - lam * v) <= 1e-8 * max(1.0, abs(lam))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergence_carries_best_iterate(self):
        # top pair split below tol stalls the iteration
        m = sym_from(np.diag([1.0, 1.0 - 1e-12, 0.2]))
        with pytest.raises(ConvergenceError) as info:
            leading_eigpair(m, tol=1e-14, max_iter=60, rng=6)
        err = info.value
        assert err.iterations == 60
        assert err.best_vector.shape == (3,)
        assert err.residual < 1e-3
        assert err.best_lambda == pytest.approx(1.0, abs=1e-3)

    def test_plateau_accepts_clustered_top(self):
        m = sym_from(np.diag([1.0, 1.0 - 1e-12, 0.2]))
        lam, v = leading_eigpair(m, tol=1e-14, max_iter=5000, rng=6, plateau=1e-6)
        assert lam == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(m.data @ v - lam * v) <= 1e-6 * max(1.0, abs(lam))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            leading_eigpair(sym_identity(2), tol=0.0)


class TestFullSpectrum:
    def test_sorted_nonincreasing(self):
        assert np.array_equal(full_spectrum(sym_from(np.diag([1.0, 2.0, 3.0])).data),
                              [3.0, 2.0, 1.0])

    def test_zero_matrix(self):
        assert np.array_equal(full_spectrum(sym_zeros(4).data), np.zeros(4))

    @pytest.mark.parametrize("d", [2, 8, 17, 64])
    def test_trace_and_frobenius_identities(self, d):
        rng = make_rng(d)
        m = sym_from(rng.standard_normal((d, d)))
        spec = full_spectrum(m.data)
        assert np.all(np.diff(spec) <= 0)
        tr = float(np.trace(m.data))
        assert spec.sum() == pytest.approx(tr, rel=1e-9, abs=1e-9)
        fro2 = float(np.tensordot(m.data, m.data))
        assert np.sum(spec ** 2) == pytest.approx(fro2, rel=1e-9)


class TestMatPowerApply:
    def test_identity_keeps_vector(self):
        u = make_rng(7).standard_normal(4)
        out = mat_power_apply(sym_identity(4), 4, u)
        assert len(out) == 5
        for w in out:
            assert np.array_equal(w, u)

    def test_scalar_doubling(self):
        out = mat_power_apply(sym_from([[2.0]]), 3, np.array([1.0]))
        assert [w[0] for w in out] == [1.0, 2.0, 4.0, 8.0]

    def test_matches_explicit_matrix_power(self):
        rng = make_rng(8)
        m = sym_from(rng.standard_normal((6, 6)))
        u = rng.standard_normal(6)
        out = mat_power_apply(m, 5, u)
        explicit = np.linalg.matrix_power(m.data, 5) @ u
        assert np.allclose(out[5], explicit, rtol=1e-10, atol=1e-13)

    def test_splitting_is_exact(self):
        rng = make_rng(9)
        m = sym_from(rng.standard_normal((5, 5)))
        u = rng.standard_normal(5)
        full = mat_power_apply(m, 7, u)
        first = mat_power_apply(m, 3, u)
        rest = mat_power_apply(m, 4, first[3])
        assert np.array_equal(full[7], rest[4])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mat_power_apply(sym_identity(3), 0, np.zeros(3))
        with pytest.raises(ValueError):
            mat_power_apply(sym_identity(3), 2, np.zeros(4))
