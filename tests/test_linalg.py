import numpy as np
import pytest

from specmd.linalg import (SymMatrix, full_spectrum, leading_eigpair, make_rng,
                           sym_from)


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
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestLeadingEigpair:
    def test_diagonal_spectrum(self):
        lam, v = leading_eigpair(np.diag([3.0, 1.0, 0.0]))
        assert lam == pytest.approx(3.0, abs=1e-12)
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_identity_any_unit_vector(self):
        lam, v = leading_eigpair(np.eye(5))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_dominant_negative_eigenvalue_is_not_returned(self):
        # |lambda_min| > lambda_max: the maximum, not the largest magnitude
        lam, _ = leading_eigpair(np.diag([-5.0, 1.0]))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_matches_full_spectrum_on_randoms(self):
        rng = make_rng(4)
        for _ in range(20):
            m = sym_from(rng.standard_normal((10, 10)))
            lam, v = leading_eigpair(m.data)
            assert lam == pytest.approx(full_spectrum(m.data)[0], abs=1e-12)

    def test_residual_contract(self):
        rng = make_rng(5)
        for _ in range(20):
            m = sym_from(3.0 * rng.standard_normal((8, 8)))
            lam, v = leading_eigpair(m.data)
            assert np.linalg.norm(m.data @ v - lam * v) <= 1e-8 * max(1.0, abs(lam))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_stack_equals_per_slice_calls(self):
        rng = make_rng(6)
        raw = rng.standard_normal((4, 7, 7))
        stack = (raw + raw.transpose(0, 2, 1)) / 2.0
        lams, vecs = leading_eigpair(stack)
        assert lams.shape == (4,) and vecs.shape == (4, 7)
        for i in range(4):
            lam, v = leading_eigpair(stack[i])
            assert np.array_equal(lams[i], lam)
            assert np.array_equal(vecs[i], v)


class TestFullSpectrum:
    def test_sorted_nonincreasing(self):
        assert np.array_equal(full_spectrum(sym_from(np.diag([1.0, 2.0, 3.0])).data),
                              [3.0, 2.0, 1.0])

    def test_zero_matrix(self):
        assert np.array_equal(full_spectrum(np.zeros((4, 4))), np.zeros(4))

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

