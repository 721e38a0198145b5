import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specmd
from specmd import linalg
from specmd.linalg import (SymMatrix, full_spectrum, leading_eigpair, make_rng,
                           sym_from)
from specmd.oracles import exact_subgrad
from specmd.problem import gen_instance, make_problem
from specmd.solvers import SolverError, StepSchedule, oblivious_smd

SRC = str(Path(specmd.__file__).resolve().parents[1])


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


def _symmetric(d, seed, scale=1.0):
    raw = make_rng(seed).standard_normal((d, d))
    return scale * (raw + raw.T) / 2.0


@pytest.fixture(params=["dsyevr", "eigh"])
def path(request, monkeypatch):
    """Each case runs on the LAPACK binding as found and with it forced
    off, the only path where numpy does not link its OpenBLAS."""
    if request.param == "dsyevr" and linalg._DSYEVR is None:
        pytest.skip("numpy's LAPACK has no scipy_dsyevr_64_")
    if request.param == "eigh":
        monkeypatch.setattr(linalg, "_DSYEVR", None)
    return request.param


class TestLeadingEigpair:
    @pytest.mark.parametrize("d", [1, 2, 3, 20, 50, 200])
    def test_agrees_with_eigh(self, path, d):
        for seed in range(3):
            a = _symmetric(d, 10 * d + seed, scale=10.0 ** (seed - 1))
            lam, v = leading_eigpair(a)
            vals = np.linalg.eigh(a)[0]
            assert np.shape(lam) == () and v.shape == (d,)
            assert abs(lam - vals[-1]) <= 1e-12 * max(1.0, abs(vals[-1]))
            norm2 = max(abs(vals[0]), abs(vals[-1]))
            assert np.linalg.norm(a @ v - lam * v) <= 1e-12 * max(1.0, norm2)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-14

    def test_diagonal_spectrum(self, path):
        lam, v = leading_eigpair(np.diag([3.0, 1.0, 0.0]))
        assert lam == pytest.approx(3.0, abs=1e-12)
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_near_degenerate_top_pair(self, path):
        # the top two eigenvalues 1e-12 apart: the top one and its vector
        lam, v = leading_eigpair(np.diag([1.0, 1.0 - 1e-12, 0.2]))
        assert lam == 1.0
        assert abs(abs(v[0]) - 1.0) <= 1e-14
        assert np.linalg.norm(v[1:]) <= 1e-3

    @pytest.mark.parametrize("d", [1, 5])
    def test_identity_any_unit_vector(self, path, d):
        lam, v = leading_eigpair(np.eye(d))
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    def test_zero_matrix(self, path):
        lam, v = leading_eigpair(np.zeros((4, 4)))
        assert lam == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    def test_dominant_negative_eigenvalue_is_not_returned(self, path):
        # |lambda_min| > lambda_max: the maximum, not the largest magnitude
        lam, v = leading_eigpair(np.diag([-5.0, 1.0]))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert abs(abs(v[1]) - 1.0) < 1e-12

    def test_matches_full_spectrum_on_randoms(self, path):
        rng = make_rng(4)
        for _ in range(20):
            m = sym_from(rng.standard_normal((10, 10)))
            lam, v = leading_eigpair(m.data)
            assert lam == pytest.approx(full_spectrum(m.data)[0], abs=1e-12)

    def test_residual_contract(self, path):
        rng = make_rng(5)
        for _ in range(20):
            m = sym_from(3.0 * rng.standard_normal((8, 8)))
            lam, v = leading_eigpair(m.data)
            assert np.linalg.norm(m.data @ v - lam * v) <= 1e-8 * max(1.0, abs(lam))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_fortran_order_strided_and_integer_input(self, path):
        a = _symmetric(7, 3)
        lam, v = leading_eigpair(a)
        for same in (np.asfortranarray(a), np.kron(a, np.ones((2, 2)))[::2, ::2]):
            assert not same.flags.c_contiguous
            got_lam, got_v = leading_eigpair(same)
            assert got_lam == lam and np.array_equal(got_v, v)
        ints = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        lam, v = leading_eigpair(ints)
        assert lam == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-14)
        assert np.linalg.norm(ints @ v - lam * v) <= 1e-14 * 4

    def test_reads_the_lower_triangle_as_eigh_does(self, path):
        a = np.tril(_symmetric(6, 8)) + np.triu(np.ones((6, 6)), 1)
        lam, v = leading_eigpair(a)
        lower = np.tril(a) + np.tril(a, -1).T
        assert lam == pytest.approx(np.linalg.eigvalsh(lower)[-1], abs=1e-12)
        assert np.linalg.norm(lower @ v - lam * v) <= 1e-12 * 10

    def test_input_dsyevr_does_not_take_goes_to_eigh(self, path):
        # not square: refused as np.linalg.eigh refuses it
        for bad in (np.ones(3), np.ones((1, 3)), np.ones((2, 3))):
            with pytest.raises(np.linalg.LinAlgError):
                leading_eigpair(bad)
        # complex Hermitian: eigh's complex solve
        h = np.array([[2.0, 1j], [-1j, 2.0]])
        lam, v = leading_eigpair(h)
        assert lam == pytest.approx(3.0, abs=1e-14)
        assert np.linalg.norm(h @ v - lam * v) <= 1e-14 * 3

    def test_stack_equals_per_slice_calls(self, path):
        rng = make_rng(6)
        raw = rng.standard_normal((4, 7, 7))
        stack = (raw + raw.transpose(0, 2, 1)) / 2.0
        lams, vecs = leading_eigpair(stack)
        assert lams.shape == (4,) and vecs.shape == (4, 7)
        for i in range(4):
            lam, v = leading_eigpair(stack[i])
            assert np.array_equal(lams[i], lam)
            assert np.array_equal(vecs[i], v)
        # an empty stack gives empty results, as np.linalg.eigh does
        lams, vecs = leading_eigpair(np.zeros((0, 7, 7)))
        assert lams.shape == (0,) and vecs.shape == (0, 7)

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 200])
    def test_nan_input_neither_crashes_nor_hangs(self, path, d):
        # in a child process, so a crash fails this case and not the suite
        code = ("import sys, numpy as np; from specmd import linalg\n"
                "if sys.argv[1] == 'eigh': linalg._DSYEVR = None\n"
                "d = int(sys.argv[2]); a = np.ones((d, d))\n"
                "a[0, -1] = a[-1, 0] = np.nan\n"
                "for m in (a, np.full((d, d), np.nan)):\n"
                "    try: lam = linalg.leading_eigpair(m)[0]\n"
                "    except np.linalg.LinAlgError: lam = np.nan\n"
                "    assert not np.isfinite(lam)\n")
        done = subprocess.run([sys.executable, "-c", code, path, str(d)],
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_nan_in_an_exact_run_is_tagged_with_its_iteration(self, path):
        calls = {"n": 0}

        def nan_at_three(x, rng):
            calls["n"] += 1
            return exact_subgrad(x * np.nan if calls["n"] == 3 else x)

        prob = make_problem(gen_instance(6, 0.2, 0), nan_at_three, T=10)
        with pytest.raises(SolverError, match="oracle failed at iteration 3"):
            oblivious_smd(prob, StepSchedule(), 10, 0)

    def test_the_binding_solves_without_eigh(self, monkeypatch):
        if linalg._DSYEVR is None:
            pytest.skip("numpy's LAPACK has no scipy_dsyevr_64_")

        def no_eigh(a):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        lam, v = leading_eigpair(_symmetric(20, 1))
        assert np.isfinite(lam) and v.shape == (20,)


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

