"""What perfbench relies on in specmd.

perfbench wraps each `(module, attr)` of `specbench.tracing.TARGETS` at the
name its caller looks up; a name that no longer resolves, or a call that no
longer goes through it, makes that per-layer row read 0 without an error.
Its oracle sweep passes a SymMatrix (a box center) straight into the three
oracle functions. These tests read the tracer from perfbench/ and change
nothing there.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import specmd.harness as harness
from specmd.linalg import SymMatrix, make_rng
from specmd.oracles import (ExactOracleConfig, PowerOracleConfig,
                            SmoothingOracleConfig, exact_subgrad, power_grad,
                            smoothing_grad)
from specmd.problem import gen_instance, make_problem
from specmd.solvers import StepSchedule, oblivious_acsmd

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from specbench.tracing import TARGETS, SpanRecorder, Tracer  # noqa: E402


def test_every_target_resolves_to_a_callable():
    for modname, attr, _ in TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"


@pytest.mark.parametrize("oracle, row", [
    (ExactOracleConfig(), "oracles.exact_subgrad"),
    (SmoothingOracleConfig(k=2), "oracles.smoothing_grad"),
    (PowerOracleConfig(p=5), "oracles.power_grad"),
], ids=["exact", "smoothing_k2", "power"])
def test_each_oracle_call_is_one_leading_eigpair_span(oracle, row):
    prob = make_problem(gen_instance(8, 0.2, 0), oracle, T=10)
    rec = SpanRecorder()
    with Tracer(rec):
        oblivious_acsmd(prob, StepSchedule(degree=1), 10, 0, eval_stride=1)
    spans = rec.summary()
    # the power oracle solves no eigenproblem
    eigpairs = 0 if isinstance(oracle, PowerOracleConfig) else 10
    assert spans.get("linalg.leading_eigpair", {"n": 0})["n"] == eigpairs
    assert spans.get(row, {"n": 0})["n"] == 10


@pytest.mark.parametrize("spec, row", [
    ({"kind": "smd"}, "oblivious_smd"), ({"kind": "acsmd"}, "oblivious_acsmd"),
    ({"kind": "levy"}, "levy_adaptive"), ({"kind": "lan", "L": 40.0}, "lan_acsa"),
    ({"kind": "relative", "Lstar": 10}, "relative_md"),
], ids=lambda v: v if isinstance(v, str) else v["kind"])
def test_each_solver_spec_runs_through_its_traced_name(spec, row):
    # run_solver_spec must look each solver up in specmd.harness per call,
    # or the tracer's solvers.<name> row reads 0
    box = gen_instance(6, 0.2, 0)
    prob = make_problem(box, ExactOracleConfig(), T=5)
    theory = harness.theory_parameters(box, prob.oracle, 5)
    rec = SpanRecorder()
    with Tracer(rec):
        harness.run_solver_spec(spec, prob, 5, 0, theory)
    assert rec.summary().get(f"solvers.{row}", {"n": 0})["n"] == 1


def test_a_traced_campaign_books_one_solver_span_per_cell(tmp_path):
    # run_bench resolves its specs inside the call, on specmd.harness's
    # names: a plan bound at import time would bypass the tracer's wrappers
    specs = [{"kind": "smd"}, {"kind": "acsmd"}, {"kind": "levy"},
             {"kind": "lan", "L": 40.0}, {"kind": "relative", "Lstar": 10}]
    cfg = harness.ExperimentConfig(
        dims=[4, 5], oracle={"kind": "exact"}, solvers=specs, T=5,
        seeds=[0, 1], target_precision=1e-2, noise_sigma=0.2,
        output_dir=str(tmp_path), reference_budget=100)
    rec = SpanRecorder()
    with Tracer(rec):
        report = harness.run_bench(cfg)
    assert len(report.cells) == 2 * 5 * 2
    spans = rec.summary()
    for name in ("oblivious_smd", "oblivious_acsmd", "levy_adaptive",
                 "lan_acsa", "relative_md"):
        assert spans.get(f"solvers.{name}", {"n": 0})["n"] == 2 * 2, name


@pytest.mark.parametrize("call", [
    lambda x, rng: smoothing_grad(x, SmoothingOracleConfig(), rng),
    lambda x, rng: power_grad(x, PowerOracleConfig(), rng),
    lambda x, rng: exact_subgrad(x),
], ids=["smoothing", "power", "exact"])
@pytest.mark.parametrize("d", [6, 20])
def test_oracles_accept_a_symmatrix_as_the_sweep_passes_it(call, d):
    sym = gen_instance(d, 0.2, 0).center
    before = sym.data.copy()
    value, grad = call(sym, make_rng(3))
    plain_value, plain_grad = call(sym.data, make_rng(3))
    assert value == plain_value
    assert grad.tobytes() == plain_grad.tobytes()
    assert np.array_equal(sym.data, before)


def test_symmatrix_converts_to_a_writable_copy_or_its_own_data():
    sym = SymMatrix(np.eye(3))
    copy = np.array(sym)
    assert copy.flags.writeable and not np.shares_memory(copy, sym.data)
    copy[0, 0] = 5.0
    assert sym.data[0, 0] == 1.0
    assert np.asarray(sym) is sym.data
    assert np.array(sym, dtype=np.float32).dtype == np.float32
