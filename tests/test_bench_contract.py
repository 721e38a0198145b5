"""The lookup names perfbench's tracer wraps must exist in specmd.

perfbench wraps each `(module, attr)` of `specbench.tracing.TARGETS` at the
name its caller looks up; a name that no longer resolves, or a call that no
longer goes through it, makes that per-layer row read 0 without an error.
These tests read the tracer from perfbench/ and change nothing there.
"""

import importlib
import sys
from pathlib import Path

import pytest

from specmd.oracles import ExactOracleConfig, SmoothingOracleConfig
from specmd.problem import gen_instance, make_problem
from specmd.solvers import StepSchedule, oblivious_acsmd

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from specbench.tracing import TARGETS, SpanRecorder, Tracer  # noqa: E402


def test_every_target_resolves_to_a_callable():
    for modname, attr, _ in TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"


@pytest.mark.parametrize("oracle", [ExactOracleConfig(), SmoothingOracleConfig(k=2)],
                         ids=["exact", "smoothing_k2"])
def test_each_oracle_call_is_one_leading_eigpair_span(oracle):
    prob = make_problem(gen_instance(8, 0.2, 0), oracle, T=10)
    rec = SpanRecorder()
    with Tracer(rec):
        oblivious_acsmd(prob, StepSchedule(degree=1), 10, 0, eval_stride=1)
    spans = rec.summary().get("linalg.leading_eigpair", {"n": 0})
    assert spans["n"] == 10
