"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests/selftest.py

The file name keeps these out of the package's tier-1 collection.
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from specmd.harness import (ExperimentConfig, read_trace, run_bench,  # noqa: E402
                            run_solver_spec, theory_parameters, write_trace)
from specmd.linalg import SymMatrix  # noqa: E402
from specmd.oracles import ExactOracleConfig  # noqa: E402
from specmd.problem import gen_instance, make_problem  # noqa: E402

from specbench import certify, metrics, runner, tracing  # noqa: E402
from specbench.checks import check_round_trip, check_trace, same_trace  # noqa: E402
from specbench.workloads import WORKLOADS, DirectSolvers  # noqa: E402


class Tiny(DirectSolvers):
    name = "tiny"
    dim = 6
    T = 40
    eval_stride = 1
    target = 1.0
    lb_iters = 300
    oracle = ExactOracleConfig()
    solvers = ({"kind": "acsmd", "degree": 1}, {"kind": "levy"})


def _targets():
    """What each traced name currently refers to."""
    out = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TARGETS}
    out[("SymMatrix", "__post_init__")] = SymMatrix.__post_init__
    return out


def _tiny_run(seed=3):
    box = gen_instance(6, 0.2, seed)
    prob = make_problem(box, ExactOracleConfig(), T=40)
    theory = theory_parameters(box, prob.oracle, 40)
    trace = run_solver_spec({"kind": "acsmd", "degree": 1}, prob, 40, seed, theory,
                            eval_stride=1)
    a = box.center.data
    lb = certify.certified_bound(a, box.radius, prob.mu, a, 300)["lb"]
    return box, prob, trace, lb


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SPEC = dict(SPEC, workloads=SPEC["workloads"] + [{"name": "tiny", "why": "tests"}])


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(WORKLOADS, "tiny", Tiny())
    sweep = {m["name"]: 1.0 for m in SPEC["per_layer"] if ".ms_per_call." in m["name"]}
    monkeypatch.setattr(runner, "oracle_sweep", lambda seed: sweep)
    return tmp_path


def _execute(root, traced):
    return runner.execute(TINY_SPEC, "tiny", 1, 0.0, traced, lambda k: [0.1] * k, 3,
                          root, 1)


class TestTracer:
    def test_restores_every_original(self):
        before = _targets()
        rec = tracing.SpanRecorder()
        with tracing.Tracer(rec):
            assert len(tracing.installed_wrappers()) == len(before)
            _tiny_run()
        assert _targets() == before
        assert tracing.installed_wrappers() == []
        assert rec.summary()["oracles.exact_subgrad"]["n"] == 40

    def test_restores_after_an_error(self):
        before = _targets()
        with pytest.raises(ZeroDivisionError):
            with tracing.Tracer(tracing.SpanRecorder()):
                1 / 0
        assert _targets() == before

    def test_refuses_double_install(self):
        before = _targets()
        with tracing.Tracer(tracing.SpanRecorder()):
            with pytest.raises(RuntimeError):
                tracing.Tracer(tracing.SpanRecorder()).install()
        assert _targets() == before

    def test_self_time_subtracts_direct_children(self):
        rec = tracing.SpanRecorder()
        outer = rec.open("a")
        inner = rec.open("b")
        rec.close(inner)
        rec.close(outer)
        s = rec.summary()
        assert s["a"]["self_s"] == pytest.approx(s["a"]["s"] - s["b"]["s"])
        assert s["b"]["self_s"] == s["b"]["s"]

    def test_reference_run_spans_are_booked_under_the_harness(self, tmp_path):
        cfg = ExperimentConfig(dims=[4], oracle={"kind": "exact"},
                               solvers=[{"kind": "acsmd", "degree": 1}], T=30,
                               seeds=[0], target_precision=1e-2, noise_sigma=0.2,
                               output_dir=str(tmp_path), reference_budget=10_000)
        rec = tracing.SpanRecorder()
        with tracing.Tracer(rec):
            run_bench(cfg)
        s = rec.summary()
        # the solver and oracle rows count the one cell's 30 iterations only
        assert s["solvers.oblivious_acsmd"]["n"] == 1
        assert s["oracles.exact_subgrad"]["n"] == 30
        assert s["harness.reference_run.solvers.oblivious_acsmd"]["n"] == 1
        assert s["harness.reference_run.oracles.exact_subgrad"]["n"] == 5000
        assert s["harness.reference_polish"]["n"] == 5000


class TestRunner:
    def test_untraced_run_installs_no_wrapper(self, tiny, monkeypatch):
        def refuse(self):
            raise AssertionError("untraced run installed a wrapper")
        monkeypatch.setattr(tracing.Tracer, "install", refuse)
        report = _execute(tiny, False)
        assert report["result"]["correct"], report["problems"]
        assert report["traced_rounds"] == 0

    @pytest.mark.parametrize("traced", [False, True])
    def test_every_declared_metric_is_computed(self, tiny, traced):
        result = _execute(tiny, traced)["result"]
        declared = SPEC["per_layer" if traced else "end_to_end"]
        assert [m["name"] for m in declared] == list(result["metrics"])
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert math.isfinite(result["metrics"][m["name"]]["value"])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert tracing.installed_wrappers() == []


def test_benchmark_json_names_the_workloads_and_share_rows():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    shares = {m["name"][:-len(".share")] for m in SPEC["per_layer"]
              if m["name"].endswith(".share")}
    assert shares == set(metrics.MOVES)


def test_metric_without_a_rule_is_refused():
    with pytest.raises(KeyError):
        metrics.end_to_end(["setup_s", "no_such_metric"], [], [0.1], 40.0)
    with pytest.raises(KeyError):
        metrics.per_layer(["oracles.no_such_oracle.s"], {}, {}, {}, [1.0], [1.0], 0)


class TestChecks:
    def test_clean_trace_passes(self, tmp_path):
        box, prob, trace, lb = _tiny_run()
        assert check_trace(trace, box.center.data, box.radius, prob.mu, lb, 40) == []
        assert check_round_trip(trace, tmp_path / "t.csv", write_trace, read_trace) == []

    @pytest.mark.parametrize("column", ["F_ag", "Psi_ag", "grad_norm"])
    def test_non_finite_value_fails(self, column):
        box, prob, trace, lb = _tiny_run()
        getattr(trace, column)[5] = np.nan
        assert check_trace(trace, box.center.data, box.radius, prob.mu, lb, 40)

    def test_psi_below_bound_fails(self):
        box, prob, trace, lb = _tiny_run()
        trace.Psi_ag[-1] = lb - 1e-6
        problems = check_trace(trace, box.center.data, box.radius, prob.mu, lb, 40)
        assert any("below the certified lower bound" in p for p in problems)

    def test_point_outside_box_fails(self):
        box, prob, trace, lb = _tiny_run()
        x = trace.final_point.data.copy()
        x[0, 0] = box.center.data[0, 0] + 2 * box.radius
        trace.final_point = SymMatrix(x)
        problems = check_trace(trace, box.center.data, box.radius, prob.mu, lb, 40)
        assert any("leaves the box" in p for p in problems)

    def test_stale_final_objective_fails(self):
        box, prob, trace, lb = _tiny_run()
        trace.F_ag[-1] += 1e-9
        problems = check_trace(trace, box.center.data, box.radius, prob.mu, lb, 40)
        assert any("eigvalsh" in p for p in problems)

    def test_corrupted_trace_file_fails_round_trip(self, tmp_path):
        _, _, trace, _ = _tiny_run()
        path = tmp_path / "t.csv"
        write_trace(path, trace)
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[2] = repr(float(fields[2]) + 1e-12)
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert same_trace(trace, read_trace(path))


class TestCertify:
    def test_bound_is_below_feasible_objective_values(self):
        box = gen_instance(8, 0.2, 5)
        a = box.center.data
        mu = 0.1
        out = certify.certified_bound(a, box.radius, mu, a, 400)
        assert out["lb"] <= out["psi_upper"]
        assert out["lb"] <= certify.psi(a, mu, a)
        rng = np.random.default_rng(0)
        for _ in range(20):
            noise = rng.uniform(-box.radius, box.radius, a.shape)
            x = a + (noise + noise.T) / 2
            assert out["lb"] <= certify.psi(x, mu, a)

    def test_cache_returns_the_same_bound(self, tmp_path):
        box = gen_instance(6, 0.2, 2)
        a = box.center.data
        first = certify.cached_bound(tmp_path, a, box.radius, 0.2, a, 100)
        second = certify.cached_bound(tmp_path, a, box.radius, 0.2, a, 100)
        assert not first["cached"] and second["cached"]
        assert first["lb"] == second["lb"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".cache", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_d20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
