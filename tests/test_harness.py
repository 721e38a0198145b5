import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

import specmd.harness as harness
from specmd.harness import (EXCEEDED, BenchReport, CellResult,
                            ExperimentConfig, _write_report_files,
                            build_oracle, iterations_to_precision, read_trace,
                            reference_run, run_bench, write_trace)
from specmd.linalg import make_rng, sym_from
from specmd.oracles import (ExactOracleConfig, SmoothingOracleConfig,
                            exact_subgrad)
from specmd.problem import (box_lower_bound, eval_F, eval_penalty,
                            gen_instance, make_problem, project_box)
from specmd.solvers import (RunTrace, StepSchedule, oblivious_acsmd,
                            oblivious_smd)


def tiny_config(outdir, oracle, seeds=(0, 1), budget=10_000):
    return ExperimentConfig(
        dims=[6], oracle=oracle, solvers=[{"kind": "acsmd"}, {"kind": "smd"}],
        T=50, seeds=list(seeds), target_precision=1e-2, noise_sigma=0.2,
        output_dir=str(outdir), reference_budget=budget)


@pytest.mark.parametrize("oracle", [
    {"kind": "exact"}, {"kind": "smoothing", "k": 1, "epsilon": 1e-2}])
def test_tiny_campaign_writes_reports_without_nan(tmp_path, oracle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_bench(tiny_config(tmp_path, oracle))
    assert len(report.cells) == 4
    assert all(c.status != "error" for c in report.cells)
    for name in ("report.csv", "summary.txt"):
        text = (tmp_path / name).read_text()
        assert text.strip()
        assert "nan" not in text.lower()


def _rows(t, f_ag):
    """A trace with the given evaluated iterations and F_ag values."""
    zeros = np.zeros(len(t))
    return RunTrace(t=np.array(t), F_ag=np.array(f_ag, dtype=float),
                    Psi_ag=np.array(f_ag, dtype=float), grad_norm=zeros,
                    elapsed_s=zeros, final_point=sym_from(np.eye(2)),
                    config_echo={}, seed=0)


class TestIterationsToPrecision:
    def test_first_hit_is_reported_even_if_later_rows_miss(self):
        trace = _rows([1, 2, 3, 4, 5], [1.0, 0.5, 0.2, 0.4, 0.1])
        assert iterations_to_precision(trace, 0.0, 0.3) == 3
        assert iterations_to_precision(trace, 0.0, 1.0) == 1
        assert iterations_to_precision(trace, 0.1, 0.05) == 5

    def test_no_hit_is_exceeded(self):
        trace = _rows([1, 2, 3], [1.0, 0.5, 0.2])
        assert iterations_to_precision(trace, 0.0, 0.1) == EXCEEDED

    def test_a_gap_equal_to_the_target_is_a_hit(self):
        # 0.75 - 0.5 == 0.25 exactly; the next float up is a miss
        assert iterations_to_precision(_rows([4], [0.75]), 0.5, 0.25) == 4
        above = float(np.nextafter(0.75, 1.0))
        assert iterations_to_precision(_rows([4], [above]), 0.5, 0.25) == EXCEEDED

    def test_a_strided_trace_reports_an_evaluated_row(self):
        # the rows of a stride-7 run are the stride-1 run's rows at those t;
        # the first hit of the dense run falls between two of them
        prob = make_problem(gen_instance(6, 0.2, 0), ExactOracleConfig(), T=50)
        dense = oblivious_smd(prob, StepSchedule(degree=1), 50, 0, eval_stride=1)
        sparse = oblivious_smd(prob, StepSchedule(degree=1), 50, 0, eval_stride=7)
        assert list(sparse.t) == [7, 14, 21, 28, 35, 42, 49, 50]
        f_ref = dense.best_F_ag
        target = float(dense.F_ag[9] - f_ref)
        first = iterations_to_precision(dense, f_ref, target)
        assert first % 7 != 0
        hit = iterations_to_precision(sparse, f_ref, target)
        assert hit in sparse.t and hit > first
        assert hit == min(t for t in sparse.t
                          if dense.F_ag[t - 1] - f_ref <= target)

    @pytest.mark.parametrize("target", [0.0, -1e-3])
    def test_target_must_be_positive(self, target):
        with pytest.raises(ValueError, match="target must be positive"):
            iterations_to_precision(_rows([1], [1.0]), 0.0, target)


def test_anchor_is_certified_and_its_bound_holds():
    box = gen_instance(6, 0.2, 0)
    mu = 1.0 / math.sqrt(50)
    f_ref, gap, w_ag, trace = reference_run(box, mu, 10_000, 1e-3)
    assert 0.0 <= gap <= 1e-3
    assert f_ref == trace.best_F_ag
    assert trace.config_echo["oracle"] == {"kind": "exact"}
    # W_ag averages unit v v^T draws: a density matrix
    assert abs(np.trace(w_ag) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(w_ag)[0] >= -1e-12
    again, again_gap, again_w, again_trace = reference_run(box, mu, 10_000, 1e-3)
    assert (again, again_gap, again_trace.t[-1]) == (f_ref, gap, trace.t[-1])
    assert again_w.tobytes() == w_ag.tobytes()
    prob = make_problem(box, ExactOracleConfig(), mu=mu)
    lb = box_lower_bound(w_ag, prob)
    assert lb == pytest.approx(trace.Psi_ag[-1] - gap, abs=1e-15)
    rng = make_rng(1)
    points = [trace.final_point.data, box.center.data, box.lower, box.upper]
    for _ in range(200):
        offs = rng.uniform(-box.radius, box.radius, size=(6, 6))
        points.append(project_box(box.center.data + (offs + offs.T) / 2, box))
    for x in points:
        assert lb <= eval_F(x) + eval_penalty(x, prob)


def test_anchor_weights_the_draws_like_its_average():
    # W_ag is the alpha_t-weighted mean of the exact draws at the md points
    box = gen_instance(5, 0.2, 2)
    mu = 0.3
    _, _, w_ag, _ = reference_run(box, mu, 20, 1e-9)
    grads = []

    def recording(x, rng):
        value, grad = exact_subgrad(x)
        grads.append(grad)
        return value, grad

    sched = StepSchedule(degree=1)
    oblivious_acsmd(make_problem(box, recording, mu=mu), sched, 20, 0)
    alpha = sched.weights(20)[0]
    expected = np.tensordot(alpha, np.array(grads), axes=1) / alpha.sum()
    assert np.allclose(w_ag, expected, rtol=1e-13, atol=1e-15)


def test_reference_budget_must_be_positive():
    with pytest.raises(ValueError, match="reference budget must be >= 1"):
        reference_run(gen_instance(4, 0.2, 0), 0.1, 0, 1e-3)


def test_path_output_dir_is_echoed_as_a_string(tmp_path):
    cfg = tiny_config(tmp_path, {"kind": "exact"}, seeds=(0,))
    run_bench(dataclasses.replace(cfg, output_dir=tmp_path / "out"))
    echo = yaml.safe_load((tmp_path / "out" / "config_echo.yaml").read_text())
    assert echo["output_dir"] == str(tmp_path / "out")


def test_anchor_horizons_repeat_as_prefixes():
    # the doubling in reference_run needs no warm start: a longer exact-oracle
    # run starts with the shorter one, bit for bit
    prob = make_problem(gen_instance(6, 0.2, 0), ExactOracleConfig(), mu=0.1)
    short = oblivious_acsmd(prob, StepSchedule(degree=1), 100, 0)
    long = oblivious_acsmd(prob, StepSchedule(degree=1), 200, 0)
    for name in ("t", "F_ag", "Psi_ag", "grad_norm"):
        assert getattr(long, name)[:100].tobytes() == getattr(short, name).tobytes()


def test_summary_prints_each_anchor_deterministically(tmp_path):
    texts = []
    for run in ("a", "b"):
        run_bench(tiny_config(tmp_path / run, {"kind": "exact"}, seeds=(0,)))
        texts.append((tmp_path / run / "summary.txt").read_text())
    assert texts[0] == texts[1]
    line = re.search(r"^F_ref\(d=6\) = (\S+) \(certified gap (\S+) after "
                     r"(\d+) iterations\)$", texts[0], re.MULTILINE)
    assert line is not None
    assert 0.0 <= float(line.group(2)) <= 1e-3
    assert "uncertified" not in texts[0]


def test_tiny_budget_flags_an_uncertified_anchor(tmp_path):
    run_bench(tiny_config(tmp_path, {"kind": "exact"}, seeds=(0,), budget=50))
    text = (tmp_path / "summary.txt").read_text()
    assert re.search(r"^WARNING: anchor d=6 uncertified \(gap \S+ > 0\.001 "
                     r"after 50 iterations\)$", text, re.MULTILINE)
    assert "after 50 iterations)" in text.split("WARNING")[0]


def test_nearest_rank_percentiles_and_reached_count(tmp_path):
    cfg = tiny_config(tmp_path, {"kind": "exact"}, seeds=(0, 1, 2))
    cells = [CellResult(dim=6, solver="acsmd_n1", seed=s, status=status,
                        iterations=it, final_gap=gap, wall_seconds=0.0,
                        oracle_seconds=0.0)
             for s, status, it, gap in ((0, "ok", 30, 0.0),
                                        (1, "exceeded", None, 0.5),
                                        (2, "ok", 10, 0.0))]
    cells += [CellResult(dim=6, solver="smd_n1", seed=s, status="exceeded",
                         iterations=None, final_gap=0.5, wall_seconds=0.0,
                         oracle_seconds=0.0) for s in range(3)]
    report = BenchReport(config=cfg, cells=cells, anchors={6: (0.0, 0.0, 100)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _write_report_files(report, tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    # acsmd: p10 = 10, median = 30 and p90 a miss, printed as the count
    assert "30 [10, 2/3 reached]" in summary
    assert "0/3 reached [0/3 reached, 0/3 reached]" in summary
    assert "F_ref(d=6) = 0.0 (certified gap 0.000e+00 after 100 iterations)" \
        in summary


def test_build_oracle_rejects_unknown_keys():
    with pytest.raises(ValueError, match="eig_tol"):
        build_oracle({"kind": "smoothing", "k": 1, "eig_tol": 1e-8})
    with pytest.raises(ValueError, match="'p'"):
        build_oracle({"kind": "exact", "p": 3})
    assert build_oracle({"kind": "smoothing", "k": 2}).k == 2


@pytest.mark.parametrize("solver, message", [
    ({"kind": "lan"}, "no theory value for 'L'"),
    ({"kind": "bogus"}, "unknown solver kind"),
    ({"kind": "acsmd", "degre": 2}, "solver option 'degre' is unknown for acsmd"),
    ({"kind": "acsmd", "degree": 1.7},
     "solver option degree must be an integer >= 0, got 1.7"),
    ({"kind": "smd", "scale": 2.0}, "solver option 'scale' is unknown for smd"),
    ({"kind": "levy", "tuned": "false"},
     "solver option tuned must be true or false, got 'false'"),
    ({"kind": "levy", "D": "abc"},
     "solver option D must be a finite number or 'theory', got 'abc'"),
    ({"kind": "lan", "L": 40.0, "sigma": 1.0},
     "solver option 'sigma' is unknown for lan"),
    # constants are checked against the solvers' ranges once resolved
    ({"kind": "levy", "D": -1}, "solver option D must be positive, got -1.0"),
    ({"kind": "levy", "M": -1}, "solver option M must be nonnegative, got -1.0"),
    ({"kind": "lan", "L": 0}, "solver option L must be positive, got 0.0"),
    ({"kind": "relative", "Lstar": 0},
     "solver option Lstar must be positive, got 0.0"),
    ({"kind": "relative", "Lstar": 10, "Gamma": -0.5, "tuned": True},
     "solver option Gamma must be positive, got -0.5"),
])
def test_bad_solver_spec_fails_before_any_reference_run(tmp_path, monkeypatch,
                                                        solver, message):
    def no_reference_run(*args, **kwargs):
        raise AssertionError("reference run started before config validation")

    monkeypatch.setattr(harness, "reference_run", no_reference_run)
    cfg = tiny_config(tmp_path / "out", {"kind": "exact"})
    cfg.solvers = [{"kind": "acsmd"}, solver]
    with pytest.raises(ValueError, match=re.escape(message)):
        run_bench(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [[-1, 2], [0, -3]])
def test_negative_seed_fails_before_any_reference_run(tmp_path, monkeypatch,
                                                      seeds):
    def no_reference_run(*args, **kwargs):
        raise AssertionError("reference run started before config validation")

    monkeypatch.setattr(harness, "reference_run", no_reference_run)
    with pytest.raises(ValueError) as err:
        run_bench(tiny_config(tmp_path / "out", {"kind": "exact"}, seeds=seeds))
    assert str(err.value) == ("seeds must be a nonempty list of nonnegative "
                              f"integers, got {seeds!r}")
    assert not (tmp_path / "out").exists()


def test_solver_constants_resolve_from_theory():
    theory = {"D": 12.0, "M": 1.0, "Gamma": 0.01, "L": 600.0}
    resolve = harness.resolve_solver_spec
    # M and Gamma take "theory" untuned; D, L and Lstar are tuned
    assert resolve({"kind": "levy", "M": "theory", "tuned": True}, theory) == (
        harness.levy_adaptive, (12.0 / harness.TUNE_D, 1.0))
    assert resolve({"kind": "lan", "L": "theory"}, theory) == (
        harness.lan_acsa, (600.0,))
    assert resolve({"kind": "relative", "Lstar": 10, "Gamma": "theory",
                    "tuned": True}, theory) == (
        harness.relative_md, (10.0 / harness.TUNE_LSTAR, 0.01))
    # the specs the benchmark runs stay valid
    assert resolve({"kind": "lan", "tuned": True}, theory)[1] == (
        600.0 / harness.TUNE_L,)
    assert resolve({"kind": "lan", "L": 40.0}, theory)[1] == (40.0,)
    # M may be 0, as levy_adaptive allows
    assert resolve({"kind": "levy", "M": 0}, theory)[1] == (12.0, 0.0)
    solver, (sched,) = resolve({"kind": "acsmd", "name": "a", "degree": 0},
                               theory)
    assert solver is harness.oblivious_acsmd
    assert sched == StepSchedule(degree=0)


# two values of every option a solver spec or an oracle takes; each pair
# must give different F_ag bytes at d = 6, T = 20. square_input is left out:
# the unsquared power form fails at t = 1 on instances this small.
OPTION_VALUES = {
    "degree": (1, 2), "D": (1.0, 5.0), "M": (0.0, 10.0), "L": (40.0, 400.0),
    "Lstar": (10.0, 100.0), "Gamma": (0.01, 1.0), "tuned": (False, True),
    "k": (1, 3), "epsilon": (1e-2, 1e-1), "p": (3, 7),
}


def _every_option():
    """(solver spec, oracle spec, option, the spec that takes it) for each
    option, read from the tables resolve_solver_spec and build_oracle check
    specs against."""
    smoothing = {"kind": "smoothing"}
    for kind in ("smd", "acsmd"):
        for key in harness._STEP_OPTIONS:
            yield pytest.param({"kind": kind}, smoothing, key, "solver",
                               id=f"{kind}-{key}")
    for kind, constants in harness._BASELINES.items():
        # the smoothing oracle has no theory value for Lstar
        base = {"kind": kind, **({"Lstar": 10.0} if kind == "relative" else {})}
        for key in [*constants, "tuned"]:
            yield pytest.param(base, smoothing, key, "solver",
                               id=f"{kind}-{key}")
    for kind, cls in harness._ORACLE_CONFIGS.items():
        for key in [f.name for f in dataclasses.fields(cls)]:
            if key != "square_input":
                yield pytest.param({"kind": "acsmd"}, {"kind": kind}, key,
                                   "oracle", id=f"{kind}-{key}")


@pytest.mark.parametrize("solver, oracle, key, where", _every_option())
def test_every_option_changes_the_run(solver, oracle, key, where):
    box = gen_instance(6, 0.2, seed=0)
    runs = []
    for value in OPTION_VALUES[key]:
        specs = {"solver": solver, "oracle": oracle}
        specs[where] = {**specs[where], key: value}
        oracle_cfg = build_oracle(specs["oracle"])
        prob = make_problem(box, oracle_cfg, T=20)
        theory = harness.theory_parameters(box, oracle_cfg, 20)
        trace = harness.run_solver_spec(specs["solver"], prob, 20, 0, theory)
        runs.append(trace.F_ag.tobytes())
    assert runs[0] != runs[1]


def json_trace_text(trace) -> str:
    """Trace v1 as one string, the final point by json.dumps of the nested
    list of Python floats: the format that write_trace streams."""
    lines = [
        "# specmd-trace v1",
        "# config: " + json.dumps(trace.config_echo, sort_keys=True),
        f"# seed: {trace.seed}",
        f"# total_seconds: {trace.total_seconds!r}",
        f"# oracle_seconds: {trace.oracle_seconds!r}",
        "# final_point: " + json.dumps(
            [[float(v) for v in row] for row in trace.final_point.data]),
        "t,F_ag,Psi_ag,grad_norm,elapsed_s",
    ]
    cols = (trace.F_ag, trace.Psi_ag, trace.grad_norm, trace.elapsed_s)
    for i, t in enumerate(trace.t):
        lines.append(",".join([str(int(t))] + [repr(float(c[i])) for c in cols]))
    return "\n".join(lines) + "\n"


def synthetic_trace(d, rows=11):
    """A trace with full-precision random entries, signed zeros included."""
    gen = make_rng(d)
    point = gen.standard_normal((d, d)) * 10.0 ** gen.integers(-9, 9, (d, d))
    point[0, 0] = -0.0
    return RunTrace(
        t=np.arange(1, rows + 1) * 10, F_ag=gen.standard_normal(rows),
        Psi_ag=gen.standard_normal(rows), grad_norm=gen.random(rows),
        elapsed_s=np.cumsum(gen.random(rows)),
        final_point=sym_from(point),
        config_echo={"oracle": {"kind": "power", "p": 21}, "mu": 0.1},
        seed=7, total_seconds=1.25, oracle_seconds=0.5)


@pytest.mark.parametrize("d", [1, 6, 200])
def test_trace_file_bytes_match_json_dumps(tmp_path, d):
    trace = synthetic_trace(d)
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    assert path.read_bytes() == json_trace_text(trace).encode()
    back = read_trace(path)
    assert back.final_point.data.tobytes() == trace.final_point.data.tobytes()
    for name in ("t", "F_ag", "Psi_ag", "grad_norm", "elapsed_s"):
        assert getattr(back, name).tobytes() == getattr(trace, name).tobytes()


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_io_builds_no_d_squared_python_floats(tmp_path):
    # at d = 200 the file is 0.83 MB and a nested list of Python floats
    # alone takes over 1 MB; the point array is 0.32 MB
    trace = synthetic_trace(200)
    path = tmp_path / "trace.csv"
    assert _peak_bytes(write_trace, path, trace) <= 0.5e6
    assert path.stat().st_size > 0.8e6
    assert _peak_bytes(read_trace, path) <= 2e6


def test_trace_without_a_final_point_is_malformed(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, synthetic_trace(3))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines
                            if not line.startswith("# final_point")))
    with pytest.raises(ValueError, match="malformed trace file"):
        read_trace(path)


def test_trace_file_round_trip_is_exact(tmp_path):
    box = gen_instance(5, 0.2, seed=2)
    prob = make_problem(box, SmoothingOracleConfig(), T=20)
    trace = oblivious_smd(prob, StepSchedule(degree=1), 20, 1)
    trace.config_echo["instance"] = {"d": 5, "rho": box.radius, "F_ref": 1 / 3}
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    back = read_trace(path)
    for name in ("t", "F_ag", "Psi_ag", "grad_norm", "elapsed_s"):
        a, b = getattr(trace, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert back.final_point.data.tobytes() == trace.final_point.data.tobytes()
    assert back.config_echo == trace.config_echo
    assert (back.seed, back.total_seconds, back.oracle_seconds) == (
        trace.seed, trace.total_seconds, trace.oracle_seconds)
