import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import sym_matrix
import specmd.harness as harness
from specmd.harness import (EXCEEDED, BenchReport, CellResult,
                            ExperimentConfig, _write_report_files,
                            build_oracle, iterations_to_precision,
                            load_experiment_config, read_trace,
                            reference_run, run_bench, write_trace)
from specmd.linalg import SymMatrix, make_rng
from specmd.oracles import (ExactOracleConfig, PowerOracleConfig,
                            SmoothingOracleConfig, exact_subgrad)
from specmd.problem import (box_lower_bound, eval_F, eval_penalty,
                            gen_instance, load_instance, make_problem,
                            project_box)
from specmd.solvers import (RunTrace, StepSchedule, levy_adaptive,
                            oblivious_acsmd, oblivious_smd)


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
                    elapsed_s=zeros, final_point=SymMatrix(np.eye(2)),
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
        f_ref = dense.F_ag.min()
        target = float(dense.F_ag[9] - f_ref)
        first = iterations_to_precision(dense, f_ref, target)
        assert first % 7 != 0
        hit = iterations_to_precision(sparse, f_ref, target)
        assert hit in sparse.t and hit > first
        assert hit == min(t for t in sparse.t
                          if dense.F_ag[t - 1] - f_ref <= target)

    # nan would read as "exceeded" and inf as a hit at the first row
    @pytest.mark.parametrize("target", [0.0, -1e-3, math.nan, math.inf])
    def test_target_must_be_positive(self, target):
        with pytest.raises(ValueError, match="target must be positive"):
            iterations_to_precision(_rows([1], [1.0]), 0.0, target)

    @pytest.mark.parametrize("f_ref", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_reference_is_refused(self, f_ref):
        with pytest.raises(ValueError,
                           match=f"F_ref must be finite, got {f_ref!r}"):
            iterations_to_precision(_rows([1], [1.0]), f_ref, 0.1)

    @pytest.mark.parametrize("f_ref, target, message", [
        (True, 0.01, "F_ref must be finite, got True"),
        ("0.5", 0.01, "F_ref must be finite, got '0.5'"),
        (0.0, "0.5", "target must be positive and finite, got '0.5'")])
    def test_a_reference_or_target_that_is_no_number_is_refused(
            self, f_ref, target, message):
        # True read as 1.0 and a string raised a raw TypeError
        with pytest.raises(ValueError) as err:
            iterations_to_precision(_rows([1], [1.0]), f_ref, target)
        assert str(err.value) == message


def test_anchor_is_certified_and_its_bound_holds():
    box = gen_instance(6, 0.2, 0)
    mu = 1.0 / math.sqrt(50)
    f_ref, gap, w_ag, trace = reference_run(box, mu, 10_000, 1e-3)
    assert 0.0 <= gap <= 1e-3
    assert f_ref == trace.F_ag.min()
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
    with pytest.raises(ValueError, match="^reference budget must be an "
                       "integer >= 1, got 0$"):
        reference_run(gen_instance(4, 0.2, 0), 0.1, 0, 1e-3)


@pytest.mark.parametrize("budget", [2.5, 100.0, True])
def test_reference_budget_must_be_an_integer(budget):
    with pytest.raises(ValueError) as err:
        reference_run(gen_instance(4, 0.2, 0), 0.1, budget, 1e-3)
    assert str(err.value) == (
        f"reference budget must be an integer >= 1, got {budget}")


def test_path_output_dir_holds_only_the_campaign_files(tmp_path):
    # each fact is written once: no file repeats the traces or the config
    cfg = tiny_config(tmp_path, {"kind": "exact"}, seeds=(0,))
    run_bench(dataclasses.replace(cfg, output_dir=tmp_path / "out"))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "instance_d6.txt", "reference_d6.csv", "report.csv", "summary.txt",
        "trace_d6_acsmd_n1_s0.csv", "trace_d6_smd_n1_s0.csv"]


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
    # the anchor solves its cells' problem, whose mu make_problem sets
    anchor = read_trace(tmp_path / "a" / "reference_d6.csv").config_echo
    cell = read_trace(tmp_path / "a" / "trace_d6_acsmd_n1_s0.csv").config_echo
    assert anchor["mu"] == cell["mu"] == 1.0 / math.sqrt(50)
    assert anchor["oracle"] == {"kind": "exact"}


def test_each_cell_echoes_its_instance_files_header(tmp_path):
    # the echo is the header save_instance wrote, as load_instance reads
    # it back, plus the dim's anchor value
    cfg = dataclasses.replace(tiny_config(tmp_path, {"kind": "exact"}),
                              dims=[4, 6])
    report = run_bench(cfg)
    for dim in cfg.dims:
        _, meta = load_instance(tmp_path / f"instance_d{dim}.txt")
        for name in ("acsmd_n1", "smd_n1"):
            for seed in cfg.seeds:
                echo = read_trace(tmp_path / f"trace_d{dim}_{name}_s{seed}"
                                  ".csv").config_echo["instance"]
                assert echo.pop("F_ref") == report.anchors[dim][0]
                assert echo == meta


def test_tiny_budget_flags_an_uncertified_anchor(tmp_path):
    run_bench(tiny_config(tmp_path, {"kind": "exact"}, seeds=(0,), budget=50))
    text = (tmp_path / "summary.txt").read_text()
    assert re.search(r"^WARNING: anchor d=6 uncertified \(gap \S+ > 0\.001 "
                     r"after 50 iterations\)$", text, re.MULTILINE)
    assert "after 50 iterations)" in text.split("WARNING")[0]


def nearest_rank(values, pct):
    """Smallest value with at least pct percent of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


@pytest.mark.parametrize("n_seeds", [1, 2, 4, 5, 10])
def test_nearest_rank_percentiles_and_reached_count(tmp_path, n_seeds):
    # acsmd misses at seed 0 and fails at the last seed, smd fails at seed
    # 0; every other cell reaches in 10..50 iterations, with ties from seed
    # 6 on. A miss or a failed cell ranks above every reached cell.
    seeds = range(n_seeds)
    cfg = tiny_config(tmp_path, {"kind": "exact"}, seeds=seeds)
    cells = []
    for name, miss, fail in (("acsmd_n1", 0, n_seeds - 1),
                             ("smd_n1", None, 0)):
        for s in seeds:
            if s == miss:
                cell = CellResult(dim=6, solver=name, seed=s,
                                  status="exceeded", final_gap=0.5)
            elif s == fail:
                cell = CellResult(dim=6, solver=name, seed=s, message="boom")
            else:
                cell = CellResult(dim=6, solver=name, seed=s, status="ok",
                                  iterations=10 * (1 + 3 * s % 5),
                                  final_gap=0.0)
            cells.append(cell)
    report = BenchReport(config=cfg, cells=cells, anchors={6: (0.0, 0.0, 100)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _write_report_files(report, tmp_path)
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    expected = ["6"]
    for name in ("acsmd_n1", "smd_n1"):
        group = [c for c in cells if c.solver == name]
        reached = sum(c.status == "ok" for c in group)
        failed = sum(c.status == "error" for c in group)
        miss = f"{reached}/{n_seeds} reached" + (
            f", {failed} failed" if failed else "")
        iters = [c.iterations if c.status == "ok" else math.inf
                 for c in group]
        med, p10, p90 = (miss if v == math.inf else str(v) for v in (
            nearest_rank(iters, pct) for pct in (50, 10, 90)))
        expected.append(f"{med} [{p10}, {p90}]")
    # each column is padded by at least two spaces; an entry has single ones
    assert re.split(r"\s{2,}", lines[2].rstrip()) == [
        "dim", "acsmd_n1", "smd_n1"]
    assert re.split(r"\s{2,}", lines[3].rstrip()) == expected
    assert lines[5] == ("F_ref(d=6) = 0.0 (certified gap 0.000e+00 after "
                        "100 iterations)")


def test_a_median_that_falls_with_dim_prints_no_warning(tmp_path):
    # one seed, so each cell is its (dim, solver) median: acsmd falls from
    # d = 6 to d = 12, smd rises, and levy misses at d = 12. Nothing makes
    # the medians monotone in dim, so the summary states them and judges
    # nothing; its rows keep the config's dim order.
    iterations = {"acsmd_n1": (30, 20, 40), "smd_n1": (10, 20, 30),
                  "levy": (10, None, 30)}
    cells = [CellResult(dim=dim, solver=name, seed=0,
                        status="ok" if it else "exceeded", iterations=it,
                        final_gap=0.0 if it else 0.5, wall_seconds=0.0)
             for name, its in iterations.items()
             for dim, it in zip([6, 12, 24], its)]
    for dims in ([6, 12, 24], [24, 12, 6]):
        cfg = tiny_config(tmp_path, {"kind": "exact"}, seeds=(0,))
        cfg = dataclasses.replace(cfg, dims=dims, solvers=[
            {"kind": "acsmd"}, {"kind": "smd"}, {"kind": "levy"}])
        anchors = dict.fromkeys(cfg.dims, (0.0, 0.0, 100))
        _write_report_files(
            BenchReport(config=cfg, cells=cells, anchors=anchors), tmp_path)
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert not [line for line in lines if "WARNING" in line], dims
        acsmd = dict(zip([6, 12, 24], iterations["acsmd_n1"]))
        assert [re.split(r"\s{2,}", line)[:2] for line in lines[3:6]] == [
            [str(dim), f"{acsmd[dim]} [{acsmd[dim]}, {acsmd[dim]}]"]
            for dim in dims], dims


# one bad value per campaign field, in field order, and the line it raises
BAD_FIELDS = {
    "dims": ([4, 0], "dims must be an integer >= 1, got 0"),
    "oracle": ({}, "oracle must be a nonempty mapping, got {}"),
    "solvers": ([{"kind": "acsmd"}, "smd"],
                "solvers must be a list of mappings, got [{'kind': 'acsmd'}, "
                "'smd']"),
    "T": (2.5, "T must be an integer >= 1, got 2.5"),
    "seeds": ([0, True], "seeds must be an integer >= 0, got True"),
    "target_precision": (math.inf,
                         "target_precision must be positive and finite, "
                         "got inf"),
    "noise_sigma": (math.nan,
                    "noise_sigma must be nonnegative and finite, got nan"),
    "output_dir": ("", "output_dir must be a nonempty path, got ''"),
    "instance_seed": (-1, "instance_seed must be an integer >= 0, got -1"),
    "reference_budget": ("10", "reference_budget must be an integer >= 1, "
                         "got '10'"),
}


def test_each_config_field_refuses_a_bad_value_by_name(tmp_path):
    # a field with no rule, or a rule that never runs, would let its bad
    # value through
    assert list(BAD_FIELDS) == [
        f.name for f in dataclasses.fields(ExperimentConfig)]
    good = tiny_config(tmp_path, {"kind": "exact"})
    for key, (value, message) in BAD_FIELDS.items():
        with pytest.raises(ValueError) as err:
            dataclasses.replace(good, **{key: value})
        assert str(err.value) == message


def test_config_numbers_are_stored_plain():
    cfg = ExperimentConfig(
        dims=[np.int64(6)], oracle={"kind": "exact"}, solvers=[{"kind": "smd"}],
        T=np.int32(20), seeds=[np.uint8(3)], target_precision=np.float32(0.5),
        noise_sigma=0, output_dir="out", reference_budget=np.int64(2))
    assert [type(v) for v in (cfg.dims[0], cfg.T, cfg.seeds[0],
                              cfg.target_precision, cfg.noise_sigma,
                              cfg.reference_budget)] == [int, int, int, float,
                                                         float, int]


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
     "solver option D must be positive and finite, got 'abc'"),
    ({"kind": "lan", "L": 40.0, "sigma": 1.0},
     "solver option 'sigma' is unknown for lan"),
    # constants are checked by the solvers' own rule once resolved
    ({"kind": "levy", "D": -1},
     "solver option D must be positive and finite, got -1"),
    ({"kind": "levy", "M": -1},
     "solver option M must be nonnegative and finite, got -1"),
    ({"kind": "lan", "L": 0},
     "solver option L must be positive and finite, got 0"),
    ({"kind": "relative", "Lstar": 0},
     "solver option Lstar must be positive and finite, got 0"),
    ({"kind": "relative", "Lstar": 10, "Gamma": -0.5, "tuned": True},
     "solver option Gamma must be positive and finite, got -0.5"),
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


def test_run_bench_resolves_each_dim_and_spec_once(tmp_path, monkeypatch):
    calls = []
    resolve = harness.resolve_solver_spec

    def counted(spec, theory):
        calls.append(spec["kind"])
        return resolve(spec, theory)

    monkeypatch.setattr(harness, "resolve_solver_spec", counted)
    cfg = tiny_config(tmp_path, {"kind": "exact"}, seeds=(0, 1, 2))
    cfg.dims = [4, 6]
    report = run_bench(cfg)
    assert len(report.cells) == 2 * 2 * 3
    assert all(c.status != "error" for c in report.cells)
    assert sorted(calls) == sorted(["acsmd", "smd"] * 2)


@pytest.mark.parametrize("seeds", [[-1, 2], [0, -3]])
def test_negative_seed_fails_before_any_reference_run(tmp_path, monkeypatch,
                                                      seeds):
    def no_reference_run(*args, **kwargs):
        raise AssertionError("reference run started before config validation")

    monkeypatch.setattr(harness, "reference_run", no_reference_run)
    with pytest.raises(ValueError) as err:
        run_bench(tiny_config(tmp_path / "out", {"kind": "exact"}, seeds=seeds))
    assert str(err.value) == f"seeds must be an integer >= 0, got {min(seeds)}"
    assert not (tmp_path / "out").exists()


def test_solver_constants_resolve_from_theory():
    theory = {"D": 12.0, "M": 1.0, "Gamma": 0.01, "L": 600.0}
    resolve = harness.resolve_solver_spec
    # M and Gamma take "theory" untuned; D, L and Lstar are tuned
    assert resolve({"kind": "levy", "M": "theory", "tuned": True}, theory) == (
        harness.levy_adaptive, {"D": 12.0 / harness.TUNE_D, "M": 1.0})
    assert resolve({"kind": "lan", "L": "theory"}, theory) == (
        harness.lan_acsa, {"L": 600.0})
    assert resolve({"kind": "relative", "Lstar": 10, "Gamma": "theory",
                    "tuned": True}, theory) == (
        harness.relative_md, {"Lstar": 10.0 / harness.TUNE_LSTAR, "Gamma": 0.01})
    # the specs the benchmark runs stay valid
    assert resolve({"kind": "lan", "tuned": True}, theory)[1] == {
        "L": 600.0 / harness.TUNE_L}
    assert resolve({"kind": "lan", "L": 40.0}, theory)[1] == {"L": 40.0}
    # M may be 0, as levy_adaptive allows
    assert resolve({"kind": "levy", "M": 0}, theory)[1] == {"D": 12.0, "M": 0.0}
    solver, params = resolve({"kind": "acsmd", "name": "a", "degree": 0},
                             theory)
    assert solver is harness.oblivious_acsmd
    assert params == {"sched": StepSchedule(degree=0)}


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
    option, read from StepSchedule's fields and the tables
    resolve_solver_spec and build_oracle check specs against."""
    smoothing = {"kind": "smoothing"}
    for kind in ("smd", "acsmd"):
        for key in [f.name for f in dataclasses.fields(StepSchedule)]:
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
        final_point=sym_matrix(point),
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


def _with_point(edit):
    """An edit of lines[5], a d = 3 trace's whole final point, as JSON."""
    def apply(lines):
        point = json.loads(lines[5][len("# final_point: "):])
        lines[5] = "# final_point: " + json.dumps(edit(point)) + "\n"
    return apply


def _swap_rows(lines):  # data rows 1 and 2: t = 20 comes before t = 10
    lines[7], lines[8] = lines[8], lines[7]


@pytest.mark.parametrize("edit, detail", [
    # one off-diagonal entry changed: read back as the mean of the pair,
    # a point the file does not hold
    (_with_point(lambda p: [[p[0][0], p[0][1] + 1.0, p[0][2]], *p[1:]]),
     "entries are not exactly symmetric"),
    (_with_point(lambda p: [row[:2] for row in p]),
     "expected a nonempty square 2-d array, got (3, 2)"),
    (_swap_rows, "iteration indices must be strictly increasing")],
    ids=["asymmetric point", "3 x 2 point", "swapped rows"])
def test_trace_with_an_asymmetric_final_point_is_refused(tmp_path, edit,
                                                         detail):
    # SymMatrix's and RunTrace's refusals were raised without the file
    path, lines = _trace_lines(tmp_path)
    edit(lines)
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}: {detail}"


@pytest.mark.parametrize("key", ["config", "seed", "total_seconds",
                                 "oracle_seconds"])
def test_trace_without_a_header_line_is_malformed(tmp_path, key):
    path = tmp_path / "trace.csv"
    write_trace(path, synthetic_trace(3))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines
                            if not line.startswith(f"# {key}:")))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"malformed trace file: {path}"


# per number header of a trace file, texts its rule refuses and the value
# the message shows
BAD_TRACE_HEADERS = {"seed": [("-1", "-1"), ("1.5", "1.5")],
                     "total_seconds": [("nan", "nan"), ("-1.0", "-1.0")],
                     "oracle_seconds": [("inf", "inf"), ("x", "'x'")]}


def test_every_trace_header_key_has_refusal_cases():
    assert BAD_TRACE_HEADERS.keys() == harness._TRACE_HEADER.keys()


@pytest.mark.parametrize("key, text, shown", [
    (key, text, shown) for key, cases in BAD_TRACE_HEADERS.items()
    for text, shown in cases])
def test_a_trace_header_its_rule_refuses_names_file_and_key(tmp_path, key,
                                                           text, shown):
    path = tmp_path / "trace.csv"
    write_trace(path, synthetic_trace(3))
    path.write_text(re.sub(rf"^# {key}: .*$", f"# {key}: {text}",
                           path.read_text(), flags=re.MULTILINE))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == (
        f"{path}: {key} must be {harness._TRACE_HEADER[key]}, got {shown}")


def test_a_config_line_that_is_not_json_is_malformed(tmp_path):
    # it raised a bare JSONDecodeError that named no file
    path = tmp_path / "trace.csv"
    write_trace(path, synthetic_trace(3))
    path.write_text(re.sub(r"^# config: .*$", "# config: {oracle",
                           path.read_text(), flags=re.MULTILINE))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"malformed trace file: {path}"


def _trace_lines(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, synthetic_trace(3))
    return path, path.read_text().splitlines(keepends=True)


# head lines write_trace cannot write: the point lines were read as a 2 x 2
# point and the configs as values that are not mappings, and the empty point
# line raised numpy's "input contained no data" warning
UNWRITABLE_HEAD_LINES = {
    "point nested a level deeper": "# final_point: [[[1.0, 2.0]], [2.0, 1.0]]",
    "point rows between text": "# final_point: xx[1.0, 2.0]yy[2.0, 1.0]zz",
    "empty point": "# final_point: ",
    "config a JSON list": "# config: [1]",
    "config a JSON null": "# config: null"}


@pytest.mark.parametrize("line", UNWRITABLE_HEAD_LINES.values(),
                         ids=UNWRITABLE_HEAD_LINES)
def test_a_head_line_write_trace_cannot_write_is_malformed(tmp_path, line):
    path, lines = _trace_lines(tmp_path)
    key = line.split(": ")[0] + ": "
    i = next(i for i, old in enumerate(lines) if old.startswith(key))
    lines[i] = line + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"malformed trace file: {path}"


@pytest.mark.parametrize("move", ["swap", "extra", "version"])
def test_a_trace_head_out_of_order_is_malformed(tmp_path, move):
    # the head is read line by line in write_trace's order
    path, lines = _trace_lines(tmp_path)
    if move == "swap":
        lines[2], lines[3] = lines[3], lines[2]
    elif move == "extra":
        lines.insert(2, "# note: 1\n")
    else:
        lines[0] = "# specmd-trace v2\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"malformed trace file: {path}"


# edits of a d = 3 trace (lines[5], file line 6, is the whole final point;
# lines[8], file line 9, is data row 2) and the file line and loadtxt's
# account of each: a data row short of a column, a ragged point row, and a
# t that is no whole number or past int64
BAD_TRACE_ROWS = {
    "short data row": (8, lambda line: line.rsplit(",", 1)[0] + "\n",
                       "line 9: the dtype passed requires 5 columns but 4 "
                       "were found"),
    "ragged point row": (5, lambda line: line.replace("], [", ", 1.0], [", 1),
                         "line 6: the number of columns changed from 4 "
                         "to 3"),
    "fractional t": (8, lambda line: "20.5" + line[2:],
                     "line 9: could not convert string '20.5' to int64 at "
                     "column 1"),
    "huge t": (8, lambda line: "1e30" + line[2:],
               "line 9: could not convert string '1e30' to int64 at "
               "column 1"),
}


@pytest.mark.parametrize("case", BAD_TRACE_ROWS)
def test_a_bad_trace_row_is_one_line_naming_file_and_row(tmp_path, case):
    # the float() loop raised numpy's inhomogeneous-shape error, t = 20.5
    # read as 20 and t = 1e30 warned in the int cast
    path, lines = _trace_lines(tmp_path)
    number, edit, detail = BAD_TRACE_ROWS[case]
    lines[number] = edit(lines[number])
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}: {detail}"


# data rows both loaders read but no run writes (lines[7], file line 8, is
# data row 1; lines[8] is row 2), each with RunTrace's refusal
UNWRITTEN_TRACE_ROWS = {
    "nan F_ag": (8, lambda line: re.sub(",[^,]+", ",nan", line, count=1),
                 "F_ag, Psi_ag or elapsed_s has a non-finite entry"),
    "t = 0": (7, lambda line: "0" + line[2:],
              "iteration indices must start at 1 or later"),
}


@pytest.mark.parametrize("case", UNWRITTEN_TRACE_ROWS)
def test_a_trace_row_no_run_writes_is_one_line_naming_the_file(tmp_path,
                                                                case):
    # both were read back, and a trace whose F_ag rows are all nan scored
    # "exceeded"
    path, lines = _trace_lines(tmp_path)
    number, edit, detail = UNWRITTEN_TRACE_ROWS[case]
    lines[number] = edit(lines[number])
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}: {detail}"


@pytest.mark.parametrize("inserted, detail", [
    ("# note\n", "the dtype passed requires 5 columns but 1 were found"),
    ("\n", "blank line")])
def test_a_line_among_trace_rows_is_named_as_itself(tmp_path, inserted,
                                                   detail):
    # loadtxt skipped a '#' or blank line 9 without counting it, so a bad
    # row on line 10 was named as line 9's
    path, lines = _trace_lines(tmp_path)
    lines[8:9] = [inserted, "20.5" + lines[8][2:]]
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}: line 9: {detail}"


def test_a_blank_line_after_the_trace_rows_is_refused(tmp_path):
    path, lines = _trace_lines(tmp_path)
    path.write_text("".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_trace(path)
    assert str(err.value) == f"{path}: line {len(lines) + 1}: blank line"


def test_campaign_numbers_read_as_python_reads_them(tmp_path):
    # YAML 1.1 read 1e-2 as the string '1e-2', which the rules refused
    reports = []
    for number in ("0.01", "1e-2"):
        config = tmp_path / f"campaign_{number}.yaml"
        config.write_text(
            "dims: [4]\n"
            f"oracle: {{kind: smoothing, epsilon: {number}}}\n"
            "solvers: [&a {kind: acsmd},\n"
            "          {<<: *a, kind: levy, tuned: true}]\n"
            f"T: 20\nseeds: [0]\ntarget_precision: {number}\n"
            "noise_sigma: 0.2\n"
            f"output_dir: {tmp_path / number}\n")
        cfg = load_experiment_config(config)
        assert (cfg.target_precision, cfg.oracle["epsilon"]) == (0.01, 0.01)
        # a merge key is YAML structure, not a value: it still merges
        assert cfg.solvers == [{"kind": "acsmd"},
                               {"kind": "levy", "tuned": True}]
        run_bench(cfg)
        reports.append((tmp_path / number / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    # a null is None, not the text '~': no field takes None, so it is refused
    config.write_text(config.read_text().replace(
        f"output_dir: {tmp_path / number}", "output_dir: ~"))
    with pytest.raises(ValueError) as err:
        load_experiment_config(config)
    assert str(err.value) == "output_dir must be a nonempty path, got None"


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


@pytest.mark.parametrize("run", [
    lambda prob: oblivious_smd(prob, StepSchedule(degree=np.int64(1)), 10, 0),
    lambda prob: levy_adaptive(prob, np.float32(3.0), 1.0, 10, 0)])
def test_numpy_scalar_options_write_and_read_back(tmp_path, run):
    trace = run(make_problem(gen_instance(5, 0.2, 0), ExactOracleConfig(),
                             T=10))
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    assert read_trace(path).config_echo == json.loads(
        json.dumps(trace.config_echo))


@pytest.mark.parametrize("oracle, mu", [
    (ExactOracleConfig(), np.float32(0.1)),
    (SmoothingOracleConfig(k=np.int64(1)), None),
    (SmoothingOracleConfig(epsilon=np.float32(0.01)), None),
    (PowerOracleConfig(p=np.int64(3)), None)])
def test_numpy_scalar_problem_inputs_write_and_read_back(tmp_path, oracle,
                                                         mu):
    prob = make_problem(gen_instance(5, 0.2, 0), oracle, T=10, mu=mu)
    trace = oblivious_smd(prob, StepSchedule(degree=1), 10, 0)
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    assert read_trace(path).config_echo == trace.config_echo


def test_a_numpy_mu_runs_like_a_python_float():
    # a float32 mu times a Python float stays float32: Psi_ag's penalty
    # would round in single precision
    box = gen_instance(5, 0.2, 0)
    runs = [oblivious_smd(make_problem(box, ExactOracleConfig(), mu=mu),
                          StepSchedule(degree=1), 10, 0)
            for mu in (np.float32(0.1), float(np.float32(0.1)))]
    for name in ("F_ag", "Psi_ag"):
        assert getattr(runs[0], name).tobytes() == \
            getattr(runs[1], name).tobytes(), name
    assert runs[0].final_point.data.tobytes() == \
        runs[1].final_point.data.tobytes()


def test_a_header_json_refuses_leaves_no_file(tmp_path):
    trace = synthetic_trace(3)
    trace.config_echo["mu"] = np.float32(0.1)
    path = tmp_path / "trace.csv"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_trace(path, trace)
    assert not path.exists()

