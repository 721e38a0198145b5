import math
import warnings

import pytest

import specmd.harness as harness
from specmd.harness import (BenchReport, CellResult, ExperimentConfig,
                            _write_report_files, build_oracle, run_bench)


def tiny_config(outdir, oracle, seeds=(0, 1)):
    return ExperimentConfig(
        dims=[6], oracle=oracle, solvers=[{"kind": "acsmd"}, {"kind": "smd"}],
        T=50, seeds=list(seeds), target_precision=1e-2, noise_sigma=0.2,
        output_dir=str(outdir), reference_budget=10_000)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = BenchReport(config=cfg, cells=cells, F_ref={6: 0.0}).finalize()
    s = report.summaries[(6, "acsmd_n1")]
    assert (s["p10_iterations"], s["median_iterations"]) == (10, 30)
    assert s["p90_iterations"] == math.inf
    _write_report_files(report, tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "30 [10, 2/3 reached]" in summary
    assert "0/3 reached [0/3 reached, 0/3 reached]" in summary


def test_build_oracle_rejects_unknown_keys():
    with pytest.raises(ValueError, match="eig_tol"):
        build_oracle({"kind": "smoothing", "k": 1, "eig_tol": 1e-8})
    with pytest.raises(ValueError, match="'p'"):
        build_oracle({"kind": "exact", "p": 3})
    assert build_oracle({"kind": "smoothing", "k": 2}).k == 2


@pytest.mark.parametrize("solver, message", [
    ({"kind": "lan"}, "no theory value for 'L'"),
    ({"kind": "bogus"}, "unknown solver kind"),
])
def test_bad_solver_spec_fails_before_any_reference_run(tmp_path, monkeypatch,
                                                        solver, message):
    def no_reference_run(*args, **kwargs):
        raise AssertionError("reference run started before config validation")

    monkeypatch.setattr(harness, "reference_run", no_reference_run)
    cfg = tiny_config(tmp_path / "out", {"kind": "exact"})
    cfg.solvers = [{"kind": "acsmd"}, solver]
    with pytest.raises(ValueError, match=message):
        run_bench(cfg)
    assert not (tmp_path / "out").exists()
