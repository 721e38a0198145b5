import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import specmd
from specmd import cli
from specmd.cli import main
from specmd.harness import read_trace, theory_parameters
from specmd.oracles import ExactOracleConfig
from specmd.problem import load_instance

SRC = str(Path(specmd.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "specmd.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "inst.txt"
    assert main(["generate", "--dim", "6", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_generate_and_run_round_trip(tmp_path, instance, capsys):
    out = tmp_path / "trace.csv"
    status = main(["run", "--instance", str(instance), "--solver", "acsmd",
                   "--oracle", "power:p=5", "--T", "30", "--out", str(out)])
    assert status == 0
    trace = read_trace(out)
    assert trace.config_echo["oracle"] == {"kind": "power", "p": 5,
                                           "square_input": True}
    assert trace.config_echo["instance"]["d"] == 6
    assert trace.t[-1] == 30
    assert "trace written to" in capsys.readouterr().out


@pytest.mark.parametrize("solver, message", [
    ("lan:L=theory", "no theory value for 'L' with this oracle; give a number"),
    ("bogus", "unknown solver kind: bogus"),
    ("acsmd:degre=2", "solver option 'degre' is unknown for acsmd"),
    ("acsmd:degree=1.7", "solver option degree must be an integer >= 0, got 1.7"),
    ("smd:scale=2", "solver option 'scale' is unknown for smd"),
    ("smd:tuned=true", "solver option 'tuned' is unknown for smd"),
    ("levy:tuned=no", "solver option tuned must be true or false, got 'no'"),
    ("levy:D=abc",
     "solver option D must be a finite number or 'theory', got 'abc'"),
    ("lan:L=40,sigma=1", "solver option 'sigma' is unknown for lan"),
    ("lan:L=0", "solver option L must be positive, got 0.0"),
])
def test_bad_solver_spec_exits_2_with_one_line(tmp_path, instance, solver, message):
    out = tmp_path / "o.csv"
    done = run_cli("run", "--instance", str(instance), "--solver", solver,
                   "--oracle", "exact", "--T", "20", "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"specmd: error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("solver, key", [
    ("levy:M=theory", "M"),
    ("relative:Lstar=10,Gamma=theory,tuned=true", "Gamma"),
])
def test_theory_is_accepted_for_every_baseline_constant(tmp_path, instance,
                                                        solver, key):
    out = tmp_path / "o.csv"
    assert main(["run", "--instance", str(instance), "--solver", solver,
                 "--oracle", "exact", "--T", "20", "--out", str(out)]) == 0
    box, _ = load_instance(instance)
    # untuned, even with tuned=true
    theory = theory_parameters(box, ExactOracleConfig(), 20)
    assert read_trace(out).config_echo[key] == theory[key]


@pytest.mark.parametrize("oracle, message", [
    ("power:p=1.5", "p must be an integer >= 1, got 1.5"),
    ("smoothing:k=2.0", "k must be an integer >= 1, got 2.0"),
    ("smoothing:epsilon=abc", "epsilon must be positive and finite, got 'abc'"),
    ("power:square_input=1", "square_input must be true or false, got 1"),
])
def test_bad_oracle_option_exits_2_with_one_line(tmp_path, instance, oracle,
                                                 message):
    out = tmp_path / "o.csv"
    done = run_cli("run", "--instance", str(instance), "--solver", "acsmd",
                   "--oracle", oracle, "--T", "20", "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"specmd: error: oracle option {message}"]
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--T", "0"), "T must be >= 1"),
    (("--T", "-3"), "T must be >= 1"),
    (("--T", "0", "--mu", "0.1"), "T must be >= 1"),
    (("--target", "0", "--f-ref", "0.1"),
     "target must be positive and finite, got 0.0"),
    (("--target", "-0.01"), "target must be positive and finite, got -0.01"),
    (("--target", "nan", "--f-ref", "0.1"),
     "target must be positive and finite, got nan"),
    (("--target", "inf", "--f-ref", "0.1"),
     "target must be positive and finite, got inf"),
    (("--mu", "nan"), "mu must be positive and finite, got nan"),
    (("--mu", "inf"), "mu must be positive and finite, got inf"),
    (("--mu", "0"), "mu must be positive and finite, got 0.0"),
    (("--seed", "-1"), "seed must be >= 0, got -1"),
])
def test_bad_number_exits_2_with_one_line_before_the_run(tmp_path, instance,
                                                         args, message):
    out = tmp_path / "o.csv"
    done = run_cli("run", "--instance", str(instance), "--solver", "acsmd",
                   "--oracle", "exact", "--out", str(out), *args)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"specmd: error: {message}"]
    assert done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("run", "--instance", "nosuch.txt", "--solver", "acsmd", "--out", "o.csv"),
    ("reference", "--instance", "nosuch.txt"),
    ("bench", "--config", "nosuch.yaml"),
], ids=["run", "reference", "bench"])
def test_missing_input_file_exits_2_with_one_line(tmp_path, args):
    done = run_cli(*args, cwd=tmp_path)
    assert done.returncode == 2
    name = args[2]
    assert done.stderr.splitlines() == [
        f"specmd: error: [Errno 2] No such file or directory: '{name}'"]
    assert list(tmp_path.iterdir()) == []


def test_unknown_campaign_key_exits_2_with_one_line(tmp_path):
    outdir = tmp_path / "campaign"
    config = tmp_path / "campaign.yaml"
    head = "dims: [6]\noracle: {kind: exact}\n"
    full = (head +
            "solvers: [{kind: acsmd}]\n"
            "T: 20\n"
            "seeds: [0]\n"
            "target_precision: 0.01\n"
            "noise_sigma: 0.2\n"
            f"output_dir: {outdir}\n")
    # an unknown key, an empty file, a top-level list, a missing required
    # key, and values of the wrong type or out of range
    for text, message in (
            (full + "bogus_key: 1\n",
             f"unknown key 'bogus_key' in campaign config {config}"),
            ("", f"campaign config {config} is not a mapping"),
            ("- 1\n- 2\n", f"campaign config {config} is not a mapping"),
            (head + f"output_dir: {outdir}\n",
             f"missing key 'solvers' in campaign config {config}"),
            (full.replace("T: 20", "T: abc"),
             "T must be an integer, got 'abc'"),
            (full.replace("T: 20", "T: 1.5"), "T must be an integer, got 1.5"),
            (full.replace("dims: [6]", "dims: 6"),
             "dims must be a list of integers, got 6"),
            (full.replace("0.01", "abc"),
             "target_precision must be a number, got 'abc'"),
            (full.replace("noise_sigma: 0.2", "noise_sigma: abc"),
             "noise_sigma must be a number, got 'abc'"),
            (full.replace("noise_sigma: 0.2", "noise_sigma: -1"),
             "noise_sigma must be nonnegative and finite, got -1"),
            (full + "eval_stride: 1.5\n",
             "eval_stride must be an integer or null, got 1.5"),
            (full + "eval_stride: 0\n", "eval_stride must be >= 1, got 0"),
            (full + "hyper_tuned: true\n",
             f"unknown key 'hyper_tuned' in campaign config {config}"),
            (full.replace("{kind: exact}", "exact"),
             "oracle must be a mapping, got 'exact'"),
            (full + "reference_budget: 0\n",
             "reference_budget must be >= 1, got 0"),
            (full.replace("seeds: [0]", "seeds: [-1, 2]"),
             "seeds must be a nonempty list of nonnegative integers, "
             "got [-1, 2]"),
            # options inside the oracle mapping, checked before any output
            # directory or anchor run
            (full.replace("{kind: exact}", "{kind: smoothing, k: abc}"),
             "oracle option k must be an integer >= 1, got 'abc'"),
            (full.replace("{kind: exact}", "{kind: smoothing, k: 2.0}"),
             "oracle option k must be an integer >= 1, got 2.0"),
            (full.replace("{kind: exact}", "{kind: smoothing, k: true}"),
             "oracle option k must be an integer >= 1, got True"),
            (full.replace("{kind: exact}", "{kind: smoothing, epsilon: abc}"),
             "oracle option epsilon must be positive and finite, got 'abc'"),
            (full.replace("{kind: exact}", "{kind: smoothing, epsilon: .inf}"),
             "oracle option epsilon must be positive and finite, got inf"),
            (full.replace("{kind: exact}", "{kind: power, p: 1.5}"),
             "oracle option p must be an integer >= 1, got 1.5"),
            (full.replace("{kind: exact}", "{kind: power, square_input: 1}"),
             "oracle option square_input must be true or false, got 1"),
            # solver options, checked before any output directory or anchor
            # run as well
            (full.replace("{kind: acsmd}", "{kind: acsmd, degre: 2}"),
             "solver option 'degre' is unknown for acsmd"),
            (full.replace("{kind: acsmd}", "{kind: acsmd, degree: 1.7}"),
             "solver option degree must be an integer >= 0, got 1.7"),
            (full.replace("{kind: acsmd}", "{kind: acsmd, degree: true}"),
             "solver option degree must be an integer >= 0, got True"),
            (full.replace("{kind: acsmd}", "{kind: smd, scale: .nan}"),
             "solver option 'scale' is unknown for smd"),
            (full.replace("{kind: acsmd}", "{kind: lan, L: 40, sigma: 1}"),
             "solver option 'sigma' is unknown for lan"),
            (full.replace("{kind: acsmd}", '{kind: levy, tuned: "false"}'),
             "solver option tuned must be true or false, got 'false'"),
            (full.replace("{kind: acsmd}", "{kind: levy, D: abc}"),
             "solver option D must be a finite number or 'theory', got 'abc'"),
            (full.replace("{kind: acsmd}", "{kind: levy, M: [1]}"),
             "solver option M must be a finite number or 'theory', got [1]"),
            # constants in range once resolved, before any anchor run too
            (full.replace("{kind: acsmd}", "{kind: levy, D: -1}"),
             "solver option D must be positive, got -1.0"),
            (full.replace("{kind: acsmd}", "{kind: levy, M: -1}"),
             "solver option M must be nonnegative, got -1.0"),
            (full.replace("{kind: acsmd}", "{kind: lan, L: 0}"),
             "solver option L must be positive, got 0.0"),
            (full.replace("{kind: acsmd}", "{kind: relative, Lstar: 0}"),
             "solver option Lstar must be positive, got 0.0")):
        config.write_text(text)
        done = run_cli("bench", "--config", str(config))
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"specmd: error: {message}"]
        assert not outdir.exists()


def test_failed_cells_are_named_on_stderr_and_exit_1(tmp_path):
    # the unsquared power oracle needs <X^3 u, u> > 0, and at this instance's
    # center the draws of seeds 0 and 1 miss it: every cell fails at t = 1
    outdir = tmp_path / "campaign"
    config = tmp_path / "campaign.yaml"
    config.write_text("dims: [12]\n"
                      "oracle: {kind: power, p: 3, square_input: false}\n"
                      "solvers: [{kind: acsmd}, {kind: levy}]\n"
                      "T: 20\n"
                      "seeds: [0, 1]\n"
                      "target_precision: 0.01\n"
                      "noise_sigma: 0.2\n"
                      f"output_dir: {outdir}\n")
    done = run_cli("bench", "--config", str(config))
    assert done.returncode == 1
    cells = [(solver, seed) for solver in ("acsmd_n1", "levy") for seed in (0, 1)]
    lines = done.stderr.splitlines()
    assert len(lines) == len(cells)
    for line, (solver, seed) in zip(lines, cells):
        assert re.fullmatch(
            rf"d=12 {solver} seed {seed}: oracle failed at iteration 1: "
            r"<X\^n u, u> = \S+ is not positive for the sampled direction",
            line), line
    assert done.stdout == (outdir / "summary.txt").read_text()
    # a failed cell is told apart from a run that missed the target
    assert "0/2 reached, 2 failed [0/2 reached, 2 failed, 0/2 reached, " \
        "2 failed]" in done.stdout


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_generate_rejects_a_bad_noise_level_in_one_line(tmp_path, sigma):
    out = tmp_path / "inst.txt"
    done = run_cli("generate", "--dim", "4", "--noise-sigma", sigma,
                   "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "specmd: error: noise_sigma must be nonnegative and finite, "
        f"got {float(sigma)!r}"]
    assert not out.exists()


def test_run_and_reference_check_the_output_directory_first(
        tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("work started before the --out check")

    for name in ("load_instance", "run_solver_spec", "reference_run"):
        monkeypatch.setattr(cli, name, never)
    out = tmp_path / "missing" / "o.csv"
    message = f"specmd: error: output directory {out.parent} does not exist"
    for args in (("run", "--instance", "nosuch.txt", "--solver", "acsmd",
                  "--out", str(out)),
                 ("reference", "--instance", "nosuch.txt", "--out", str(out))):
        assert main(list(args)) == 2
        assert capsys.readouterr().err.splitlines() == [message]
    # a negative --seed is refused before the instance is read as well
    assert main(["run", "--instance", "nosuch.txt", "--solver", "acsmd",
                 "--seed", "-2", "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "specmd: error: seed must be >= 0, got -2"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rho", ["nan", "inf", "-1"])
def test_bad_box_radius_exits_2_with_one_line(tmp_path, instance, rho):
    bad = tmp_path / "bad.txt"
    bad.write_text(re.sub(r"^rho \S+$", f"rho {rho}", instance.read_text(),
                          flags=re.MULTILINE))
    out = tmp_path / "o.csv"
    message = f"radius must be positive and finite, got {float(rho)!r}"
    for args in (("run", "--instance", str(bad), "--solver", "acsmd",
                  "--oracle", "exact", "--out", str(out)),
                 ("reference", "--instance", str(bad))):
        done = run_cli(*args)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"specmd: error: {message}"]
        assert done.stdout == ""
    assert not out.exists()


def test_reference_prints_certified_anchor(tmp_path, instance, capsys):
    out = tmp_path / "ref.csv"
    assert main(["reference", "--instance", str(instance), "--out",
                 str(out)]) == 0
    line = capsys.readouterr().out.strip()
    found = re.fullmatch(r"F_ref = (\S+), certified gap (\S+) after "
                         r"(\d+) iterations", line)
    assert found, line
    assert 0.0 <= float(found.group(2)) <= 1e-3
    trace = read_trace(out)
    assert float(found.group(1)) == trace.best_F_ag
    assert int(found.group(3)) == trace.t[-1]

    assert main(["reference", "--instance", str(instance), "--budget",
                 "40"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.endswith("after 40 iterations (uncertified; raise --budget)"), line
    done = run_cli("reference", "--instance", str(instance), "--budget", "0")
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "specmd: error: reference budget must be >= 1, got 0"]
