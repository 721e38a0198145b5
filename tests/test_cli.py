import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import asymmetric_instance
import specmd
from specmd import cli
from specmd.cli import main
from specmd.harness import ExperimentConfig, read_trace, theory_parameters
from specmd.oracles import ExactOracleConfig
from specmd.problem import load_instance, make_problem
from specmd.solvers import (StepSchedule, lan_acsa, levy_adaptive,
                            oblivious_acsmd, oblivious_smd, relative_md)

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


def test_run_echoes_its_instance_files_header(tmp_path, instance):
    out = tmp_path / "trace.csv"
    assert main(["run", "--instance", str(instance), "--solver", "acsmd",
                 "--oracle", "exact", "--T", "5", "--out", str(out)]) == 0
    _, meta = load_instance(instance)
    assert read_trace(out).config_echo["instance"] == meta


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
    ("levy:D=abc", "solver option D must be positive and finite, got 'abc'"),
    ("lan:L=40,sigma=1", "solver option 'sigma' is unknown for lan"),
    ("lan:L=0", "solver option L must be positive and finite, got 0"),
    # the solvers' own checks, word for word
    ("levy:M=nan", "solver option M must be nonnegative and finite, got nan"),
    ("relative:Lstar=10,Gamma=inf",
     "solver option Gamma must be positive and finite, got inf"),
    ("acsmd:degree=true",
     "solver option degree must be an integer >= 0, got True"),
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
    (("--T", "0"), "T must be an integer >= 1, got 0"),
    (("--T", "-3"), "T must be an integer >= 1, got -3"),
    (("--T", "0", "--mu", "0.1"), "T must be an integer >= 1, got 0"),
    (("--target", "0", "--f-ref", "0.1"),
     "target must be positive and finite, got 0"),
    (("--target", "-0.01"), "target must be positive and finite, got -0.01"),
    (("--target", "nan", "--f-ref", "0.1"),
     "target must be positive and finite, got nan"),
    (("--target", "inf", "--f-ref", "0.1"),
     "target must be positive and finite, got inf"),
    (("--mu", "nan"), "mu must be positive and finite, got nan"),
    (("--mu", "inf"), "mu must be positive and finite, got inf"),
    (("--mu", "0"), "mu must be positive and finite, got 0"),
    (("--seed", "-1"), "seed must be an integer >= 0, got -1"),
    (("--f-ref", "nan"), "f-ref must be finite, got nan"),
    (("--f-ref", "inf"), "f-ref must be finite, got inf"),
    # negative numbers in every float form reach these checks, not argparse
    (("--f-ref", "-inf"), "f-ref must be finite, got -inf"),
    (("--mu", "-1e-3"), "mu must be positive and finite, got -0.001"),
    (("--target", "-1e-3"), "target must be positive and finite, got -0.001"),
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
             "T must be an integer >= 1, got 'abc'"),
            (full.replace("T: 20", "T: 1.5"),
             "T must be an integer >= 1, got 1.5"),
            # YAML 1.1's sexagesimal, hex, yes/no and date spellings are
            # text
            (full.replace("T: 20", "T: 1:30"),
             "T must be an integer >= 1, got '1:30'"),
            (full.replace("T: 20", "T: 2001-12-14"),
             "T must be an integer >= 1, got '2001-12-14'"),
            (full + "instance_seed: 0x10\n",
             "instance_seed must be an integer >= 0, got '0x10'"),
            (full.replace("{kind: acsmd}", "{kind: levy, tuned: yes}"),
             "solver option tuned must be true or false, got 'yes'"),
            (full.replace("dims: [6]", "dims: 6"),
             "dims must be a nonempty list, got 6"),
            (full.replace("0.01", "abc"),
             "target_precision must be positive and finite, got 'abc'"),
            (full.replace("noise_sigma: 0.2", "noise_sigma: abc"),
             "noise_sigma must be nonnegative and finite, got 'abc'"),
            (full.replace("noise_sigma: 0.2", "noise_sigma: -1"),
             "noise_sigma must be nonnegative and finite, got -1"),
            (full + "eval_stride: 1\n",
             f"unknown key 'eval_stride' in campaign config {config}"),
            (full + "hyper_tuned: true\n",
             f"unknown key 'hyper_tuned' in campaign config {config}"),
            (full.replace("{kind: exact}", "exact"),
             "oracle must be a nonempty mapping, got 'exact'"),
            (full + "reference_budget: 0\n",
             "reference_budget must be an integer >= 1, got 0"),
            (full.replace("seeds: [0]", "seeds: [-1, 2]"),
             "seeds must be an integer >= 0, got -1"),
            # every cell is distinct: no repeated dim or seed, and each
            # solver label a plain word naming one spec
            (full.replace("dims: [6]", "dims: [6, 6]"),
             "dims must not repeat, got [6, 6]"),
            (full.replace("seeds: [0]", "seeds: [0, 0]"),
             "seeds must not repeat, got [0, 0]"),
            (full.replace("{kind: acsmd}", "{kind: smd}, {kind: smd, degree: 1}"),
             "solver label 'smd_n1' names more than one solver spec; give "
             "each a distinct name"),
            *((full.replace("{kind: acsmd}", f"{{kind: acsmd, name: {name}}}"),
               "solver name must be a nonempty string without ',', '/' or "
               f"whitespace, got {got}")
              for name, got in (("'a,b'", "'a,b'"), ("a/b", "'a/b'"),
                                ("a b", "'a b'"), ("''", "''"), ("3", "3"))),
            (full.replace("{kind: acsmd}", "{kind: acsmd}, {kind: levy, "
                          "name: acsmd_n1}"),
             "solver label 'acsmd_n1' names more than one solver spec; give "
             "each a distinct name"),
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
             "oracle option epsilon must be positive and finite, got '.inf'"),
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
             "solver option D must be positive and finite, got 'abc'"),
            (full.replace("{kind: acsmd}", "{kind: levy, M: [1]}"),
             "solver option M must be nonnegative and finite, got [1]"),
            # constants in range once resolved, before any anchor run too
            (full.replace("{kind: acsmd}", "{kind: levy, D: -1}"),
             "solver option D must be positive and finite, got -1"),
            (full.replace("{kind: acsmd}", "{kind: levy, M: -1}"),
             "solver option M must be nonnegative and finite, got -1"),
            (full.replace("{kind: acsmd}", "{kind: lan, L: 0}"),
             "solver option L must be positive and finite, got 0"),
            (full.replace("{kind: acsmd}", "{kind: relative, Lstar: 0}"),
             "solver option Lstar must be positive and finite, got 0")):
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
        f"got {sigma}"]
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
        "specmd: error: seed must be an integer >= 0, got -2"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rho", ["nan", "inf", "-1"])
def test_bad_box_radius_exits_2_with_one_line(tmp_path, instance, rho):
    bad = tmp_path / "bad.txt"
    bad.write_text(re.sub(r"^rho \S+$", f"rho {rho}", instance.read_text(),
                          flags=re.MULTILINE))
    out = tmp_path / "o.csv"
    # refused as the header is read, by rho's rule, naming the file and key
    message = f"{bad}: rho must be positive and finite, got {rho}"
    for args in (("run", "--instance", str(bad), "--solver", "acsmd",
                  "--oracle", "exact", "--out", str(out)),
                 ("reference", "--instance", str(bad))):
        done = run_cli(*args)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"specmd: error: {message}"]
        assert done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("seed 1.5", "seed must be an integer >= 0, got 1.5"),
    ("noise_sigma nan", "noise_sigma must be nonnegative and finite, got nan"),
    ("d x", "d must be an integer >= 1, got 'x'"),
], ids=["seed", "noise_sigma", "d"])
def test_bad_instance_header_exits_2_and_writes_nothing(tmp_path, instance,
                                                         line, message):
    key = line.split()[0]
    bad = tmp_path / "bad.txt"
    bad.write_text(re.sub(rf"^{key} \S+$", line, instance.read_text(),
                          flags=re.MULTILINE))
    out = tmp_path / "o.csv"
    for args in (("run", "--instance", str(bad), "--solver", "acsmd",
                  "--oracle", "exact", "--T", "20", "--out", str(out)),
                 ("reference", "--instance", str(bad), "--out", str(out))):
        done = run_cli(*args)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"specmd: error: {bad}: {message}"]
        assert done.stdout == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "bad.txt", "inst.txt"]


def test_theory_in_another_casing_is_refused_as_a_campaign_refuses_it(
        tmp_path, instance):
    # "theory" is matched exactly, on the command line as in a YAML file
    message = ("specmd: error: solver option L must be positive and finite, "
               "got 'THEORY'")
    out = tmp_path / "o.csv"
    done = run_cli("run", "--instance", str(instance), "--solver",
                   "lan:L=THEORY", "--oracle", "smoothing", "--T", "20",
                   "--out", str(out))
    assert (done.returncode, done.stderr.splitlines()) == (2, [message])
    assert not out.exists()
    config = tmp_path / "campaign.yaml"
    config.write_text("dims: [6]\noracle: {kind: smoothing}\n"
                      "solvers: [{kind: lan, L: THEORY}]\nT: 20\n"
                      "seeds: [0]\ntarget_precision: 0.01\n"
                      f"noise_sigma: 0.2\noutput_dir: {tmp_path / 'out'}\n")
    done = run_cli("bench", "--config", str(config))
    assert (done.returncode, done.stderr.splitlines()) == (2, [message])
    assert not (tmp_path / "out").exists()


def test_the_installed_script_names_main():
    # pyproject.toml read as text: tomllib is not in Python 3.10
    text = (Path(SRC).parent / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert section, "pyproject.toml has no [project.scripts] table"
    entries = re.findall(r'^(\S+)\s*=\s*"([^"]+)"', section.group(1),
                         re.MULTILINE)
    assert entries == [("specmd", "specmd.cli:main")]
    module, _, attr = entries[0][1].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_negative_f_ref_in_exponent_form_runs(tmp_path, instance, capsys):
    out = tmp_path / "o.csv"
    assert main(["run", "--instance", str(instance), "--solver", "acsmd",
                 "--oracle", "exact", "--T", "20", "--f-ref", "-1e-3",
                 "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.endswith(", iterations to 0.01: exceeded"), line


def test_reference_budget_defaults_to_the_campaigns(instance, monkeypatch,
                                                     capsys):
    budgets = []

    def fake_reference_run(box, mu, budget, tol):
        budgets.append(budget)
        return 1.0, 0.0, None, type("Trace", (), {"t": [budget]})

    monkeypatch.setattr(cli, "reference_run", fake_reference_run)
    assert main(["reference", "--instance", str(instance)]) == 0
    assert budgets == [ExperimentConfig.reference_budget]
    assert capsys.readouterr().out.strip().endswith(
        f"after {ExperimentConfig.reference_budget} iterations")


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
    assert float(found.group(1)) == trace.F_ag.min()
    assert int(found.group(3)) == trace.t[-1]

    assert main(["reference", "--instance", str(instance), "--budget",
                 "40"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.endswith("after 40 iterations (uncertified; raise --budget)"), line


@pytest.mark.parametrize("args, message", [
    (("generate", "--dim", "0"), "dim must be an integer >= 1, got 0"),
    (("reference", "--budget", "0"), "budget must be an integer >= 1, got 0"),
], ids=["generate", "reference"])
def test_generate_and_reference_name_their_flag(tmp_path, instance, args,
                                                message):
    out = tmp_path / "o.txt"
    extra = ("--instance", str(instance)) if args[0] == "reference" else ()
    done = run_cli(*args, *extra, "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"specmd: error: {message}"]
    assert done.stdout == ""
    assert not out.exists()


def test_asymmetric_instance_exits_2_with_one_line(tmp_path):
    # the file was averaged into a symmetric matrix and run with exit 0
    bad = asymmetric_instance(tmp_path / "bad.txt")
    out = tmp_path / "o.csv"
    for args in (("run", "--instance", str(bad), "--solver", "acsmd",
                  "--oracle", "exact", "--out", str(out)),
                 ("reference", "--instance", str(bad), "--out", str(out))):
        done = run_cli(*args)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"specmd: error: {bad}: entries are not exactly symmetric"]
        assert done.stdout == ""
        assert not out.exists()


def _refusal(call):
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("T, seed, line", [
    (0, 0, "T must be an integer >= 1, got 0"),
    (20, -1, "seed must be an integer >= 0, got -1")])
def test_one_bad_value_gives_one_line_on_every_path(tmp_path, instance, capsys,
                                                    T, seed, line):
    # one rule, one line: through make_problem, each public solver, a
    # campaign config, `specmd run` and a campaign file; a campaign names
    # its field, seeds
    box, _ = load_instance(instance)
    prob = make_problem(box, ExactOracleConfig(), mu=0.1)
    fields = {"dims": [6], "oracle": {"kind": "exact"},
              "solvers": [{"kind": "acsmd"}], "T": T, "seeds": [seed],
              "target_precision": 0.01, "noise_sigma": 0.2,
              "output_dir": str(tmp_path / "out")}
    config = tmp_path / "campaign.yaml"
    config.write_text("".join(f"{key}: {value}\n"
                              for key, value in fields.items()))
    direct = [_refusal(lambda: solver(prob, *params, T, seed))
              for solver, params in (
                  (oblivious_smd, (StepSchedule(),)),
                  (oblivious_acsmd, (StepSchedule(),)),
                  (levy_adaptive, (1.0, 1.0)), (lan_acsa, (40.0,)),
                  (relative_md, (10.0, 0.01)))]
    if T == 0:
        direct.append(_refusal(
            lambda: make_problem(box, ExactOracleConfig(), T=T)))
    assert direct == [line] * len(direct)
    assert main(["run", "--instance", str(instance), "--solver", "acsmd",
                 "--T", str(T), "--seed", str(seed),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"specmd: error: {line}\n"
    campaign = line.replace("seed ", "seeds ")
    assert _refusal(lambda: ExperimentConfig(**fields)) == campaign
    assert main(["bench", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"specmd: error: {campaign}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "campaign.yaml", "inst.txt"]


# each number flag with its _check rule and the name its message gives
NUMBER_FLAGS = [
    ("generate", "--dim", "dim", "an integer >= 1"),
    ("generate", "--noise-sigma", "noise_sigma", "nonnegative and finite"),
    ("generate", "--seed", "seed", "an integer >= 0"),
    ("run", "--T", "T", "an integer >= 1"),
    ("run", "--mu", "mu", "positive and finite"),
    ("run", "--seed", "seed", "an integer >= 0"),
    ("run", "--f-ref", "f-ref", "finite"),
    ("run", "--target", "target", "positive and finite"),
    ("reference", "--budget", "budget", "an integer >= 1"),
]


@pytest.mark.parametrize("command, flag, name, need, text, shown", [
    (*case, text, shown) for case in NUMBER_FLAGS
    for text, shown in [("x", "'x'")]
    + [("1.5", "1.5")] * case[3].startswith("an integer")])
def test_a_bad_number_flag_is_one_line_not_a_usage_dump(
        tmp_path, instance, capsys, command, flag, name, need, text, shown):
    # argparse's int and float printed a usage block and "invalid int
    # value"; every flag now reaches the rule that guards it
    args = {"generate": ["--dim", "4"],
            "run": ["--instance", str(instance), "--solver", "acsmd",
                    "--oracle", "exact", "--T", "5"],
            "reference": ["--instance", str(instance)]}[command]
    before = sorted(tmp_path.iterdir())
    assert main([command, *args, flag, text,
                 "--out", str(tmp_path / "o.txt")]) == 2
    out = capsys.readouterr()
    assert out.err.splitlines() == [
        f"specmd: error: {name} must be {need}, got {shown}"]
    assert out.out == ""
    assert sorted(tmp_path.iterdir()) == before


# edits of the body lines of a d = 6 instance (lines[5] is body row 1, file
# line 6): a short row, an entry that is no number, every row short, which
# loadtxt reads as a 6 x 5 body, and a nan entry, which loadtxt reads and
# SymMatrix refuses
BAD_BODIES = {
    "short row": (slice(6, 7), lambda line: line.rsplit(" ", 1)[0] + "\n",
                  "line 7: the number of columns changed from 6 to 5"),
    "bad entry": (slice(5, 6), lambda line: "x.0 " + line.split(" ", 1)[1],
                  "line 6: could not convert string 'x.0' to float64 at "
                  "column 1"),
    # a bad entry names its line as a short row does
    "bad entry in row 2": (slice(6, 7),
                           lambda line: "x.0 " + line.split(" ", 1)[1],
                           "line 7: could not convert string 'x.0' to "
                           "float64 at column 1"),
    "all rows short": (slice(5, None),
                       lambda line: line.rsplit(" ", 1)[0] + "\n",
                       "instance body has shape (6, 5), expected (6, 6)"),
    "nan entry": (slice(5, 6), lambda line: "nan " + line.split(" ", 1)[1],
                  "entries are not finite"),
}


@pytest.mark.parametrize("case", BAD_BODIES)
def test_a_bad_instance_body_is_one_line_naming_file_and_row(
        tmp_path, instance, capsys, case):
    # the float() loop and np.vstack named neither the file nor the row
    rows, edit, detail = BAD_BODIES[case]
    lines = instance.read_text().splitlines(keepends=True)
    lines[rows] = map(edit, lines[rows])
    instance.write_text("".join(lines))
    message = _refusal(lambda: load_instance(instance))
    assert message == f"{instance}: {detail}"
    out = tmp_path / "o.csv"
    assert main(["run", "--instance", str(instance), "--solver", "acsmd",
                 "--oracle", "exact", "--T", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"specmd: error: {message}\n"
    assert not out.exists()
