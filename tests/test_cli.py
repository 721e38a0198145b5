import os
import subprocess
import sys
from pathlib import Path

import pytest

import specmd
from specmd.cli import main
from specmd.harness import read_trace

SRC = str(Path(specmd.__file__).resolve().parents[1])


def run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "specmd.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


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
])
def test_bad_solver_spec_exits_2_with_one_line(tmp_path, instance, solver, message):
    out = tmp_path / "o.csv"
    done = run_cli("run", "--instance", str(instance), "--solver", solver,
                   "--oracle", "exact", "--T", "20", "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"specmd: error: {message}"]
    assert not out.exists()


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
    # an unknown key, an empty file, a top-level list, a missing required key
    for text, message in (
            (full + "bogus_key: 1\n",
             f"unknown key 'bogus_key' in campaign config {config}"),
            ("", f"campaign config {config} is not a mapping"),
            ("- 1\n- 2\n", f"campaign config {config} is not a mapping"),
            (head + f"output_dir: {outdir}\n",
             f"missing key 'solvers' in campaign config {config}")):
        config.write_text(text)
        done = run_cli("bench", "--config", str(config))
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"specmd: error: {message}"]
        assert not outdir.exists()
