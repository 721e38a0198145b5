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
