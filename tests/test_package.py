import os
import subprocess
import sys
from pathlib import Path

import specmd

DELETED = ("GradSample", "power_value_grad", "sym_identity", "sym_zeros",
           "eval_Psi", "resolve_oracle", "schedule_at", "mat_power_apply")


def test_every_exported_name_resolves():
    missing = [name for name in specmd.__all__ if not hasattr(specmd, name)]
    assert missing == []
    assert len(set(specmd.__all__)) == len(specmd.__all__)


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in specmd.__all__
        assert not hasattr(specmd, name)


def test_import_loads_no_scipy():
    # the LAPACK binding comes from numpy's own library: scipy.linalg would
    # add hundreds of milliseconds and tens of MB to every start-up
    code = ("import sys, specmd; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(specmd.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"
