"""Environment block printed with every benchmark result."""

import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(count: int) -> None:
    """Fix the BLAS thread count; only effective before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(count)


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def src_line_count(root: Path) -> int:
    """Lines of the package sources under src/ (ROADMAP tracks it with the bench)."""
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "python_optimize": sys.flags.optimize,
        "src_lines": src_line_count(root),
        "seed": seed,
        "git_commit": git_commit(root),
        "processes": 1,
    }
