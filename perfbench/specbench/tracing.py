"""Per-layer spans taken from outside specmd.

Each public function is wrapped at the name where its caller looks it up
(a module global), so the package runs unchanged and the untraced run
installs nothing. A wrapper records one span (name, start, end, parent) in
flat in-memory arrays; self time is a span's duration minus the durations
of its direct children.

Spans opened inside `harness.reference_run` (its stage-1 solver run and that
run's oracle, prox and evaluation calls) are booked under the harness layer
as `harness.reference_run.<name>`, so the solver, oracle and problem rows
count only the campaign's own cells.
"""

import importlib
import os
import time
from array import array

import numpy as np

SOLVERS = ("oblivious_smd", "oblivious_acsmd", "levy_adaptive", "lan_acsa",
           "relative_md")

# (module, attribute looked up by the caller, span name)
TARGETS = (
    ("specmd.oracles", "leading_eigpair", "linalg.leading_eigpair"),
    ("specmd.problem", "full_spectrum", "linalg.full_spectrum"),
    ("specmd.oracles", "smoothing_grad", "oracles.smoothing_grad"),
    ("specmd.oracles", "power_grad", "oracles.power_grad"),
    ("specmd.oracles", "exact_subgrad", "oracles.exact_subgrad"),
    ("specmd.solvers", "prox_step", "problem.prox_step"),
    ("specmd.solvers", "project_box", "problem.project_box"),
    ("specmd.solvers", "eval_F", "problem.eval_F"),
    # eval_Psi evaluates F again through the problem module's own global
    ("specmd.problem", "eval_F", "problem.eval_F"),
    ("specmd.harness", "reference_run", "harness.reference_run"),
    # the polish stage of reference_run draws exact subgradients here
    ("specmd.harness", "exact_subgrad", "harness.reference_polish"),
    ("specmd.harness", "write_trace", "harness.write_trace"),
    ("specmd.harness", "run_bench", "harness.report"),
) + tuple(("specmd.harness", name, f"solvers.{name}") for name in SOLVERS)

SYMMATRIX_SPAN = "linalg.SymMatrix"
SPAN_NAMES = {span for *_, span in TARGETS} | {SYMMATRIX_SPAN}
REFERENCE_SPAN = "harness.reference_run"
# the polish stage's exact_subgrad calls keep their own harness row
UNSCOPED = ("harness.reference_polish",)


class SpanRecorder:
    """Flat span store: name id, start, end and parent index per span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._in_reference = 0
        self.counts = {}

    def open(self, name: str) -> int:
        if self._in_reference and name not in UNSCOPED:
            name = f"{REFERENCE_SPAN}.{name}"
        if name == REFERENCE_SPAN:
            self._in_reference += 1
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if self.name_of(idx) == REFERENCE_SPAN:
            self._in_reference -= 1

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def __len__(self):
        return len(self.start)

    def summary(self) -> dict:
        """name -> {"n", "s", "self_s"} over every closed span."""
        if not len(self):
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        k = len(self.names)
        n = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {name: {"n": int(n[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}


def _wrap(rec: SpanRecorder, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            rec.count(f"{rec.name_of(idx)}.raised.{type(err).__name__}")
            raise
        finally:
            rec.close(idx)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _wrap_write_trace(rec: SpanRecorder, fn):
    inner = _wrap(rec, "harness.write_trace", fn)

    def wrapper(path, trace):
        inner(path, trace)
        rec.count("harness.write_trace.bytes", os.path.getsize(path))

    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Installs the span wrappers; `with Tracer(rec):` restores every original."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        from specmd.linalg import SymMatrix
        try:
            for modname, attr, span in TARGETS:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
                if hasattr(original, "__wrapped__"):
                    raise RuntimeError(f"{modname}.{attr} is already wrapped")
                if attr == "write_trace":
                    wrapped = _wrap_write_trace(self.recorder, original)
                else:
                    wrapped = _wrap(self.recorder, span, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped)
            original = SymMatrix.__post_init__
            self._saved.append((SymMatrix, "__post_init__", original))
            SymMatrix.__post_init__ = _wrap(self.recorder, SYMMATRIX_SPAN, original)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def installed_wrappers() -> list:
    """Names of traced targets that currently hold a wrapper (empty when clean)."""
    from specmd.linalg import SymMatrix
    found = [f"{m}.{a}" for m, a, _ in TARGETS
             if hasattr(getattr(importlib.import_module(m), a), "__wrapped__")]
    if hasattr(SymMatrix.__post_init__, "__wrapped__"):
        found.append("specmd.linalg.SymMatrix.__post_init__")
    return found
