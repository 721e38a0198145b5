"""One benchmark run: set-up samples, timed rounds, checks, metrics."""

import json
import os
import resource
import shutil
import time
from pathlib import Path

from . import metrics
from .envinfo import environment
from .tracing import SpanRecorder, Tracer, installed_wrappers
from .workloads import WORKLOADS, oracle_sweep


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_round(wl, state, index, workdir, problems):
    workdir.mkdir(parents=True)
    try:
        return wl.run_round(state, index, workdir)
    except Exception as err:  # the whole round failed: record it, keep going
        problems.append(f"round {index} ({workdir.name}) raised "
                        f"{type(err).__name__}: {err}")
        return None


def execute(spec: dict, workload: str, seed: int, seconds: float, traced: bool,
            sample_setup, setup_samples: int, root: Path, blas_threads: int) -> dict:
    """Run one workload; returns the result line plus a full report.

    `spec` is BENCHMARK.json: it names the workloads and the metrics the
    result carries, with their units. `sample_setup(k)` times k program
    set-ups in fresh interpreters. The
    untraced run takes half of its samples before the rounds and half after,
    so one slow spell of the machine cannot set them all.
    """
    wl = WORKLOADS[workload]
    setup_times = [] if traced else sample_setup(setup_samples // 2)
    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"work_{os.getpid()}"
    state = wl.setup(seed)
    lbs = wl.bounds(state, root / "perfbench" / ".cache")

    rec = SpanRecorder()
    rounds, traced_rounds, problems = [], [], []
    begin = time.perf_counter()
    try:
        index = 0
        while True:
            if installed_wrappers():
                raise RuntimeError("span wrappers are installed during an untraced round")
            rnd = _run_round(wl, state, index, workdir / f"u{index}", problems)
            if rnd is not None:
                wl.check_round(state, rnd, lbs, workdir / f"u{index}")
                rounds.append(rnd)
            if traced:
                with Tracer(rec):
                    rnd = _run_round(wl, state, index, workdir / f"t{index}", problems)
                if rnd is not None:
                    wl.check_round(state, rnd, lbs, workdir / f"t{index}")
                    traced_rounds.append(rnd)
            index += 1
            # stop before a round that would end after `seconds`
            elapsed = time.perf_counter() - begin
            if elapsed * (index + 1) / index > seconds or problems:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss = _peak_rss_mb()
    if not traced:
        setup_times += sample_setup(setup_samples - len(setup_times))

    cells = [c for r in rounds + traced_rounds for c in r.cells]
    attempted = len(cells) + len(problems)
    failed = sum(c.failed for c in cells) + len(problems)
    problems += [f"{c.solver} seed {c.seed}: {p}" for c in cells for p in c.problems]
    declared = spec["per_layer" if traced else "end_to_end"]
    names = [m["name"] for m in declared]
    if traced:
        values = metrics.per_layer(names, rec.summary(), rec.counts, oracle_sweep(seed),
                                   [r.wall_s for r in rounds],
                                   [r.wall_s for r in traced_rounds], len(rec))
    else:
        values = metrics.end_to_end(names, rounds, setup_times, peak_rss)

    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    report = {
        "workload": workload, "why": why, "trace": int(traced),
        "environment": environment(root, seed, blas_threads),
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "traced_round_wall_s": [r.wall_s for r in traced_rounds],
        "setup_samples_s": setup_times,
        "failed_frac": failed / result["attempted"],
        "reached_frac": sum(c.reached and not c.failed for c in cells) / max(1, len(cells)),
        "lower_bounds": {str(k): v for k, v in lbs.items()},
        "target": wl.target,
        "cells": [{"solver": c.solver, "seed": c.seed, "seconds": c.seconds,
                   "gap": c.gap, "reached": c.reached, "problems": c.problems}
                  for c in cells],
        "problems": problems,
        "spans": rec.summary(),
        "moves": metrics.MOVES,
        "result": result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}_seed{seed}_trace{int(traced)}.json").write_text(
        json.dumps(report, indent=1, default=str))
    return report
