"""Metric computation from rounds, cells and spans.

BENCHMARK.json is the one list of metric names and units; `end_to_end` and
`per_layer` compute a value for each name it declares and refuse a name
they have no rule for. BENCHMARK.json has no room for more keys, so the
end-to-end metric each per-layer row should move, and on which workload,
lives in MOVES.

reached_frac and failed_frac are printed and reported but are not
end-to-end metrics of BENCHMARK.json: failed_frac is 0 in every run that
passes, and reached_frac moves in steps of 1/5 as cells land on either side
of the target, so neither can hold a bound.
"""

import math
import statistics

from .tracing import REFERENCE_SPAN, SOLVERS, SPAN_NAMES

# span row -> (end-to-end metric it should move, workload that exercises it)
MOVES = {
    "linalg.leading_eigpair": ("wall_s, solver_iters_per_s; .stalled moves final_psi_gap",
                               "campaign_smoothing"),
    "oracles.smoothing_grad": ("solver_iters_per_s", "campaign_smoothing"),
    "oracles.power_grad": ("solver_iters_per_s", "power_d200"),
    "oracles.exact_subgrad": ("solver_iters_per_s", "exact_d20"),
    "problem.prox_step": ("solver_iters_per_s", "power_d200, exact_d20"),
    "problem.project_box": ("solver_iters_per_s", "power_d200, exact_d20"),
    "problem.eval_F": ("solver_iters_per_s", "exact_d20"),
    "linalg.full_spectrum": ("solver_iters_per_s", "exact_d20"),
    "linalg.SymMatrix": ("solver_iters_per_s", "exact_d20"),
    "solvers.self": ("solver_iters_per_s", "exact_d20"),
    "harness.reference_run": ("wall_s", "campaign_smoothing"),
    "harness.reference_polish": ("wall_s", "campaign_smoothing"),
    "harness.write_trace": ("wall_s", "campaign_smoothing"),
    "harness.report": ("wall_s", "campaign_smoothing"),
}

ORACLES = ("oracles.smoothing_grad", "oracles.power_grad", "oracles.exact_subgrad")


def _median(values):
    return statistics.median(values) if values else math.nan


def _iters_per_s(cells) -> float:
    """Median over cells of a cell's iterations per second.

    Each solver's cells are reduced to their median first, then the median
    is taken over solvers, so the number of rounds a run fits does not
    change which solver's loop sets the value.
    """
    by_solver = {}
    for c in cells:
        if c.seconds > 0:
            by_solver.setdefault(c.solver, []).append(c.iterations / c.seconds)
    return _median([statistics.median(v) for v in by_solver.values()])


def _select(names, values, kind) -> dict:
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"no rule computes the {kind} metric(s) {missing}")
    return {name: values[name] for name in names}


def end_to_end(names, rounds, setup_times, peak_rss_mb) -> dict:
    """Untraced-run metrics. wall_s is the median over rounds, and
    solver_iters_per_s the median over cells, which a short slow spell of a
    shared machine moves less than a mean.

    final_psi_gap is the geometric mean over cells, not their median: the
    solvers' gaps differ by orders of magnitude, so a median would guard
    only the middle solver's accuracy.
    """
    ok = [c for r in rounds for c in r.cells if not c.failed]
    gaps = [c.gap for c in ok]
    values = {
        "setup_s": _median(setup_times),
        "wall_s": _median([r.wall_s for r in rounds]),
        "solver_iters_per_s": _iters_per_s(ok),
        "peak_rss_mb": peak_rss_mb,
        "final_psi_gap": (math.exp(statistics.fmean(math.log(max(g, 1e-300)) for g in gaps))
                          if gaps else math.nan),
    }
    return _select(names, values, "end-to-end")


def per_layer(names, summary, counts, sweep, untraced_walls, traced_walls,
              n_spans) -> dict:
    """Traced-run metrics from the span summary.

    `<row>.n`, `.s` and `.self_s` are per traced round, so runs that fit a
    different number of rounds compare; a row with no spans counts 0 calls.
    `<row>.share` is the row's self time over traced wall time, except for
    harness.reference_run, whose share is inclusive: everything inside the
    reference run is booked under its own rows.
    """
    per = 1.0 / max(1, len(traced_walls))

    def get(row, key):
        return summary.get(row, {}).get(key, 0) * per

    n_eig = get("linalg.leading_eigpair", "n")
    stalled = counts.get("linalg.leading_eigpair.raised.ConvergenceError", 0) * per
    solver_s = sum(get(f"solvers.{name}", "s") for name in SOLVERS)
    oracle_s = sum(get(row, "s") for row in ORACLES)
    traced_wall = sum(traced_walls) * per
    untraced_wall = sum(untraced_walls) / max(1, len(untraced_walls))
    values = dict(sweep)
    values.update({
        "linalg.leading_eigpair.stalled": stalled,
        # vacuously 1 when no eigen-solve ran
        "linalg.leading_eigpair.converged_frac": (n_eig - stalled) / n_eig if n_eig else 1.0,
        "harness.write_trace.bytes": counts.get("harness.write_trace.bytes", 0) * per,
        # the report stage is what run_bench does besides its traced callees
        "harness.report.s": get("harness.report", "self_s"),
        "solvers.non_oracle_frac": 1.0 - oracle_s / solver_s if solver_s else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall
                                if untraced_wall else 0.0),
        "trace.spans": n_spans * per,
    })
    for row in MOVES:
        if row == "solvers.self":
            own = sum(get(f"solvers.{name}", "self_s") for name in SOLVERS)
        elif row == REFERENCE_SPAN:
            own = get(row, "s")
        else:
            own = get(row, "self_s")
        values[f"{row}.share"] = own / traced_wall if traced_wall else 0.0
    for name in names:
        row, _, key = name.rpartition(".")
        if name not in values and row in SPAN_NAMES and key in ("n", "s", "self_s"):
            values[name] = get(row, key)
    return _select(names, values, "per-layer")
