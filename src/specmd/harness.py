"""Experiment runner: instances, reference values, solver matchups, trace and
report files, and the iterations-to-precision metric."""

import json
import math
import os
import re
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .linalg import sym_from
# perfbench's tracer wraps exact_subgrad at this name (harness.reference_polish)
from .oracles import (ExactOracleConfig, PowerOracleConfig,
                      SmoothingOracleConfig, _is_int, _is_real, exact_subgrad,
                      oracle_echo)
from .problem import (BoxSet, box_lower_bound, eval_F, eval_penalty,
                      gen_instance, make_problem, save_instance)
from .solvers import (RunTrace, StepSchedule, _oblivious, lan_acsa,
                      levy_adaptive, oblivious_acsmd, oblivious_smd,
                      relative_md)

EXCEEDED = "exceeded"

_ORACLE_CONFIGS = {cls.kind: cls for cls in (
    SmoothingOracleConfig, PowerOracleConfig, ExactOracleConfig)}

# Appendix-style tuning factors applied by a solver spec's "tuned" flag.
TUNE_L = 50.0
TUNE_D = 10.0
TUNE_LSTAR = 50.0


# ---------------------------------------------------------------------------
# Metrics and reference values
# ---------------------------------------------------------------------------

def iterations_to_precision(trace: RunTrace, F_ref: float, target: float):
    """Smallest evaluated t with F_ag(t) - F_ref <= target, else "exceeded"."""
    if target <= 0:
        raise ValueError("target must be positive")
    hits = np.nonzero(trace.F_ag - F_ref <= target)[0]
    return int(trace.t[hits[0]]) if hits.size else EXCEEDED


def reference_run(instance: BoxSet, mu: float, budget: int, tol: float):
    """Certified anchor: exact-oracle accelerated mirror descent at weight mu.

    One run of at most budget iterations checks the gap
    Psi(X_ag) - box_lower_bound(W_ag) at t = 100, 200, 400, ... and stops at
    the first that is <= tol. W_ag is the drawn v v^T averaged by the
    solver loop's rule, W_ag += (v v^T - W_ag) * alpha_t / A_t. The steps
    do not depend on the horizon and the exact oracle draws nothing, so the
    run up to t is the run of horizon t. Returns (F_ref, gap, W_ag, trace):
    the trace's least F_ag (every 10th iteration and the last), the
    certified gap >= Psi(X_ag) - Psi* at its last iteration, W_ag there and
    the run; gap > tol is uncertified.
    """
    if budget < 1:
        raise ValueError(f"reference budget must be >= 1, got {budget}")
    exact, sched = ExactOracleConfig(), StepSchedule(degree=1)
    alpha = sched.weights(budget)[0]
    w_ag, steps = np.zeros_like(instance.lower), zip(alpha, np.cumsum(alpha))

    def averaging(x, rng):  # acsmd draws once per iteration, in order
        value, grad = exact(x, rng)
        a, a_sum = next(steps)
        w_ag[...] += (grad - w_ag) * a / a_sum
        return value, grad

    prob = make_problem(instance, averaging, mu=mu)
    checks = {100 * 2 ** k for k in range(budget.bit_length())}

    def certified(t, x_ag):
        return t in checks and (eval_F(x_ag) + eval_penalty(x_ag, prob)
                                - box_lower_bound(w_ag, prob)) <= tol

    trace = _oblivious("oblivious_acsmd", prob, sched, budget, 0, True, 10,
                       certified)
    trace.config_echo["oracle"] = oracle_echo(exact)
    gap = float(trace.Psi_ag[-1]) - box_lower_bound(w_ag, prob)
    return trace.best_F_ag, gap, w_ag, trace


def theory_parameters(instance: BoxSet, oracle, T: int) -> dict:
    """Conservative a-priori constants for baselines asking for "theory" values.

    M = 1 (rank-one unit projector draws), D = Frobenius box diameter
    2*rho*d, L = d/epsilon for the smoothing oracle, Lstar = p*d for the
    power oracle, Gamma calibrated as lambda_max(A) / D^2.
    """
    d = instance.dim
    diameter = instance.diameter_frobenius
    out = {"M": 1.0, "D": diameter,
           "Gamma": max(eval_F(instance.center.data), 1e-12) / diameter ** 2}
    if isinstance(oracle, SmoothingOracleConfig):
        out["L"] = d / oracle.epsilon
    if isinstance(oracle, PowerOracleConfig):
        out["Lstar"] = float(oracle.p * d)
    return out


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

_TRACE_COLUMNS = "t,F_ag,Psi_ag,grad_norm,elapsed_s"
_POINT_KEY = "# final_point: "


def write_trace(path, trace: RunTrace) -> None:
    """CSV with commented JSON header, floats at full repr precision; the
    final point is streamed row by row, with json.dumps's bytes."""
    cols = (trace.F_ag, trace.Psi_ag, trace.grad_norm, trace.elapsed_s)
    rows = [",".join([str(int(t))] + [repr(float(c[i])) for c in cols])
            for i, t in enumerate(trace.t)]
    with open(path, "w") as out:
        out.write("# specmd-trace v1\n"
                  f"# config: {json.dumps(trace.config_echo, sort_keys=True)}\n"
                  f"# seed: {trace.seed}\n"
                  f"# total_seconds: {trace.total_seconds!r}\n"
                  f"# oracle_seconds: {trace.oracle_seconds!r}\n"
                  f"{_POINT_KEY}[")
        for i, row in enumerate(trace.final_point.data):
            out.write((", " if i else "") + json.dumps(row.tolist()))
        out.write("]\n" + "\n".join([_TRACE_COLUMNS] + rows) + "\n")


def read_trace(path) -> RunTrace:
    """Parse a trace file written by write_trace (exact float round trip),
    line by line and the final point row by row, with float() as in
    json.loads."""
    header, rows, point, saw_columns = {}, [], None, False
    with open(path) as lines:
        for line in lines:
            if line.startswith(_POINT_KEY):
                point = np.array([
                    np.fromiter(map(float, row[1].split(",")), dtype=float)
                    for row in re.finditer(r"\[([^][]+)\]", line)])
            elif line.startswith("# ") and ":" in line:
                key, _, value = line[2:].partition(":")
                header[key.strip()] = value.strip()
            elif line.rstrip("\n") == _TRACE_COLUMNS:
                saw_columns = True
            elif saw_columns and line != "\n":
                rows.append([float(v) for v in line.split(",")])
    if not saw_columns or not rows or point is None:
        raise ValueError(f"malformed trace file: {path}")
    data = np.array(rows)
    return RunTrace(
        t=data[:, 0].astype(int), F_ag=data[:, 1], Psi_ag=data[:, 2],
        grad_norm=data[:, 3], elapsed_s=data[:, 4],
        final_point=sym_from(point),
        config_echo=json.loads(header["config"]),
        seed=int(header["seed"]),
        total_seconds=float(header["total_seconds"]),
        oracle_seconds=float(header["oracle_seconds"]),
    )


# ---------------------------------------------------------------------------
# Bench configuration and report
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One benchmark campaign: instances x solvers x seeds.

    `oracle` is a dict like {"kind": "smoothing", "k": 1, "epsilon": 1e-2},
    {"kind": "power", "p": 21, "square_input": true} or {"kind": "exact"}.
    Each solver spec is a dict with a "kind", an optional "name" label and
    that kind's options: smd and acsmd take degree (an integer >= 0,
    default 1); levy takes D > 0 and M >= 0, lan L > 0, relative Lstar > 0
    and Gamma > 0, each a number or "theory" (the default, from
    theory_parameters), plus a "tuned" flag that divides D, L and Lstar by
    TUNE_D, TUNE_L and TUNE_LSTAR; M and Gamma take "theory" untuned. Any
    other key, a wrong type or a value out of range raises ValueError.
    reference_budget caps the iterations of each dim's certified anchor
    (reference_run), which stops at a gap of target_precision / 10.
    """

    dims: list
    oracle: dict
    solvers: list
    T: int
    seeds: list
    target_precision: float
    noise_sigma: float
    output_dir: str
    instance_seed: int = 0
    reference_budget: int = 20000
    eval_stride: int | None = None

    def __post_init__(self):
        for key, type_ok, kind, range_ok, bound in _CONFIG_RULES:
            value = getattr(self, key)
            if not type_ok(value):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            if not range_ok(value):
                raise ValueError(f"{key} must be {bound}, got {value!r}")


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# every field's type and range, checked in this order on construction:
# field, type test, the type it needs, range test, the range it needs
_CONFIG_RULES = (
    ("dims", _list_of(_is_int), "a list of integers",
     lambda v: v and min(v) >= 1, "a nonempty list of positive integers"),
    ("oracle", lambda v: isinstance(v, dict), "a mapping", bool, "nonempty"),
    ("solvers", _list_of(lambda v: isinstance(v, dict)), "a list of mappings",
     bool, "nonempty"),
    ("T", _is_int, "an integer", lambda v: v >= 1, ">= 1"),
    ("seeds", _list_of(_is_int), "a list of integers",
     lambda v: v and min(v) >= 0, "a nonempty list of nonnegative integers"),
    ("target_precision", _is_real, "a number", lambda v: 0 < v < math.inf,
     "positive and finite"),
    ("noise_sigma", _is_real, "a number", lambda v: 0 <= v < math.inf,
     "nonnegative and finite"),
    ("output_dir", lambda v: isinstance(v, (str, os.PathLike)), "a path",
     lambda v: bool(os.fspath(v)), "nonempty"),
    ("instance_seed", _is_int, "an integer", lambda v: v >= 0, ">= 0"),
    ("reference_budget", _is_int, "an integer", lambda v: v >= 1, ">= 1"),
    ("eval_stride", lambda v: v is None or _is_int(v), "an integer or null",
     lambda v: v is None or v >= 1, ">= 1"),
)


@dataclass
class CellResult:
    """Outcome of one (dim, solver, seed) run."""

    dim: int
    solver: str
    seed: int
    status: str                  # "ok" | "exceeded" | "error"
    iterations: int | None
    final_gap: float
    wall_seconds: float
    oracle_seconds: float
    message: str = ""


@dataclass
class BenchReport:
    """Cell results, and each dim's anchor as (F_ref, gap, iterations)."""

    config: ExperimentConfig
    cells: list
    anchors: dict


def _nearest_rank(sorted_values: list, pct: float) -> float:
    """Smallest value with at least pct percent of the values at or below it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _solver_label(spec: dict) -> str:
    if "name" in spec:
        return spec["name"]
    kind = spec["kind"]
    if kind in ("smd", "acsmd"):
        return f"{kind}_n{spec.get('degree', 1)}"
    return kind


def build_oracle(spec: dict):
    """Oracle config object from a plain dict (CLI / YAML form); unknown keys raise."""
    kind = spec.get("kind")
    cls = _ORACLE_CONFIGS.get(kind)
    if cls is None:
        raise ValueError(f"unknown oracle kind: {kind}")
    options = {k: v for k, v in spec.items() if k != "kind"}
    unknown = sorted(set(options) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown option {unknown[0]!r} for the {kind} oracle")
    return cls(**options)


_CONSTANT = (lambda v: v == "theory" or _is_real(v) and math.isfinite(v),
             "a finite number or 'theory'")
_STEP_OPTIONS = {
    "degree": (lambda v: _is_int(v) and v >= 0, "an integer >= 0")}
# each baseline's constants, with the factor its "tuned" flag divides by
_BASELINES = {"levy": {"D": TUNE_D, "M": 1.0}, "lan": {"L": TUNE_L},
              "relative": {"Lstar": TUNE_LSTAR, "Gamma": 1.0}}


def resolve_solver_spec(spec: dict, theory: dict) -> tuple:
    """(solver, parameters) for solver(prob, *parameters, T, seed, ...).

    An unknown kind or option, an option of the wrong type or range (a
    constant is checked once resolved), or a "theory" constant this oracle
    has no value for raises ValueError here, before any solver runs.
    """
    kind = spec.get("kind")
    # looked up per call: perfbench's tracer wraps the names in this module
    solver = {"smd": oblivious_smd, "acsmd": oblivious_acsmd,
              "levy": levy_adaptive, "lan": lan_acsa,
              "relative": relative_md}.get(kind)
    if solver is None:
        raise ValueError(f"unknown solver kind: {kind}")
    factors = _BASELINES.get(kind, {})
    rules = _STEP_OPTIONS if kind in ("smd", "acsmd") else {
        "tuned": (lambda v: isinstance(v, bool), "true or false"),
        **dict.fromkeys(factors, _CONSTANT)}
    for key in [key for key in spec if key not in ("kind", "name")]:
        if key not in rules:
            raise ValueError(f"solver option {key!r} is unknown for {kind}")
        test, need = rules[key]
        if not test(spec[key]):
            raise ValueError(
                f"solver option {key} must be {need}, got {spec[key]!r}")
    if kind in ("smd", "acsmd"):
        return solver, (StepSchedule(degree=int(spec.get("degree", 1))),)
    params = []
    for key, factor in factors.items():
        value = spec.get(key, "theory")
        if value == "theory" and key not in theory:
            raise ValueError(
                f"no theory value for {key!r} with this oracle; give a number")
        value = float(theory[key] if value == "theory" else value)
        if not (value >= 0 if key == "M" else value > 0):
            need = "nonnegative" if key == "M" else "positive"
            raise ValueError(f"solver option {key} must be {need}, got {value!r}")
        params.append(value / (factor if spec.get("tuned") else 1.0))
    return solver, tuple(params)


def run_solver_spec(spec: dict, prob, T: int, seed: int, theory: dict,
                    eval_stride: int | None = None) -> RunTrace:
    """Dispatch one solver spec dict to the matching solver function."""
    solver, params = resolve_solver_spec(spec, theory)
    return solver(prob, *params, T, seed, eval_stride=eval_stride)


def run_bench(cfg: ExperimentConfig) -> BenchReport:
    """Execute every (dim, solver, seed) cell and write all output files.

    Per dim: the instance file, a reference trace, and one trace per run.
    Campaign-wide: report.csv and summary.txt (deterministic given the
    config), timing.csv (wall-clock, excluded from the determinism claim),
    and config_echo.yaml.
    """
    oracle_cfg = build_oracle(cfg.oracle)
    instances = {dim: gen_instance(dim, cfg.noise_sigma, cfg.instance_seed)
                 for dim in cfg.dims}
    theories = {dim: theory_parameters(box, oracle_cfg, cfg.T)
                for dim, box in instances.items()}
    # a bad solver spec fails here, before any reference run is paid for
    for spec in cfg.solvers:
        for theory in theories.values():
            resolve_solver_spec(spec, theory)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    cells, anchors = [], {}
    for dim, instance in instances.items():
        theory = theories[dim]
        save_instance(outdir / f"instance_d{dim}.txt", instance,
                      seed=cfg.instance_seed, noise_sigma=cfg.noise_sigma)
        f_ref, gap, _, ref_trace = reference_run(
            instance, 1.0 / math.sqrt(cfg.T), cfg.reference_budget,
            cfg.target_precision / 10)
        anchors[dim] = (f_ref, gap, int(ref_trace.t[-1]))
        write_trace(outdir / f"reference_d{dim}.csv", ref_trace)

        prob = make_problem(instance, oracle_cfg, T=cfg.T)
        for spec in cfg.solvers:
            label = _solver_label(spec)
            for seed in cfg.seeds:
                try:
                    trace = run_solver_spec(spec, prob, cfg.T, seed, theory,
                                            eval_stride=cfg.eval_stride)
                except Exception as err:
                    cells.append(CellResult(
                        dim=dim, solver=label, seed=seed, status="error",
                        iterations=None, final_gap=float("nan"),
                        wall_seconds=0.0, oracle_seconds=0.0, message=str(err)))
                    continue
                trace.config_echo["instance"] = {
                    "d": dim, "seed": cfg.instance_seed,
                    "noise_sigma": cfg.noise_sigma, "rho": instance.radius,
                    "F_ref": f_ref}
                write_trace(outdir / f"trace_d{dim}_{label}_s{seed}.csv", trace)
                iters = iterations_to_precision(trace, f_ref, cfg.target_precision)
                cells.append(CellResult(
                    dim=dim, solver=label, seed=seed,
                    status="ok" if iters != EXCEEDED else EXCEEDED,
                    iterations=iters if iters != EXCEEDED else None,
                    final_gap=trace.final_F_ag - f_ref,
                    wall_seconds=trace.total_seconds,
                    oracle_seconds=trace.oracle_seconds))

    report = BenchReport(config=cfg, cells=cells, anchors=anchors)
    _write_report_files(report, outdir)
    return report


def _write_report_files(report: BenchReport, outdir: Path) -> None:
    cfg = report.config
    lines = ["dim,solver,seed,status,iterations,final_gap"]
    timing = ["dim,solver,seed,wall_seconds,oracle_seconds"]
    for c in sorted(report.cells, key=lambda c: (c.dim, c.solver, c.seed)):
        iters = "" if c.iterations is None else str(c.iterations)
        gap = repr(float(c.final_gap)) if math.isfinite(c.final_gap) else "nan"
        lines.append(f"{c.dim},{c.solver},{c.seed},{c.status},{iters},{gap}")
        timing.append(f"{c.dim},{c.solver},{c.seed},"
                      f"{c.wall_seconds!r},{c.oracle_seconds!r}")
    (outdir / "report.csv").write_text("\n".join(lines) + "\n")
    (outdir / "timing.csv").write_text("\n".join(timing) + "\n")

    tol = cfg.target_precision / 10
    warnings = [f"anchor d={dim} uncertified (gap {gap:.3e} > {tol:g} after "
                f"{n} iterations)"
                for dim, (_, gap, n) in report.anchors.items() if gap > tol]
    # per (dim, solver): nearest-rank iteration percentiles, a miss or a
    # failed cell counting as inf, which prints as the count reached
    solver_names = [_solver_label(s) for s in cfg.solvers]
    entries = {}
    for name in solver_names:
        medians = []
        for dim in cfg.dims:
            group = [c for c in report.cells if c.dim == dim and c.solver == name]
            iters = sorted(float(c.iterations) if c.status == "ok"
                           else math.inf for c in group)
            reached = sum(c.status == "ok" for c in group)
            failed = sum(c.status == "error" for c in group)
            miss = f"{reached}/{len(group)} reached" + (
                f", {failed} failed" if failed else "")
            med, p10, p90 = (_nearest_rank(iters, pct) for pct in (50, 10, 90))
            med_s, p10_s, p90_s = (f"{v:.0f}" if math.isfinite(v) else miss
                                   for v in (med, p10, p90))
            entries[dim, name] = f"{med_s} [{p10_s}, {p90_s}]"
            medians.append(med)
        # soft check: iterations-to-precision should not shrink as the
        # dimension grows on this instance family
        finite = [m for m in medians if math.isfinite(m)]
        if any(b < a for a, b in zip(finite, finite[1:])):
            warnings.append(f"median iterations for {name} are not monotone "
                            f"in dim: {medians}")
    width = max(len(t) for t in [*solver_names, *entries.values()]) + 2
    text = [f"iterations to reach precision {cfg.target_precision:g} "
            f"(nearest-rank median over {len(cfg.seeds)} seeds, [p10, p90])", ""]
    text.append("dim".ljust(8) + "".join(n.ljust(width) for n in solver_names))
    for dim in cfg.dims:
        text.append(f"{dim}".ljust(8) + "".join(
            entries[(dim, name)].ljust(width) for name in solver_names))
    text.append("")
    for dim in cfg.dims:
        f_ref, gap, iters = report.anchors[dim]
        text.append(f"F_ref(d={dim}) = {f_ref!r} (certified gap {gap:.3e} "
                    f"after {iters} iterations)")
    text += [f"WARNING: {warning}" for warning in warnings]
    (outdir / "summary.txt").write_text("\n".join(text) + "\n")

    (outdir / "config_echo.yaml").write_text(
        yaml.safe_dump({**asdict(cfg), "output_dir": str(cfg.output_dir)},
                       sort_keys=True))


def load_experiment_config(path) -> ExperimentConfig:
    """Read a YAML benchmark config file.

    A file that is not a mapping, an unknown key or a missing required key
    raises ValueError naming the first such key.
    """
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"campaign config {path} is not a mapping")
    known = fields(ExperimentConfig)
    names = {f.name for f in known}
    unknown = [key for key in raw if key not in names]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in campaign config {path}")
    missing = [f.name for f in known if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing key {missing[0]!r} in campaign config {path}")
    return ExperimentConfig(**raw)
