"""Experiment runner: instances, reference values, solver matchups, trace and
report files, and the iterations-to-precision metric."""

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .linalg import SymMatrix
# perfbench's tracer wraps exact_subgrad at this name (harness.reference_polish)
from .oracles import (ExactOracleConfig, PowerOracleConfig,
                      SmoothingOracleConfig, _check, _parse, exact_subgrad)
from .problem import (BoxSet, _loadtxt, box_lower_bound, eval_F,
                      eval_penalty, gen_instance, make_problem, save_instance)
from .solvers import (RunTrace, StepSchedule, _check_constant, _oblivious,
                      lan_acsa, levy_adaptive, oblivious_acsmd, oblivious_smd,
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
    """Smallest evaluated t with F_ag(t) - F_ref <= target, else "exceeded".
    A non-finite F_ref or target raises ValueError: it is no miss."""
    target = _check("target", target, "positive and finite")
    F_ref = _check("F_ref", F_ref, "finite")
    hits = np.nonzero(trace.F_ag - F_ref <= target)[0]
    return int(trace.t[hits[0]]) if hits.size else EXCEEDED


def reference_run(instance: BoxSet, mu: float, budget: int, tol: float):
    """Certified anchor: exact-oracle accelerated mirror descent at weight mu.

    One run of at most budget iterations. The solver loop's stop hook sees
    each draw v v^T with the loop's own alpha_t and A_t and folds it into
    W_ag by the loop's averaging rule, W_ag += (v v^T - W_ag) * alpha_t /
    A_t; at t = 100, 200, 400, ... it checks the gap Psi(X_ag) -
    box_lower_bound(W_ag) and stops the run at the first that is <= tol.
    The steps do not depend on the horizon and the exact oracle draws
    nothing, so the run up to t is the run of horizon t. Returns (F_ref,
    gap, W_ag, trace): the trace's least F_ag (every 10th iteration and the
    last), the certified gap >= Psi(X_ag) - Psi* at its last iteration,
    W_ag there and the run; gap > tol is uncertified.
    """
    budget = _check("reference budget", budget, "an integer >= 1")
    prob = make_problem(instance, ExactOracleConfig(), mu=mu)
    w_ag = np.zeros_like(instance.lower)
    checks = {100 * 2 ** k for k in range(budget.bit_length())}

    def certified(t, x_ag, g, alpha, a_sum):
        w_ag[...] += (g - w_ag) * alpha / a_sum
        return t in checks and (eval_F(x_ag) + eval_penalty(x_ag, prob)
                                - box_lower_bound(w_ag, prob)) <= tol

    trace = _oblivious("oblivious_acsmd", prob, StepSchedule(degree=1), budget,
                       0, True, 10, certified)
    gap = float(trace.Psi_ag[-1]) - box_lower_bound(w_ag, prob)
    return float(trace.F_ag.min()), gap, w_ag, trace


def theory_parameters(instance: BoxSet, oracle, T: int) -> dict:
    """Conservative a-priori constants for baselines asking for "theory" values.

    M = 1 (rank-one unit projector draws), D = Frobenius box diameter
    2*rho*d, L = d/epsilon for the smoothing oracle, Lstar = p*d for the
    power oracle, Gamma calibrated as lambda_max(A) / D^2. T is not read;
    it stays because perfbench's DirectSolvers.setup still passes it.
    """
    d = instance.dim
    diameter = 2.0 * instance.radius * d
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

_POINT_KEY = "# final_point: "
_POINT_ROWS = re.compile(r"\[\[[^][]+\](?:, \[[^][]+\])*\]\n")


def write_trace(path, trace: RunTrace) -> None:
    """CSV with commented JSON header, floats at full repr precision; the
    final point is streamed row by row, with json.dumps's bytes."""
    columns = (getattr(trace, c).tolist() for c in RunTrace.COLUMNS)
    rows = [",".join(map(repr, row)) for row in zip(*columns)]
    # built first: a header json.dumps refuses leaves no file behind
    header = "".join(
        ["# specmd-trace v1\n",
         f"# config: {json.dumps(trace.config_echo, sort_keys=True)}\n"]
        + [f"# {key}: {getattr(trace, key)}\n" for key in RunTrace.HEADER])
    with open(path, "w") as out:
        out.write(header + _POINT_KEY + "[")
        for i, row in enumerate(trace.final_point.data):
            out.write((", " if i else "") + json.dumps(row.tolist()))
        out.write("]\n" + "\n".join([",".join(RunTrace.COLUMNS), *rows, ""]))


def read_trace(path) -> RunTrace:
    """Read back write_trace's layout exactly. Its head is one line each, in
    order: the version, `# config: ` and a JSON object, `# key: value` per
    RunTrace.HEADER key, `# final_point: ` and the point's rows in
    json.dumps's form, the RunTrace.COLUMNS names; a row per evaluated
    iteration follows. Any other head, or no rows, is malformed; any later
    refusal names the file once, a bad row its line (t is an integer)."""
    head = ("# specmd-trace v1\n", "# config: ", *(f"# {key}: " for key in
            RunTrace.HEADER), _POINT_KEY, ",".join(RunTrace.COLUMNS) + "\n")
    with open(path) as lines:
        text = [next(lines, "") for _ in head]
        rows = lines.readlines()
    if not (rows and all(map(str.startswith, text, head))
            and _POINT_ROWS.fullmatch(text[-2], len(_POINT_KEY))):
        raise ValueError(f"malformed trace file: {path}")
    # the point's line is the file's bulk: searched in place, never copied
    _, config, *numbers = (
        line[len(start):].strip() for line, start in zip(text[:-2], head))
    try:
        config = json.loads(config)
    except json.JSONDecodeError:  # a config that is not JSON
        config = None
    if not isinstance(config, dict):
        raise ValueError(f"malformed trace file: {path}")
    try:  # names the file for every refusal past the head
        point = _loadtxt((row[1] for row in re.finditer(r"\[([^][]+)\]",
                         text[-2])), lambda _: len(head) - 1, delimiter=",",
                         ndmin=2)
        data = _loadtxt(rows, lambda k: len(head) + k + 1, delimiter=",",
                        ndmin=1, dtype=[(c, int if c == "t" else float)
                                        for c in RunTrace.COLUMNS])
        return RunTrace(
            **{name: data[name] for name in data.dtype.names},
            final_point=SymMatrix(point), config_echo=config,
            **dict(zip(RunTrace.HEADER, map(_parse, numbers))))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# Bench configuration and report
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One benchmark campaign: a cell per dim x solver spec x seed.

    Each dim's instance is gen_instance(dim, noise_sigma, instance_seed),
    its anchor reference_run to a gap of target_precision / 10 (at most
    reference_budget iterations). A cell runs T iterations and counts those
    to reach target_precision above the anchor; files go to output_dir.
    `oracle` is a dict like {"kind": "smoothing", "k": 1, "epsilon": 1e-2},
    {"kind": "power", "p": 21, "square_input": true} or {"kind": "exact"}.
    A solver spec is a dict with a "kind", an optional "name" label and its
    kind's options: degree (default 1) for smd and acsmd; D and M for levy,
    L for lan, Lstar and Gamma for relative, each a number or "theory" (the
    default, theory_parameters'), and a "tuned" flag dividing D, L and
    Lstar by TUNE_D, TUNE_L and TUNE_LSTAR. A field's rule is in
    _CONFIG_KINDS or _CONFIG_NUMBERS, an option's in its class or solver: a
    broken one, any other key or a repeated dim or seed raises ValueError,
    and run_bench refuses two specs with one label.
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

    def __post_init__(self):
        for key, kind, name in _CONFIG_KINDS:
            value = getattr(self, key)
            if not (isinstance(value, kind) and value):
                raise ValueError(
                    f"{key} must be a nonempty {name}, got {value!r}")
        if not all(isinstance(spec, dict) for spec in self.solvers):
            raise ValueError(
                f"solvers must be a list of mappings, got {self.solvers!r}")
        for key, need in _CONFIG_NUMBERS.items():
            value = getattr(self, key)
            if key in ("dims", "seeds"):
                value = [_check(key, v, need) for v in value]
                # a repeated dim or seed would run, and write, the same
                # cells twice
                if len(set(value)) < len(value):
                    raise ValueError(f"{key} must not repeat, got {value!r}")
            else:
                value = _check(key, value, need)
            setattr(self, key, value)


# the fields that are not numbers: each a nonempty value of its kind
_CONFIG_KINDS = (("dims", list, "list"), ("oracle", dict, "mapping"),
                 ("solvers", list, "list"), ("seeds", list, "list"),
                 ("output_dir", (str, os.PathLike), "path"))
# each number field's _check rule, for dims and seeds each entry's
_CONFIG_NUMBERS = {
    "dims": "an integer >= 1", "T": "an integer >= 1",
    "seeds": "an integer >= 0", "target_precision": "positive and finite",
    "noise_sigma": "nonnegative and finite", "instance_seed": "an integer >= 0",
    "reference_budget": "an integer >= 1"}


@dataclass
class CellResult:
    """Outcome of one (dim, solver, seed) run; defaults are a failed cell's."""

    dim: int
    solver: str
    seed: int
    status: str = "error"        # "ok" | "exceeded" | "error"
    iterations: int | None = None
    final_gap: float = math.nan
    wall_seconds: float = 0.0
    message: str = ""


@dataclass
class BenchReport:
    """Cell results, and each dim's anchor as (F_ref, gap, iterations)."""

    config: ExperimentConfig
    cells: list
    anchors: dict


def _solver_label(spec: dict) -> str:
    if "name" in spec:
        return spec["name"]
    kind = spec["kind"]
    if kind in ("smd", "acsmd"):
        return f"{kind}_n{spec.get('degree', 1)}"
    return kind


def _check_labels(specs: list) -> list:
    """Each spec's label, in spec order: it names the spec's cells in
    report.csv and trace files, so it is a plain word no other spec has."""
    labels = [_solver_label(spec) for spec in specs]
    for label in labels:
        if not isinstance(label, str) or not re.fullmatch(r"[^,/\s]+", label):
            raise ValueError("solver name must be a nonempty string without "
                             f"',', '/' or whitespace, got {label!r}")
        if labels.count(label) > 1:
            raise ValueError(f"solver label {label!r} names more than one "
                             "solver spec; give each a distinct name")
    return labels


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


# each baseline's constants, with the factor its "tuned" flag divides by
_BASELINES = {"levy": {"D": TUNE_D, "M": 1.0}, "lan": {"L": TUNE_L},
              "relative": {"Lstar": TUNE_LSTAR, "Gamma": 1.0}}


def resolve_solver_spec(spec: dict, theory: dict) -> tuple:
    """(solver, parameters) for solver(prob, T=T, rng=seed, **parameters).

    An unknown kind or option, an option of the wrong type or range (the
    degree and each constant, once "theory" is resolved, by the solvers'
    own checks), or a "theory" constant this oracle has no value for raises
    ValueError here, before any solver runs.
    """
    kind = spec.get("kind")
    # looked up per call: perfbench's tracer wraps the names in this module
    solver = {"smd": oblivious_smd, "acsmd": oblivious_acsmd,
              "levy": levy_adaptive, "lan": lan_acsa,
              "relative": relative_md}.get(kind)
    if solver is None:
        raise ValueError(f"unknown solver kind: {kind}")
    factors = _BASELINES.get(kind, {})
    known = ("degree",) if kind in ("smd", "acsmd") else ("tuned", *factors)
    for key in spec:
        if key not in ("kind", "name", *known):
            raise ValueError(f"solver option {key!r} is unknown for {kind}")
    if kind in ("smd", "acsmd"):
        return solver, {"sched": StepSchedule(degree=spec.get("degree", 1))}
    tuned = _check("solver option tuned", spec.get("tuned", False),
                   "true or false")
    params = {}
    for key, factor in factors.items():
        value = spec.get(key, "theory")
        if value == "theory":
            if key not in theory:
                raise ValueError(f"no theory value for {key!r} with this "
                                 "oracle; give a number")
            value = theory[key]
        params[key] = _check_constant(key, value) / (factor if tuned else 1.0)
    return solver, params


def run_solver_spec(spec: dict, prob, T: int, seed: int, theory: dict,
                    eval_stride: int | None = None) -> RunTrace:
    """Dispatch one solver spec dict to the matching solver function."""
    solver, params = resolve_solver_spec(spec, theory)
    return solver(prob, T=T, rng=seed, eval_stride=eval_stride, **params)


def run_bench(cfg: ExperimentConfig) -> BenchReport:
    """Execute every (dim, solver, seed) cell and write all output files.

    Per dim: instance_d{dim}.txt, reference_d{dim}.csv and one
    trace_d{dim}_{label}_s{seed}.csv per cell, whose header echoes the
    cell's config and timings. Then report.csv and summary.txt (iteration
    percentiles per dim and solver, each F_ref with its certified gap, a
    warning per uncertified anchor), both deterministic given the config.
    """
    oracle_cfg = build_oracle(cfg.oracle)
    instances = {dim: gen_instance(dim, cfg.noise_sigma, cfg.instance_seed)
                 for dim in cfg.dims}
    # each (dim, spec) is resolved once, here, into the (solver, params) its
    # cells run: a bad solver spec or label fails before any reference run
    # is paid for
    plans = {}
    for dim, box in instances.items():
        theory = theory_parameters(box, oracle_cfg, cfg.T)
        plans[dim] = [resolve_solver_spec(spec, theory) for spec in cfg.solvers]
    labels = _check_labels(cfg.solvers)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    cells, anchors = [], {}
    for dim, instance in instances.items():
        meta = save_instance(outdir / f"instance_d{dim}.txt", instance,
                             seed=cfg.instance_seed, noise_sigma=cfg.noise_sigma)
        # the anchor solves the cells' own problem: make_problem's mu
        prob = make_problem(instance, oracle_cfg, T=cfg.T)
        f_ref, gap, _, ref_trace = reference_run(
            instance, prob.mu, cfg.reference_budget, cfg.target_precision / 10)
        anchors[dim] = (f_ref, gap, int(ref_trace.t[-1]))
        write_trace(outdir / f"reference_d{dim}.csv", ref_trace)

        for label, (solver, params) in zip(labels, plans[dim]):
            for seed in cfg.seeds:
                try:
                    trace = solver(prob, T=cfg.T, rng=seed, **params)
                except Exception as err:
                    cells.append(CellResult(dim=dim, solver=label, seed=seed,
                                            message=str(err)))
                    continue
                trace.config_echo["instance"] = {**meta, "F_ref": f_ref}
                write_trace(outdir / f"trace_d{dim}_{label}_s{seed}.csv", trace)
                iters = iterations_to_precision(trace, f_ref, cfg.target_precision)
                cells.append(CellResult(
                    dim=dim, solver=label, seed=seed,
                    status="ok" if iters != EXCEEDED else EXCEEDED,
                    iterations=iters if iters != EXCEEDED else None,
                    final_gap=float(trace.F_ag[-1]) - f_ref,
                    wall_seconds=trace.total_seconds))

    report = BenchReport(config=cfg, cells=cells, anchors=anchors)
    _write_report_files(report, outdir)
    return report


def _write_report_files(report: BenchReport, outdir: Path) -> None:
    cfg = report.config
    lines = ["dim,solver,seed,status,iterations,final_gap"]
    for c in sorted(report.cells, key=lambda c: (c.dim, c.solver, c.seed)):
        iters = "" if c.iterations is None else str(c.iterations)
        lines.append(f"{c.dim},{c.solver},{c.seed},{c.status},{iters},"
                     f"{float(c.final_gap)!r}")
    (outdir / "report.csv").write_text("\n".join(lines) + "\n")

    # per (dim, solver): nearest-rank iteration percentiles, a miss or a
    # failed cell counting as inf, which prints as the count reached
    solver_names = [_solver_label(s) for s in cfg.solvers]
    entries = {}
    for name in solver_names:
        for dim in cfg.dims:
            group = [c for c in report.cells if c.dim == dim and c.solver == name]
            iters = [float(c.iterations) if c.status == "ok" else math.inf
                     for c in group]
            reached = sum(c.status == "ok" for c in group)
            failed = sum(c.status == "error" for c in group)
            miss = f"{reached}/{len(group)} reached" + (
                f", {failed} failed" if failed else "")
            med, p10, p90 = np.percentile(
                iters, (50, 10, 90), method="inverted_cdf").tolist()
            med_s, p10_s, p90_s = (f"{v:.0f}" if math.isfinite(v) else miss
                                   for v in (med, p10, p90))
            entries[dim, name] = f"{med_s} [{p10_s}, {p90_s}]"
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
    tol = cfg.target_precision / 10
    text += [f"WARNING: anchor d={dim} uncertified (gap {gap:.3e} > {tol:g} "
             f"after {n} iterations)"
             for dim, (_, gap, n) in report.anchors.items() if gap > tol]
    (outdir / "summary.txt").write_text("\n".join(text) + "\n")


def load_experiment_config(path) -> ExperimentConfig:
    """Read a YAML benchmark config file. A plain scalar is null (`null`,
    `~` or nothing) or _parse's value, never a YAML 1.1 bool, number or
    date; a quoted one stays text. A file that is not a mapping, an unknown
    key or a missing required key raises ValueError naming the first."""
    import yaml  # here, not at module level: only campaign files need YAML

    class Loader(yaml.SafeLoader):  # no YAML 1.1 bools, numbers or dates
        yaml_implicit_resolvers = {key: [r for r in rules if r[0].endswith(
            (":null", ":merge"))] for key, rules in
            yaml.SafeLoader.yaml_implicit_resolvers.items()}
    Loader.add_constructor("tag:yaml.org,2002:str", lambda _, node: (
        _parse(node.value) if node.style is None else node.value))
    raw = yaml.load(Path(path).read_text(), Loader)
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
