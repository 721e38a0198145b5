"""Experiment runner: instances, reference values, solver matchups, trace and
report files, and the iterations-to-precision metric."""

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .linalg import SymMatrix, sym_from
from .oracles import (ExactOracleConfig, PowerOracleConfig,
                      SmoothingOracleConfig, exact_subgrad, oracle_echo)
from .problem import (BoxSet, eval_F, gen_instance, make_problem,
                      project_box, save_instance)
from .solvers import (RunTrace, StepSchedule, lan_acsa, levy_adaptive,
                      oblivious_acsmd, oblivious_smd, relative_md)

EXCEEDED = "exceeded"

_ORACLE_CONFIGS = {"smoothing": SmoothingOracleConfig,
                   "power": PowerOracleConfig, "exact": ExactOracleConfig}

# Appendix-style tuning factors applied by the hyper-tuned variants.
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
    if len(trace.t) == 0:
        raise ValueError("empty trace")
    hits = np.nonzero(trace.F_ag - F_ref <= target)[0]
    return int(trace.t[hits[0]]) if hits.size else EXCEEDED


def reference_run(instance: BoxSet, budget: int = 20000, seed: int = 0,
                  mu: float | None = None, oracle=None):
    """Best objective value found by a long accelerated mirror-descent run.

    Stage 1 runs the accelerated solver for budget//2 iterations (exact
    subgradient oracle by default; the bench passes the campaign's own oracle
    so the anchor matches what that oracle family can attain). Stage 2 is a
    deterministic projected-subgradient polish of the composite objective
    with diminishing steps, sized to the entry scale (radius / d^2) so it
    refines the endpoint locally instead of re-solving. The best exact
    objective value seen anywhere is returned, together with the stage-1
    trace for auditability.

    mu defaults to 1/sqrt(budget//2); benchmark campaigns pass their own
    1/sqrt(T) so the reference shares the runs' regularization.
    """
    if budget < 10_000:
        raise ValueError("reference budget must be at least 10^4")
    t_md = budget // 2
    t_polish = budget - t_md
    if oracle is None:
        oracle = ExactOracleConfig()
    prob = make_problem(instance, oracle, T=t_md, mu=mu)
    stride = 10 if t_md > 2000 else None
    trace = oblivious_acsmd(prob, StepSchedule(degree=1), t_md, seed,
                            eval_stride=stride)
    best = trace.best_F_ag

    x = trace.final_point.data
    step0 = instance.radius / instance.dim ** 2
    for t in range(1, t_polish + 1):
        sample = exact_subgrad(SymMatrix(x))
        best = min(best, sample.value)
        composite = sample.grad.data + 2.0 * prob.mu * (x - prob.x1.data)
        x = project_box(x - (step0 / math.sqrt(t)) * composite, instance)
    best = min(best, eval_F(x))
    return best, trace


def theory_parameters(instance: BoxSet, oracle, T: int) -> dict:
    """Conservative a-priori constants for baselines asking for "theory" values.

    M = 1 (rank-one unit projector draws), sigma = 1, D = Frobenius box
    diameter 2*rho*d, L = d/epsilon for the smoothing oracle, Lstar = p*d for
    the power oracle, Gamma calibrated as lambda_max(A) / D^2.
    """
    d = instance.dim
    diameter = instance.diameter_frobenius
    out = {"M": 1.0, "sigma": 1.0, "D": diameter,
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


def write_trace(path, trace: RunTrace) -> None:
    """CSV with commented JSON header; floats at full repr precision."""
    lines = [
        "# specmd-trace v1",
        "# config: " + json.dumps(trace.config_echo, sort_keys=True),
        f"# seed: {trace.seed}",
        f"# total_seconds: {trace.total_seconds!r}",
        f"# oracle_seconds: {trace.oracle_seconds!r}",
        "# final_point: " + json.dumps(
            [[float(v) for v in row] for row in trace.final_point.data]),
        _TRACE_COLUMNS,
    ]
    for i in range(len(trace.t)):
        lines.append(",".join([
            str(int(trace.t[i])),
            repr(float(trace.F_ag[i])),
            repr(float(trace.Psi_ag[i])),
            repr(float(trace.grad_norm[i])),
            repr(float(trace.elapsed_s[i])),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> RunTrace:
    """Parse a trace file written by write_trace (exact float round trip)."""
    header = {}
    rows = []
    saw_columns = False
    for line in Path(path).read_text().splitlines():
        if line.startswith("# ") and ":" in line:
            key, _, value = line[2:].partition(":")
            header[key.strip()] = value.strip()
        elif line == _TRACE_COLUMNS:
            saw_columns = True
        elif line and saw_columns:
            rows.append([float(v) for v in line.split(",")])
    if not saw_columns or not rows:
        raise ValueError(f"malformed trace file: {path}")
    data = np.array(rows)
    return RunTrace(
        t=data[:, 0].astype(int),
        F_ag=data[:, 1], Psi_ag=data[:, 2],
        grad_norm=data[:, 3], elapsed_s=data[:, 4],
        final_point=sym_from(np.array(json.loads(header["final_point"]))),
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
    Each solver spec is a dict with a "kind" in {smd, acsmd, levy, lan,
    relative}, an optional "name" label, solver parameters (degree/scale or
    D/M/L/sigma/Lstar/Gamma, where baseline constants may be the string
    "theory"), and an optional "tuned" flag dividing L, D, Lstar by the
    standard tuning factors. hyper_tuned sets the default for that flag.
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
    hyper_tuned: bool = False
    eval_stride: int | None = None

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must be nonempty")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.target_precision <= 0:
            raise ValueError("target_precision must be positive")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if not self.solvers:
            raise ValueError("solvers must be nonempty")


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

    @property
    def iterations_sort_key(self) -> float:
        if self.status == "ok":
            return float(self.iterations)
        return math.inf


@dataclass
class BenchReport:
    """All cell results plus per-(dim, solver) medians and percentile bands."""

    config: ExperimentConfig
    cells: list
    F_ref: dict                  # dim -> reference value
    summaries: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def finalize(self):
        """Per-(dim, solver) nearest-rank iteration percentiles, misses as inf."""
        solver_names = [_solver_label(s) for s in self.config.solvers]
        for dim in self.config.dims:
            for name in solver_names:
                group = [c for c in self.cells if c.dim == dim and c.solver == name]
                iters = sorted(c.iterations_sort_key for c in group)
                gaps = np.array([c.final_gap for c in group])
                self.summaries[(dim, name)] = {
                    "median_iterations": _nearest_rank(iters, 50),
                    "p10_iterations": _nearest_rank(iters, 10),
                    "p90_iterations": _nearest_rank(iters, 90),
                    "median_final_gap": float(np.median(gaps)),
                    "n_reached": sum(1 for c in group if c.status == "ok"),
                    "n_runs": len(group),
                    "n_errors": sum(1 for c in group if c.status == "error"),
                }
        # soft monotonicity check: iterations-to-precision should not shrink
        # as the dimension grows on this instance family
        for name in solver_names:
            meds = [self.summaries[(dim, name)]["median_iterations"]
                    for dim in self.config.dims]
            finite = [m for m in meds if math.isfinite(m)]
            if any(b < a for a, b in zip(finite, finite[1:])):
                self.warnings.append(
                    f"median iterations for {name} are not monotone in dim: {meds}")
        return self


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
    kind = spec["kind"]
    cls = _ORACLE_CONFIGS.get(kind)
    if cls is None:
        raise ValueError(f"unknown oracle kind: {kind}")
    options = {k: v for k, v in spec.items() if k != "kind"}
    unknown = sorted(set(options) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown option {unknown[0]!r} for the {kind} oracle")
    return cls(**options)


def _resolve_param(spec, key, theory, tuned, tune_factor):
    value = spec.get(key, "theory")
    if value == "theory":
        if key not in theory:
            raise ValueError(
                f"no theory value for {key!r} with this oracle; give a number")
        value = theory[key]
    value = float(value)
    return value / tune_factor if tuned else value


def resolve_solver_spec(spec: dict, theory: dict,
                        hyper_tuned_default: bool = False) -> tuple:
    """(solver, parameters) for solver(prob, *parameters, T, seed, ...).

    An unknown kind or a "theory" constant this oracle has no value for
    raises ValueError here, before any solver runs.
    """
    kind = spec.get("kind")
    tuned = bool(spec.get("tuned", hyper_tuned_default))
    if kind in ("smd", "acsmd"):
        sched = StepSchedule(degree=int(spec.get("degree", 1)),
                             scale=float(spec.get("scale", 1.0)))
        return (oblivious_smd if kind == "smd" else oblivious_acsmd), (sched,)
    if kind == "levy":
        d_val = _resolve_param(spec, "D", theory, tuned, TUNE_D)
        return levy_adaptive, (d_val, float(spec.get("M", theory.get("M", 1.0))))
    if kind == "lan":
        l_val = _resolve_param(spec, "L", theory, tuned, TUNE_L)
        return lan_acsa, (l_val, float(spec.get("sigma", theory.get("sigma", 1.0))))
    if kind == "relative":
        lstar = _resolve_param(spec, "Lstar", theory, tuned, TUNE_LSTAR)
        gamma_raw = spec.get("Gamma", "theory")
        gamma = theory["Gamma"] if gamma_raw == "theory" else float(gamma_raw)
        return relative_md, (lstar, gamma)
    raise ValueError(f"unknown solver kind: {kind}")


def run_solver_spec(spec: dict, prob, T: int, seed: int, theory: dict,
                    hyper_tuned_default: bool = False,
                    eval_stride: int | None = None) -> RunTrace:
    """Dispatch one solver spec dict to the matching solver function."""
    solver, params = resolve_solver_spec(spec, theory, hyper_tuned_default)
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
            resolve_solver_spec(spec, theory, cfg.hyper_tuned)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    cells = []
    f_refs = {}
    for dim, instance in instances.items():
        theory = theories[dim]
        save_instance(outdir / f"instance_d{dim}.txt", instance,
                      seed=cfg.instance_seed, noise_sigma=cfg.noise_sigma)
        f_ref, ref_trace = reference_run(instance, cfg.reference_budget,
                                         seed=cfg.instance_seed,
                                         mu=1.0 / math.sqrt(cfg.T),
                                         oracle=oracle_cfg)
        f_refs[dim] = f_ref
        write_trace(outdir / f"reference_d{dim}.csv", ref_trace)

        prob = make_problem(instance, oracle_cfg, T=cfg.T)
        for spec in cfg.solvers:
            label = _solver_label(spec)
            for seed in cfg.seeds:
                try:
                    trace = run_solver_spec(spec, prob, cfg.T, seed, theory,
                                            cfg.hyper_tuned, cfg.eval_stride)
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

    report = BenchReport(config=cfg, cells=cells, F_ref=f_refs).finalize()
    _write_report_files(report, outdir)
    return report


def _fmt_iters(value: float, summary: dict) -> str:
    if math.isfinite(value):
        return f"{value:.0f}"
    return f"{summary['n_reached']}/{summary['n_runs']} reached"


def _write_report_files(report: BenchReport, outdir: Path) -> None:
    cfg = report.config
    lines = ["dim,solver,seed,status,iterations,final_gap"]
    for c in sorted(report.cells, key=lambda c: (c.dim, c.solver, c.seed)):
        iters = "" if c.iterations is None else str(c.iterations)
        gap = repr(float(c.final_gap)) if math.isfinite(c.final_gap) else "nan"
        lines.append(f"{c.dim},{c.solver},{c.seed},{c.status},{iters},{gap}")
    (outdir / "report.csv").write_text("\n".join(lines) + "\n")

    timing = ["dim,solver,seed,wall_seconds,oracle_seconds"]
    for c in sorted(report.cells, key=lambda c: (c.dim, c.solver, c.seed)):
        timing.append(f"{c.dim},{c.solver},{c.seed},"
                      f"{c.wall_seconds!r},{c.oracle_seconds!r}")
    (outdir / "timing.csv").write_text("\n".join(timing) + "\n")

    solver_names = [_solver_label(s) for s in cfg.solvers]
    entries = {}
    for key, s in report.summaries.items():
        med, p10, p90 = (_fmt_iters(s[f"{q}_iterations"], s)
                         for q in ("median", "p10", "p90"))
        entries[key] = f"{med} [{p10}, {p90}]"
    width = max(len(t) for t in [*solver_names, *entries.values()]) + 2
    text = [f"iterations to reach precision {cfg.target_precision:g} "
            f"(nearest-rank median over {len(cfg.seeds)} seeds, [p10, p90])", ""]
    text.append("dim".ljust(8) + "".join(n.ljust(width) for n in solver_names))
    for dim in cfg.dims:
        text.append(f"{dim}".ljust(8) + "".join(
            entries[(dim, name)].ljust(width) for name in solver_names))
    text.append("")
    for dim in cfg.dims:
        text.append(f"F_ref(d={dim}) = {report.F_ref[dim]!r}")
    for warning in report.warnings:
        text.append(f"WARNING: {warning}")
    (outdir / "summary.txt").write_text("\n".join(text) + "\n")

    echo = {
        "dims": list(cfg.dims), "oracle": dict(cfg.oracle),
        "solvers": [dict(s) for s in cfg.solvers], "T": cfg.T,
        "seeds": list(cfg.seeds), "target_precision": cfg.target_precision,
        "noise_sigma": cfg.noise_sigma, "output_dir": str(cfg.output_dir),
        "instance_seed": cfg.instance_seed,
        "reference_budget": cfg.reference_budget,
        "hyper_tuned": cfg.hyper_tuned, "eval_stride": cfg.eval_stride,
    }
    (outdir / "config_echo.yaml").write_text(yaml.safe_dump(echo, sort_keys=True))


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
