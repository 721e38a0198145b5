"""Command-line interface: generate instances, run single solves, compute
reference values, and run benchmark campaigns."""

import argparse
import re
import sys
from pathlib import Path

from .harness import (ExperimentConfig, build_oracle,
                      iterations_to_precision, load_experiment_config,
                      reference_run, run_bench, run_solver_spec,
                      theory_parameters, write_trace)
from .oracles import ExactOracleConfig, _check, _parse
from .problem import load_instance, make_problem, save_instance, gen_instance
from .solvers import SolverError

# `run`'s --T and --target defaults; `reference` anchors `run` at them, as a
# campaign anchors its cells, certified to within a tenth of the target
RUN_T, RUN_TARGET = 1000, 1e-2
ANCHOR_GAP = RUN_TARGET / 10


def _parse_kv_spec(text: str) -> dict:
    """Parse "kind:key=val,key=val" solver/oracle shorthand."""
    kind, _, rest = text.partition(":")
    out = {"kind": kind}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"malformed option {item!r} in {text!r}")
        out[key] = _parse(value)
    return out


def _cmd_generate(args):
    _check("dim", args.dim, "an integer >= 1")
    box = gen_instance(args.dim, args.noise_sigma, args.seed)
    save_instance(args.out, box, seed=args.seed, noise_sigma=args.noise_sigma)
    print(f"wrote d={args.dim} instance (rho={box.radius:g}) to {args.out}")
    return 0


def _cmd_run(args):
    _check("target", args.target, "positive and finite")
    if args.f_ref is not None:
        _check("f-ref", args.f_ref, "finite")
    _check("seed", args.seed, "an integer >= 0")
    box, meta = load_instance(args.instance)
    oracle_cfg = build_oracle(_parse_kv_spec(args.oracle))
    solver_spec = _parse_kv_spec(args.solver)
    prob = make_problem(box, oracle_cfg, T=args.T, mu=args.mu)
    theory = theory_parameters(box, oracle_cfg, args.T)
    trace = run_solver_spec(solver_spec, prob, args.T, args.seed, theory)
    trace.config_echo["instance"] = meta
    write_trace(args.out, trace)
    line = (f"{solver_spec['kind']}: final F(X_ag) = {trace.F_ag[-1]:.6g}, "
            f"best = {trace.F_ag.min():.6g}, "
            f"{trace.total_seconds:.2f}s ({trace.oracle_seconds:.2f}s in oracle)")
    if args.f_ref is not None:
        iters = iterations_to_precision(trace, args.f_ref, args.target)
        line += f", iterations to {args.target:g}: {iters}"
    print(line)
    print(f"trace written to {args.out}")
    return 0


def _cmd_reference(args):
    _check("budget", args.budget, "an integer >= 1")
    box, _ = load_instance(args.instance)
    mu = make_problem(box, ExactOracleConfig(), T=RUN_T).mu
    value, gap, _, trace = reference_run(box, mu, args.budget, ANCHOR_GAP)
    if args.out:
        write_trace(args.out, trace)
    note = "" if gap <= ANCHOR_GAP else " (uncertified; raise --budget)"
    print(f"F_ref = {value!r}, certified gap {gap:.3e} "
          f"after {int(trace.t[-1])} iterations{note}")
    return 0


def _cmd_bench(args):
    cfg = load_experiment_config(args.config)
    report = run_bench(cfg)
    summary = Path(cfg.output_dir) / "summary.txt"
    sys.stdout.write(summary.read_text())
    failed = [c for c in report.cells if c.status == "error"]
    for c in failed:
        print(f"d={c.dim} {c.solver} seed {c.seed}: {c.message}",
              file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specmd",
        description="Oblivious stochastic mirror descent for box-constrained "
                    "maximum-eigenvalue minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic box instance")
    p.add_argument("--dim", type=_parse, required=True)
    p.add_argument("--noise-sigma", type=_parse, default=0.2)
    p.add_argument("--seed", type=_parse, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one solver on an instance file")
    # argparse reads "-1e-3" or "-inf" as an option unless it matches this
    # pattern, and would refuse "--f-ref -1e-3" before the value's own check;
    # no option of this parser looks like a negative number
    p._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", required=True,
                   help='kind:key=value,...: smd, acsmd take degree; levy '
                        'D, M; lan L; relative Lstar, Gamma, each a finite '
                        'number or "theory" (the default), and tuned=true, '
                        'which divides D, L, Lstar (not M, Gamma) by a '
                        'tuning factor; e.g. "lan:L=theory,tuned=true"')
    p.add_argument("--oracle", default="smoothing:k=1,epsilon=0.01",
                   help='e.g. "smoothing:k=1,epsilon=0.01" (exact eigen-solve '
                        'per draw) | "power:p=21,square_input=true" | "exact"; '
                        'other options are rejected')
    p.add_argument("--T", type=_parse, default=RUN_T)
    p.add_argument("--mu", type=_parse, default=None,
                   help="regularization weight (default 1/sqrt(T))")
    p.add_argument("--seed", type=_parse, default=0)
    p.add_argument("--f-ref", type=_parse, default=None,
                   help="reference value for the iterations-to-precision line")
    p.add_argument("--target", type=_parse, default=RUN_TARGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("reference",
                       help="compute a certified reference objective value")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=_parse,
                   default=ExperimentConfig.reference_budget,
                   help="cap on the iterations of the anchor run")
    p.add_argument("--out", default=None, help="optional reference trace file")
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("bench", help="run a benchmark campaign from a YAML "
                       "config; exits 1 naming each failed cell")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) and not Path(args.out).parent.is_dir():
            raise ValueError(f"output directory {Path(args.out).parent} does not exist")
        return args.func(args)
    except (ValueError, OSError, SolverError) as err:
        print(f"specmd: error: {err}", file=sys.stderr)
        return 1 if isinstance(err, SolverError) else 2  # 1: a run failed


if __name__ == "__main__":
    raise SystemExit(main())
