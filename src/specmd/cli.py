"""Command-line interface: generate instances, run single solves, compute
reference values, and run benchmark campaigns."""

import argparse
import sys
from pathlib import Path

from .harness import (build_oracle, iterations_to_precision,
                      load_experiment_config, reference_run, run_bench,
                      run_solver_spec, theory_parameters, write_trace)
from .problem import load_instance, make_problem, save_instance, gen_instance


def _parse_kv_spec(text: str) -> dict:
    """Parse "kind:key=val,key=val" solver/oracle shorthand."""
    kind, _, rest = text.partition(":")
    out = {"kind": kind}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed option {item!r} in {text!r}")
            out[key] = _coerce(value)
    return out


def _coerce(value: str):
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered == "theory":
        return "theory"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _cmd_generate(args):
    box = gen_instance(args.dim, args.noise_sigma, args.seed)
    save_instance(args.out, box, seed=args.seed, noise_sigma=args.noise_sigma)
    print(f"wrote d={args.dim} instance (rho={box.radius:g}) to {args.out}")
    return 0


def _cmd_run(args):
    box, meta = load_instance(args.instance)
    oracle_cfg = build_oracle(_parse_kv_spec(args.oracle))
    solver_spec = _parse_kv_spec(args.solver)
    prob = make_problem(box, oracle_cfg, T=args.T, mu=args.mu)
    theory = theory_parameters(box, oracle_cfg, args.T)
    trace = run_solver_spec(solver_spec, prob, args.T, args.seed, theory)
    trace.config_echo["instance"] = meta
    write_trace(args.out, trace)
    line = (f"{solver_spec['kind']}: final F(X_ag) = {trace.final_F_ag:.6g}, "
            f"best = {trace.best_F_ag:.6g}, "
            f"{trace.total_seconds:.2f}s ({trace.oracle_seconds:.2f}s in oracle)")
    if args.f_ref is not None:
        iters = iterations_to_precision(trace, args.f_ref, args.target)
        line += f", iterations to {args.target:g}: {iters}"
    print(line)
    print(f"trace written to {args.out}")
    return 0


def _cmd_reference(args):
    box, _ = load_instance(args.instance)
    value, trace = reference_run(box, args.budget, seed=args.seed)
    if args.out:
        write_trace(args.out, trace)
    print(f"F_ref = {value!r}")
    return 0


def _cmd_bench(args):
    cfg = load_experiment_config(args.config)
    report = run_bench(cfg)
    summary = Path(cfg.output_dir) / "summary.txt"
    sys.stdout.write(summary.read_text())
    errors = sum(1 for c in report.cells if c.status == "error")
    if errors:
        print(f"{errors} cell(s) failed; see report.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specmd",
        description="Oblivious stochastic mirror descent for box-constrained "
                    "maximum-eigenvalue minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic box instance")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one solver on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", required=True,
                   help='e.g. "acsmd:degree=1" | "smd:degree=2,scale=0.5" | '
                        '"levy:D=theory" | "lan:L=theory,tuned=true" | '
                        '"relative:Lstar=theory"')
    p.add_argument("--oracle", default="smoothing:k=1,epsilon=0.01",
                   help='e.g. "smoothing:k=1,epsilon=0.01" (exact eigen-solve '
                        'per draw) | "power:p=21,square_input=true" | "exact"; '
                        'other options are rejected')
    p.add_argument("--T", type=int, default=1000)
    p.add_argument("--mu", type=float, default=None,
                   help="regularization weight (default 1/sqrt(T))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f-ref", type=float, default=None,
                   help="reference value for the iterations-to-precision line")
    p.add_argument("--target", type=float, default=1e-2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("reference", help="compute a reference objective value")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional reference trace file")
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("bench", help="run a benchmark campaign from a YAML config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"specmd: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
