#!/usr/bin/env python3
"""specmd benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The run repeats fixed rounds of program
work while the next round is expected to end within --seconds (at least
one round; the campaign's round alone takes 30 to 50 s on a 2-core x86
machine with one BLAS thread, so a campaign run times one round of ten
cells), checks every solver
run's output, and prints one JSON result as its last line: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Workloads and
metric names are those of BENCHMARK.json. A fuller report goes to
perfbench/out/. Exit status is 0 only when every check passed.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> int:
    """Time program set-up in a fresh interpreter: import, config, instances."""
    tic = time.perf_counter()
    import specmd  # noqa: F401  (the import is part of what is timed)
    from specbench.workloads import WORKLOADS
    WORKLOADS[args.workload].setup(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - tic}))
    return 0


def sample_setup(args, count) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "specmd" / "__init__.py").is_file():
        print(f"error: no specmd package under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2

    from specbench.envinfo import pin_blas_threads
    pin_blas_threads(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    from specbench.runner import execute
    report = execute(spec, args.workload, args.seed, args.seconds, bool(args.trace),
                     lambda count: sample_setup(args, count), SETUP_SAMPLES,
                     ROOT, BLAS_THREADS)
    result = report["result"]

    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print(f"workload {args.workload}: {report['rounds']} untraced and "
          f"{report['traced_rounds']} traced rounds, "
          f"failed_frac {report['failed_frac']!r} ratio, reached_frac "
          f"{report['reached_frac']!r} ratio (target {report['target']:g})")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in result["metrics"].items():
        row = name.removesuffix(".share")
        note = (f"  (should move {report['moves'][row][0]} on {report['moves'][row][1]})"
                if row in report["moves"] else "")
        print(f"  {name} = {m['value']!r} {m['unit']}{note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
