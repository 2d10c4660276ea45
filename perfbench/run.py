"""Benchmark entry point: runs each workload in a fresh process.

    python3 perfbench/run.py --workload cycles-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, one after another

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With every workload it names each metric
"<workload>/<metric>".  BLAS and OpenMP threads are capped at the CPUs this
process may use.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cycles-solve", "cycles-certify", "coupons-files", "coupons-batch")
CHILD_TIMEOUT_S = 170
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    cpus = str(len(os.sched_getaffinity(0)))
    env.update({name: cpus for name in THREAD_VARIABLES})
    return env


def run_workload(name: str, args) -> dict | None:
    """Run one workload in its own process; its result, or None if it failed."""
    command = [sys.executable, str(HERE / "bench.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"perfbench: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {name} exited with code {done.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "refcycle" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
