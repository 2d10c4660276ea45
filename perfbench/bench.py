"""Run one workload in this process and print its result as JSON.

    python3 perfbench/bench.py --workload cycles-solve --seed 1 --seconds 20 --trace 0

`run.py` starts this in a fresh process per workload.  The untraced run
(--trace 0) measures whole rounds of operations until --seconds of operation
time have passed and reports the end-to-end metrics.  The traced run (--trace 1)
runs the first round once with the timing wrappers and once without, and
reports the per-layer metrics; its counts repeat exactly for a given seed.
Every operation's output goes through its certificate check, outside the timing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 5
TAIL_OPS_ABOVE = 10  # op_tail_ms is a percentile with at least this many ops above it
# no operation starts after this much wall time, so a run ends within its time limit
WALL_LIMIT_S = 140.0


def import_program():
    """Import refcycle from this checkout's sources, never from elsewhere."""
    package = SRC / "refcycle"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import refcycle

    if Path(refcycle.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: refcycle was imported from {refcycle.__file__}")
    import workloads

    return workloads


class Gate:
    """Checks each distinct output once and remembers what it found."""

    def __init__(self) -> None:
        self.seen: dict[tuple[str, str], list[str]] = {}
        self.violations: list[str] = []

    def check(self, op, output) -> str:
        digest = op.digest(output)
        key = (op.key, digest)
        if key not in self.seen:
            try:
                found = op.check(output)
            except Exception as exc:  # a malformed output is a wrong output
                found = [f"check raised {exc!r}"]
            self.seen[key] = found
            self.violations += [f"{op.key}: {v}" for v in found]
        return digest


def run_op(op, span=None):
    """(seconds, ok, output or None); ok is False when the op raised or exited non-zero."""
    try:
        elapsed, ok, raw = op.execute(span) if span else op.execute()
    except Exception as exc:  # the benchmark boundary: count it and keep running
        print(f"perfbench: {op.key} raised {exc!r}", file=sys.stderr)
        return 0.0, False, None
    return elapsed, ok, op.output(raw) if ok else None


def rank(count: int, pct: float) -> int:
    """Nearest-rank position (1-based) of the pct-th percentile of count values."""
    return max(1, math.ceil(pct / 100.0 * count))


def setup(workload_cls, seed: int, scratch: Path):
    """Generate the inputs and run the warm-up ops, several times.

    Returns the last workload set up and the set-up times.
    """
    times = []
    workload = None
    for k in range(SETUP_REPEATS):
        if workload is not None:  # free the previous inputs before making new ones
            workload = None
            shutil.rmtree(scratch / f"inputs{k - 1}")
        start = time.perf_counter()
        workdir = scratch / f"inputs{k}"
        workdir.mkdir()
        workload = workload_cls()
        workload.setup(seed, workdir)
        for op in workload.warmup:
            run_op(op)
        times.append(time.perf_counter() - start)
    return workload, times


def timed_phase(workload, seconds: float, started: float, gate: Gate) -> dict:
    """Whole rounds until ``seconds`` of operation time have passed and at
    least TAIL_OPS_ABOVE ops lie above the tail percentile.

    ops_per_s is the median over rounds of each round's completed ops per
    second of operation time, so one round slowed by the machine moves it less.
    """
    latencies, failed = [], 0
    throughputs = []
    busy = 0.0

    def more():
        count = len(latencies)
        return busy < seconds or count - rank(count, workload.tail_pct) < TAIL_OPS_ABOVE

    while more() and time.perf_counter() - started < WALL_LIMIT_S:
        round_ops = workload.rounds[len(throughputs) % len(workload.rounds)]
        round_busy, round_done = 0.0, 0
        for op in round_ops:
            if time.perf_counter() - started >= WALL_LIMIT_S:
                break
            elapsed, ok, output = run_op(op)
            latencies.append(elapsed)
            round_busy += elapsed
            if ok:
                round_done += 1
                gate.check(op, output)
            else:
                failed += 1
        busy += round_busy
        throughputs.append(round_done / round_busy if round_busy else 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = len(latencies) - failed
    return {
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            "ops_per_s": (statistics.median(throughputs), "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1000.0 * sorted(latencies)[rank(len(latencies), workload.tail_pct) - 1],
                           "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": (done / len(latencies), "share"),
        },
        "notes": {"rounds": len(throughputs), "tail_percentile": workload.tail_pct,
                  "round_ops_per_s": [round(x, 4) for x in throughputs]},
    }


def traced_phase(workload, gate: Gate) -> dict:
    import tracing

    tracer = tracing.Tracer()
    untraced_s = 0.0
    failed = attempted = 0
    for i, op in enumerate(workload.rounds[0]):
        results = {}
        # alternate which run goes first so warm caches favour neither
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    results[traced] = run_op(op, lambda: tracer.operation(i, op.command, op.argv))
            else:
                results[traced] = run_op(op)
        attempted += 1
        untraced_s += results[False][0]
        if not (results[True][1] and results[False][1]):
            failed += 1
            continue
        digests = [gate.check(op, results[flag][2]) for flag in (False, True)]
        if digests[0] != digests[1]:
            gate.violations.append(f"{op.key}: traced and untraced outputs differ")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": tracing.layer_metrics(tracer, untraced_s),
        "notes": {"spans": len(tracer.spans)},
    }


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - started

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    gate = Gate()
    try:
        workload, setup_times = setup(workload_cls, args.seed, scratch)
        if args.trace:
            result = traced_phase(workload, gate)
        else:
            result = timed_phase(workload, args.seconds, started, gate)
            result["metrics"]["setup_s"] = (import_s + statistics.median(setup_times), "s")
            result["notes"].update(import_s=round(import_s, 4),
                                   setup_runs_s=[round(t, 4) for t in setup_times])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass

    for violation in gate.violations[:20]:
        print(f"perfbench: certificate violated: {violation}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload}  {name:<42} {value:.6g} {unit}")
    print(f"{args.workload}  notes {json.dumps(result['notes'])}")
    print(json.dumps({
        "correct": not gate.violations,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
