#!/usr/bin/env python3
"""Benchmark of sensbn: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload chain-exact --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the program from its
``src`` directory.  With ``--trace 0`` it sets up the workload several
times, runs one untimed warm-up round, then whole rounds of operations
until ``--seconds`` have passed, checks every answer and prints the
end-to-end metrics.  With ``--trace 1`` it times the program's public
functions one by one on the same inputs instead (see ``layers.py``).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# one BLAS thread for this process and its children; set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "op1_p50_ms": "ms",
    "op2_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Counts and timings of one run's operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.raw: dict[str, list[float]] = {"op1": [], "op2": []}
        self.norm: dict[str, list[float]] = {"op1": [], "op2": []}

    def record(self, kind: str, raw: float, norm: float) -> None:
        self.raw[kind].append(raw)
        self.norm[kind].append(norm)

    def run_round(self, ops, clocks, timed: bool, failures) -> None:
        for op in ops:
            self.attempted += 1
            on_time = (lambda raw, norm, kind=op.kind: self.record(kind, raw, norm)) if timed \
                else (lambda raw, norm: None)
            try:
                out = clocks(op.process).measure(op.run, on_time=on_time)
            except failures as exc:
                print(f"failed {op.kind}: {exc}", file=sys.stderr)
                self.failed += 1
                continue
            if not op.check(out):
                print(f"mismatch in {op.kind}", file=sys.stderr)
                self.mismatched += 1


def measure(wl, seconds: float, root: Path) -> dict:
    import calibrate
    from sensbn.errors import SensBnError

    made = {}

    def clocks(process: bool):
        if process not in made:
            made[process] = (calibrate.process_clock(calibrate.child_env(root)) if process
                             else calibrate.in_process_clock())
        return made[process]

    setups = []
    for _ in range(wl.setup_reps):
        # each set-up starts from the same heap: the last one's result freed
        wl.release()
        gc.collect()
        clock = clocks(wl.setup_process)
        clock.measure(wl.setup, on_time=lambda raw, norm: setups.append((raw, norm)))
        clock.flush()
    ops = wl.round()
    gc.collect()
    tally = Tally()
    failures = (SensBnError, calibrate.ExitStatus)
    tally.run_round(ops, clocks, False, failures)
    deadline = time.perf_counter() + seconds
    while True:
        tally.run_round(ops, clocks, True, failures)
        if time.perf_counter() >= deadline:
            break
    for clock in made.values():
        clock.flush()

    timed = tally.norm["op1"] + tally.norm["op2"]
    print(f"workload {wl.name}: {len(timed)} timed operations, times normalised "
          "to the calibration kernel; raw wall-clock medians for reference")
    print(f"  setup  x{len(setups):<5} normalised {statistics.median(s[1] for s in setups):.4f} s"
          f"   raw {statistics.median(s[0] for s in setups):.4f} s")
    for kind, what in wl.kinds.items():
        norm = sorted(tally.norm[kind])
        line = (f"  {kind}    x{len(norm):<5} normalised p50 {statistics.median(norm) * 1e3:.3f} ms"
                f"   raw p50 {statistics.median(tally.raw[kind]) * 1e3:.3f} ms")
        if len(norm) >= 100:
            line += f"   normalised p90 {norm[int(0.9 * len(norm))] * 1e3:.3f} ms"
        print(line + f"   ({what})")
    # a CLI user sees the peak of the process they started
    rusage = resource.RUSAGE_CHILDREN if any(op.process for op in ops) else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(s[1] for s in setups),
        "op1_p50_ms": statistics.median(tally.norm["op1"]) * 1e3,
        "op2_p50_ms": statistics.median(tally.norm["op2"]) * 1e3,
        "ops_per_s": len(timed) / sum(timed),
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
    }
    return {
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sensbn" / "__init__.py").is_file():
        print(f"error: no sensbn sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, work, ROOT)
    if args.trace:
        import layers

        result = layers.run(wl, args.seconds, work / "trace.json", ROOT)
    else:
        result = measure(wl, args.seconds, ROOT)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
