#!/usr/bin/env python3
"""End-to-end smoke run of one bounded-error query on a 100 000-node chain.

    python scripts/big_chain.py

Builds a 100 000-node binary chain with ``generators.binary_chain_tree``,
writes it as a tree file in a temporary directory, and answers one
``sensbn query ... --approx epsilon=0.1 alpha=0.9 eta=0.09`` on it in a
``python -m sensbn`` child process on this checkout's sources.  The
printed posterior must equal, to the six decimals printed, what
``truncation.truncated_query`` answers in this process on the tree that
was written.  Prints the wall time of each step and the query process's
own peak resident set size, and exits 1 if the child exits non-zero or an
answer differs.  It also loads the file in this process and prints the wall time
of each load phase (parse, construct, check) and the memory the loaded
tree keeps under ``tracemalloc`` (that traced load is the slowest step).
"""

import gc
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sensbn import accept, fileio, generators, truncation  # noqa: E402
from sensbn.engine import QuerySession  # noqa: E402
from sensbn.model import Evidence  # noqa: E402

LENGTH = 100_000
QUERY = "v50000"
# two items inside the radius, one far beyond it
EVIDENCE = {"v49997": 0, "v50004": 1, "v50400": 1}
APPROX = ("epsilon=0.1", "alpha=0.9", "eta=0.09")
# A child's ru_maxrss starts from its parent's peak at exec, and this
# process has built the chain by then; so the query process is started
# from this small launcher, whose own peak stays far below the child's.
# It prints the child's peak RSS (kB) and wall time (s) as the last line of
# its standard error.
LAUNCHER = (
    "import resource, subprocess, sys, time\n"
    "started = time.perf_counter()\n"
    "code = subprocess.run(sys.argv[1:]).returncode\n"
    "wall = time.perf_counter() - started\n"
    "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "print(peak, wall, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def load_phases(path: Path) -> dict[str, float]:
    """Seconds spent in each phase of ``fileio.load_tree(path)``: the line
    loop (parse), the factor stacks and the tree's columns (construct), and
    ``accept.check_tree_consistency`` (check), which ``accept.accept_batches``
    calls by its module-level name."""
    check = accept.check_tree_consistency
    checking = []

    def timed_check(tree):
        started = time.perf_counter()
        check(tree)
        checking.append(time.perf_counter() - started)

    started = time.perf_counter()
    with path.open() as lines:
        columns = fileio._parse_lines(lines, str(path))
    parsed = time.perf_counter()
    accept.check_tree_consistency = timed_check
    try:
        accept.accept_batches(*columns)
    finally:
        accept.check_tree_consistency = check
    built = time.perf_counter() - parsed
    return {"parse": parsed - started, "construct": built - checking[0], "check": checking[0]}


def retained_mb(path: Path) -> tuple[float, float]:
    """The MB that a tree loaded from ``path`` keeps under ``tracemalloc``,
    and the peak while loading it."""
    gc.collect()
    tracemalloc.start()
    try:
        tree = fileio.load_tree(path)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept / 1e6, peak / 1e6


def main() -> int:
    started = time.perf_counter()
    tree = generators.binary_chain_tree(np.random.default_rng(2024), LENGTH)
    built = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "chain.tree"
        fileio.save(path, fileio.serialize_tree(tree))
        written = time.perf_counter()
        argv = [
            sys.executable, "-c", LAUNCHER,
            sys.executable, "-m", "sensbn", "query", str(path), "--query", QUERY,
            "--evidence", ",".join(f"{k}={v}" for k, v in EVIDENCE.items()),
            "--approx", *APPROX,
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        *child_err, measured = proc.stderr.splitlines() or [""]
        size_mb = path.stat().st_size / 1e6
        phases = load_phases(path)
        kept_mb, load_peak_mb = retained_mb(path)
    peak_kb, wall = measured.split()
    print(proc.stdout, end="")
    print(
        f"{LENGTH}-node chain: built in {built - started:.2f} s, written ({size_mb:.1f} MB) "
        f"in {written - built:.2f} s; sensbn query process {float(wall):.2f} s wall, "
        f"peak RSS {int(peak_kb) / 1024:.1f} MB"
    )
    print(
        "in process: load_tree "
        + ", ".join(f"{name} {seconds:.3f} s" for name, seconds in phases.items())
        + f"; the loaded tree keeps {kept_mb:.1f} MB under tracemalloc "
        f"(peak {load_peak_mb:.1f} MB while loading)"
    )
    if proc.returncode:
        print(f"sensbn query exited {proc.returncode}: {' '.join(child_err)}", file=sys.stderr)
        return 1
    ident, member = tree.resolve_query(QUERY)
    profile = truncation.DecayProfile(0.9, 0.09, 0.1)
    dist, _, plan = truncation.truncated_query(
        QuerySession(tree), ident, Evidence.of(EVIDENCE), profile
    )
    want = [f"{p:1.6f}" for p in tree.member_marginal(ident, member, dist.probs)]
    lines = proc.stdout.splitlines()
    got = [line.split()[1] for line in lines[2:4]]
    if not lines[0].endswith(f"mode approx radius={plan.radius}") or got != want:
        print(f"printed {lines[:4]}, in process {want} at radius {plan.radius}", file=sys.stderr)
        return 1
    if len(plan.retained_evidence) != 2:
        print(f"expected the far item dropped, kept {plan.retained_evidence}", file=sys.stderr)
        return 1
    print(f"posterior {got} equals truncated_query's at radius {plan.radius}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
