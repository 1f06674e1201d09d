#!/usr/bin/env python3
"""End-to-end smoke run of one bounded-error query on a 100 000-node chain.

    python scripts/big_chain.py

Builds a 100 000-node binary chain with ``generators.binary_chain_tree``,
writes it as a tree file in a temporary directory, and answers one
``sensbn query ... --approx epsilon=0.1 alpha=0.9 eta=0.09`` on it in a
``python -m sensbn`` child process on this checkout's sources.  The
printed posterior must equal, to the six decimals printed, what
``truncation.truncated_query`` answers in this process on the tree that
was written.  Prints the wall time of each step and the child's peak
resident set size, and exits 1 if the child exits non-zero or an answer
differs.
"""

import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sensbn import fileio, generators, truncation  # noqa: E402
from sensbn.engine import QuerySession  # noqa: E402
from sensbn.model import Evidence  # noqa: E402

LENGTH = 100_000
QUERY = "v50000"
# two items inside the radius, one far beyond it
EVIDENCE = {"v49997": 0, "v50004": 1, "v50400": 1}
APPROX = ("epsilon=0.1", "alpha=0.9", "eta=0.09")


def main() -> int:
    started = time.perf_counter()
    tree = generators.binary_chain_tree(np.random.default_rng(2024), LENGTH)
    built = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "chain.tree"
        fileio.save(path, fileio.serialize_tree(tree))
        written = time.perf_counter()
        argv = [
            sys.executable, "-m", "sensbn", "query", str(path), "--query", QUERY,
            "--evidence", ",".join(f"{k}={v}" for k, v in EVIDENCE.items()),
            "--approx", *APPROX,
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        answered = time.perf_counter()
        size_mb = path.stat().st_size / 1e6
    # the only child this process has waited for
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(proc.stdout, end="")
    print(
        f"{LENGTH}-node chain: built in {built - started:.2f} s, written ({size_mb:.1f} MB) "
        f"in {written - built:.2f} s; sensbn query process {answered - written:.2f} s wall, "
        f"peak RSS {peak_mb:.1f} MB"
    )
    if proc.returncode:
        print(f"sensbn query exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
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
