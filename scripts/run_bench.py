#!/usr/bin/env python3
"""Truncation benchmark sweep: writes the bench table for several radii.

Usage: python scripts/run_bench.py [out.tsv]
"""

import contextlib
import io
import sys
from pathlib import Path

# the checkout's own sources, so the script runs without installing the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sensbn import cli


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "bench.tsv"
    blocks = []
    for radius in (None, 10, 20, 40):
        buf = io.StringIO()
        argv = [
            "bench",
            "--lengths", "50,200,800",
            "--eps", "0.5,0.2,0.1,0.05",
            "--seed", "7",
        ]
        if radius is not None:
            argv += ["--radius", str(radius)]
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(code)
        label = "derived" if radius is None else str(radius)
        block = buf.getvalue().splitlines()
        header, rows = block[0], block[1:]
        if not blocks:
            blocks.append("radius_mode\t" + header)
        blocks.extend(f"{label}\t{row}" for row in rows)
    text = "\n".join(blocks) + "\n"
    with open(out_path, "w") as handle:
        handle.write(text)
    print(text)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
