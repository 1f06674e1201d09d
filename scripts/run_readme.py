#!/usr/bin/env python3
"""Run every ``sensbn`` command of the README's CLI block.

    python scripts/run_readme.py

Each command runs as ``python -m sensbn`` on this checkout's sources, in
one temporary directory, so files a command writes (``asia.tree``) are
there for the next.  Fixture names resolve in ``tests/data`` and then in
the packaged fixtures.  Prints each command and its output, and exits 1
if any command exits non-zero.
"""

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(text: str) -> list[str]:
    """The commands of the first ``bash`` block after the CLI heading,
    with continued lines joined and comments dropped."""
    lines = text[text.index("\n## CLI\n") :].splitlines()
    start = lines.index("```bash") + 1
    block = lines[start : lines.index("```", start)]
    commands, current = [], ""
    for line in block:
        if not current and (not line.strip() or line.lstrip().startswith("#")):
            continue
        current += line.strip()
        if current.endswith("\\"):
            current = current[:-1] + " "
            continue
        commands.append(current)
        current = ""
    return commands


def main() -> int:
    commands = readme_commands((ROOT / "README.md").read_text())
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), SENSBN_FIXTURES=str(ROOT / "tests" / "data")
    )
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for command in commands:
            argv = shlex.split(command)
            if argv[0] != "sensbn":
                print(f"not a sensbn command: {command}", file=sys.stderr)
                return 1
            print(f"$ {command}", flush=True)
            proc = subprocess.run([sys.executable, "-m", "sensbn", *argv[1:]], cwd=work, env=env)
            if proc.returncode:
                print(f"exit {proc.returncode}: {command}", file=sys.stderr)
                failed += 1
    print(f"{len(commands)} commands, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
