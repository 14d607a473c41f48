"""Regenerate the golden CLI outputs in this directory from README's CLI block.

Every `qdl ...` line of the README's CLI block except `verify-all` (which
runs the test suite) is one example, named after its subcommand.  It is run
from a fresh temporary directory, and two files are written:

- <name>.cmd: a JSON object with the argv after `qdl` and the exit code;
- <name>.out: the exact bytes of stdout.

tests/test_golden.py runs the same examples and compares both.  A changed
.out or .cmd is a changed check, so list each regenerated file with its
reason in CHANGES.md.  Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
README = GOLDEN.parents[1] / "README.md"


def readme_examples() -> dict[str, list[str]]:
    """{subcommand: argv after `qdl`} for the README CLI block, verify-all excluded."""
    from qdl.cli import build_parser

    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = {}
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv or argv[0] != "qdl":
            continue
        name = build_parser().parse_args(argv[1:]).cmd
        if name in out:
            raise ValueError(f"README has two {name} examples, but a golden file "
                             "is named by its subcommand")
        if name != "verify-all":
            out[name] = argv[1:]
    return out


def run(argv: list[str], cwd: str) -> subprocess.CompletedProcess:
    """Run `qdl argv` from cwd with the qdl package this process imports."""
    import qdl

    src = os.path.dirname(os.path.dirname(os.path.abspath(qdl.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "qdl.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)


def main() -> int:
    for name, argv in readme_examples().items():
        with tempfile.TemporaryDirectory() as cwd:
            r = run(argv, cwd)
        cmd = {"argv": argv, "exit": r.returncode}
        (GOLDEN / f"{name}.cmd").write_text(json.dumps(cmd) + "\n")
        (GOLDEN / f"{name}.out").write_bytes(r.stdout)
        print(f"{name}: exit {r.returncode}, {len(r.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
