"""Golden CLI outputs: every README example except verify-all, run from a
temporary directory, must exit as recorded and print its recorded stdout byte
for byte.  tests/golden/regenerate.py writes the files."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

SLOW = {"delta2d-check", "galois-sweep", "prop5-check"}  # about 2 s or more each
NAMES = sorted(p.stem for p in GOLDEN.glob("*.cmd"))


def test_readme_cli_block_lists_exactly_the_golden_files():
    assert sorted(regenerate.readme_examples()) == NAMES
    for name, argv in regenerate.readme_examples().items():
        assert json.loads((GOLDEN / f"{name}.cmd").read_text())["argv"] == argv, name


@pytest.mark.parametrize("name", [pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n
                                  for n in NAMES])
def test_golden_stdout(name, tmp_path):
    cmd = json.loads((GOLDEN / f"{name}.cmd").read_text())
    r = regenerate.run(cmd["argv"], str(tmp_path))
    assert r.returncode == cmd["exit"], r.stderr.decode()
    assert r.stdout == (GOLDEN / f"{name}.out").read_bytes()
