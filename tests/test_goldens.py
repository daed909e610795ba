"""Byte goldens: CLI calls that reach the Cantor law over Q, over Q(sqrt(-3))
and over F_49, each compared byte for byte with its committed output.

Each call runs in a fresh interpreter, as a user runs it, so that no memo of
this test process is shared.  The same calls are diffed against the same
files through the installed console script in CI.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"

CALLS = {
    "torsion_derive_X1-13_K-3.json": "torsion --model X1(13) --field=-3 --mode derive --format json",
    "torsion_derive_X1-16_K-3.json": "torsion --model X1(16) --field=-3 --mode derive --format json",
    "torsion_derive_X1-18_K-3.json": "torsion --model X1(18) --field=-3 --mode derive --format json",
    "torsion_derive_X1-18_K-1,2,3.json": "torsion --model X1(18) --field=-1,2,3 --mode derive --format json",
    "jac_structure_X1-18_p7_deg2.json": "jac-structure --model X1(18) --prime 7 --deg 2",
}


def test_every_golden_file_has_a_call():
    assert sorted(p.name for p in GOLDENS.iterdir()) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_output_matches_golden(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = [sys.executable, "-m", "mqtorsion.cli", *CALLS[name].split()]
    run = subprocess.run(argv, capture_output=True, env=env)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (GOLDENS / name).read_bytes()
