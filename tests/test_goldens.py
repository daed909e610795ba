"""Byte goldens: CLI calls that reach the Cantor law over Q, over Q(sqrt(-3))
and over F_49, F_121 and F_25 (the lazy Sylow census of J(F_{p^2}); over
F_25 the 2-Sylow subgroup of X1(16) has 128 elements, and J(F_25) of X1(13)
is Z/19 x Z/19, read from J(F_5) and its twist; over F_9 the 2-part (Z/2)^4
of X1(16) is fixed by its order and 2-rank), over F_31 (a census of J(F_p)
and its zeta check), the two largest reductions of X1(13), over F_961 (a
2-span, and the zeta data read from L_p) and over F_1009 (tables of
1009^2 entries and the count of N2 over F_p), the inert twists of X1(18) at
p = 5 to 13, the genus-2 twist loops restricted to K_S (X1(18) over a
degree-16 field), the derives over fields of 10 and 12 generators (X1(15)
and X1(18), whose `field` key lists 1,024 and 4,096 classes), the rational
classes of X1(16) and X1(18) reduced under
non-default primes, the 2-primary descent through tower fields up to
Q(sqrt(-1), sqrt(2), sqrt(-3), sqrt(5)) of degree 16 (over Q(sqrt(-1),
sqrt(3)), X1(2,12) halves a point of order 4 into four points of order 8),
the classification tables of models.json, the classify verdicts built on
the exceptional curves, and the full `verify --all` report (the torsion
matrix and the exceptional-curve checks), each compared byte for byte with
its committed output.  `matrix_derive.jsonl` pins every row of the derive
matrix, trace included: one sorted-key JSON line per (model, field) of the
11 models over the 52 subfields spanned by -1, 2, -2, 3, -3, 5, -7, less the
rows whose field fails the model's precondition.

Each call runs in a fresh interpreter, as a user runs it, so that no memo of
this test process is shared.  The same calls are diffed against the same
files through the installed console script in CI.
"""

import json
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
    "torsion_derive_X1-18_K-2,-3,5.json": "torsion --model X1(18) --field=-2,-3,5 --mode derive --format json",
    "torsion_derive_X1-18_K2,13,-15,23.json": "torsion --model X1(18) --field=2,13,-15,23 --mode derive --format json",
    "torsion_derive_X1-18_K-1,2,3,5,7,11,13,17,19,23,29,31.json": (
        "torsion --model X1(18) --field=-1,2,3,5,7,11,13,17,19,23,29,31 --mode derive --format json"
    ),
    "torsion_derive_X1-15_K-3,5,-1,2,7,11,13,17,19,23.json": (
        "torsion --model X1(15) --field=-3,5,-1,2,7,11,13,17,19,23 --mode derive --format json"
    ),
    "torsion_derive_X1-16_Q_p7.json": "torsion --model X1(16) --field=Q --primes 7 --mode derive --format json",
    "torsion_derive_X1-18_Q_p5,13.json": "torsion --model X1(18) --field=Q --primes 5,13 --mode derive --format json",
    "jac_structure_X1-18_p7_deg2.json": "jac-structure --model X1(18) --prime 7 --deg 2",
    "jac_structure_X1-18_p11_deg2.json": "jac-structure --model X1(18) --prime 11 --deg 2",
    "jac_structure_X1-16_p5_deg2.json": "jac-structure --model X1(16) --prime 5 --deg 2",
    "jac_structure_X1-16_p3_deg2.json": "jac-structure --model X1(16) --prime 3 --deg 2",
    "jac_structure_X1-13_p31_deg1.json": "jac-structure --model X1(13) --prime 31 --deg 1",
    "jac_structure_X1-13_p31_deg2.json": "jac-structure --model X1(13) --prime 31 --deg 2",
    "jac_structure_X1-13_p1009_deg1.json": "jac-structure --model X1(13) --prime 1009 --deg 1",
    "jac_structure_X1-13_p5_deg2.json": "jac-structure --model X1(13) --prime 5 --deg 2",
    "torsion_derive_X1-15_K-3,5.json": "torsion --model X1(15) --field=-3,5 --mode derive --format json",
    "torsion_derive_X1-15_K-1,2,-3,5.json": "torsion --model X1(15) --field=-1,2,-3,5 --mode derive --format json",
    "torsion_derive_X1-2,12_K-1,3.json": "torsion --model X1(2,12) --field=-1,3 --mode derive --format json",
    "torsion_table_X1-2,12_K-1,3.json": "torsion --model X1(2,12) --field=-1,3 --mode table --format json",
    "torsion_table_X1-11_K-7.json": "torsion --model X1(11) --field=-7 --mode table --format json",
    "classify_15_K-15,5.json": "classify --torsion 15 --field=-15,5 --format json",
    "classify_14_K-7.json": "classify --torsion 14 --field=-7 --format json",
    "classify_18_K-3.json": "classify --torsion 18 --field=-3 --format json",
    "verify_all.json": "verify --all --format json",
}


MATRIX = "matrix_derive.jsonl"
MATRIX_ROWS = """
import json
from mqtorsion import mwtors, qfield
for label in sorted(mwtors.model_registry()):
    model = mwtors.get_model(label)
    for K in qfield.all_subfields((-1, 2, -2, 3, -3, 5, -7)):
        try:
            r = mwtors.derive_torsion(model, K)
        except mwtors.PreconditionError:
            continue
        print(json.dumps(r.to_json(), sort_keys=True))
"""


def run_python(*argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    # block-buffered, as under a plain shell: the CLI's fast exit must flush
    env.pop("PYTHONUNBUFFERED", None)
    run = subprocess.run([sys.executable, *argv], capture_output=True, env=env)
    assert (run.returncode, run.stderr) == (0, b"")
    return run.stdout


def test_every_golden_file_has_a_call():
    assert sorted(p.name for p in GOLDENS.iterdir()) == sorted([*CALLS, MATRIX])


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_output_matches_golden(name):
    assert run_python("-m", "mqtorsion.cli", *CALLS[name].split()) == (GOLDENS / name).read_bytes()


def test_derive_matrix_matches_golden():
    got = run_python("-c", MATRIX_ROWS).decode().splitlines()
    expect = (GOLDENS / MATRIX).read_text().splitlines()
    for row, (a, b) in enumerate(zip(got, expect), 1):
        if a != b:
            key = json.loads(b)
            pytest.fail(f"row {row}, {key['label']} over {key['field']}, differs:\n got    {a}\n golden {b}")
    assert len(got) == len(expect) == 472
