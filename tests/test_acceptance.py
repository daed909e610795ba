"""Acceptance suite: the exit criteria of the build, one test per criterion.

Every assertion is exact (integer or group equality, no tolerances).  Each
test prints a one-line PASS record; the whole file targets a single desktop
core in well under five minutes.
"""

import random
import sys
from fractions import Fraction as Fr

import pytest

from mqtorsion import ff
from mqtorsion.classify import (
    RankTable,
    classify,
    default_ranks,
    exceptional_registry,
    verify_exceptional,
)
from mqtorsion.ellcurve import exhaustive_small_field_scan
from mqtorsion.groups import AbGroupStructure, structure_from_elements
from mqtorsion.hyperjac import (
    HyperCurve,
    JacError,
    symmetric_square_points,
    two_torsion_galois,
    zeta_order,
)
from mqtorsion.mwtors import (
    PreconditionError,
    get_model,
    jac_structure,
    model_registry,
    table_lookup,
    torsion_table,
)
from mqtorsion.poly import QQ, code_domain, low_degree_factors, pdivmod, splitting_quadratic_field
from mqtorsion.qfield import MultiQuadField, QQ_FIELD, all_subfields, sqrt_in_tower
from reference import (
    all_classes,
    eight_torsion_criterion,
    group_meet,
    hyperplane_avoiding,
    jac_neg,
    primitive_ints,
    primitive_kernel_poly_b,
    split_prime_counts,
    tower_elem,
)


def G(*summands):
    return AbGroupStructure.from_summands(summands)


def report(line):
    print(f"ACCEPTANCE {line}", file=sys.stderr)


CRITERION_1_ROWS = [
    ("X1(11)", 3, 2, [15]), ("X1(11)", 5, 2, [35]),
    ("X1(13)", 3, 2, [3, 19]), ("X1(13)", 5, 2, [19, 19]),
    ("X1(14)", 3, 2, [2, 6]), ("X1(14)", 13, 2, [2, 90]),
    ("X1(15)", 7, 2, [8, 8]), ("X1(15)", 13, 2, [2, 96]),
    ("X1(16)", 3, 2, [2, 2, 2, 10]), ("X1(16)", 5, 2, [2, 2, 4, 40]),
    ("X1(18)", 7, 2, [3, 651]), ("X1(18)", 11, 2, [12, 1092]),
    ("X1(2,10)", 3, 2, [2, 6]), ("X1(2,10)", 7, 2, [2, 30]),
    ("X1(2,12)", 5, 2, [2, 16]), ("X1(2,12)", 7, 2, [8, 8]),
    ("X1(3,9)", 5, 2, [6, 6]), ("X1(3,9)", 7, 2, [3, 21]),
    ("X1(4,8)", 3, 2, [4, 4]), ("X1(4,8)", 5, 2, [4, 8]),
    ("X1(6,6)", 5, 2, [6, 6]), ("X1(6,6)", 7, 2, [4, 12]),
]


def test_criterion_01_finite_field_structures():
    """Every quoted finite-field group structure reproduces exactly."""
    for label, p, f, expect in CRITERION_1_ROWS:
        assert jac_structure(get_model(label), p, f) == G(*expect), (label, p, f)
    report(f"1: PASS - all {len(CRITERION_1_ROWS)} finite-field structures match")


def test_criterion_02_zeta_oracle_equivalence():
    """Enumerated #J(F_{p^f}) equals L(1) for every genus-2 model and every
    good odd p <= 13, f in {1, 2}."""
    checked = 0
    for label in ("X1(13)", "X1(16)", "X1(18)"):
        model = get_model(label)
        for p in (3, 5, 7, 11, 13):
            for f in (1, 2):
                dom = code_domain(ff.make_field(p, f))
                try:
                    C = HyperCurve.from_ints(dom, model.f_coeffs, label)
                except JacError:
                    continue
                classes = all_classes(C)  # raises ZetaMismatch on failure
                assert len(classes) == zeta_order(C)[3]
                checked += 1
    assert checked >= 24
    report(f"2: PASS - enumeration == zeta over {checked} (model, field) pairs")


BASE_TORSION = {
    "X1(11)": [5], "X1(13)": [19], "X1(14)": [6], "X1(15)": [4],
    "X1(16)": [2, 10], "X1(18)": [21], "X1(2,10)": [6], "X1(2,12)": [4],
    "X1(3,9)": [3, 3], "X1(4,8)": [2, 4], "X1(6,6)": [2, 6],
}


def test_criterion_03_base_torsion():
    """J over Q (or the stated quadratic base) matches, with closed bounds."""
    for label, expect in BASE_TORSION.items():
        model = get_model(label)
        r = torsion_table(label, model.base_field(), "derive")
        assert r.closed and r.lower == G(*expect), label
    report("3: PASS - all 11 base torsion groups derived and closed")


def test_criterion_04_torsion_tables_over_towers():
    """Every multi-quadratic K spanned by subsets of {-1,2,-2,3,-3,5,-7}:
    derive closes and agrees with table mode on every tabulated case."""
    fields = all_subfields((-1, 2, -2, 3, -3, 5, -7))
    checked = 0
    for label in sorted(model_registry()):
        for K in fields:
            try:
                r = torsion_table(label, K, "derive")
            except PreconditionError:
                continue
            assert r.closed, (label, K.signature(), str(r.lower), str(r.upper))
            tab = table_lookup(label, K)
            if tab is not None:
                assert r.lower == G(*tab), (label, K.signature())
            checked += 1
    report(f"4: PASS - {checked} derive-mode rows closed over {len(fields)} fields")


def test_criterion_05_division_polynomial_criteria():
    """The 8-kernel factor data behind the order-8 case analysis."""
    # X1(15): exact divisibility by the two quadratics; splitting fields
    A, B = -27, 8694
    b = tuple(Fr(v) for v in (0, 2 * A, 4 * B, -A * A))
    prim8 = primitive_kernel_poly_b(b, 8)
    q1 = (-531, -66, 1)
    q2 = (981, 6, 1)
    assert not pdivmod(QQ, prim8, q1)[1] and not pdivmod(QQ, prim8, q2)[1]
    assert splitting_quadratic_field(q1) == 5
    assert splitting_quadratic_field(q2) == -3
    factors15 = low_degree_factors(primitive_ints(prim8))
    assert factors15 == [q1, q2]
    # X1(2,12): extracted factors split in Q(sqrt(-1)) and Q(sqrt(3))
    A, B = 54, 189  # normalized short model of the level-24 curve
    b = tuple(Fr(v) for v in (0, 2 * A, 4 * B, -A * A))
    factors = low_degree_factors(primitive_ints(primitive_kernel_poly_b(b, 8)))
    fields = sorted(splitting_quadratic_field(g) for g in factors if len(g) == 3)
    assert fields == [-1, 3]
    report("5: PASS - 8-kernel factors and splitting fields match the case lists")


def test_criterion_06_small_field_scan():
    """No elliptic curve over F_9 has a rational point of order 16."""
    witness, scanned = exhaustive_small_field_scan(ff.make_field(3, 2), 16)
    assert witness is None and scanned > 50000
    report(f"6: PASS - {scanned} curves over F_9 scanned, none with order-16 points")


def test_criterion_07_two_torsion_galois():
    """Weierstrass-orbit 2-part orders for the degree-5 model; the 2-torsion
    field of the level-14 cubic."""
    F16 = get_model("X1(16)").f_coeffs
    ladder = []
    for gens in ((), (-1,), (2,), (-1, 2)):
        K = MultiQuadField(gens) if gens else QQ_FIELD
        st, exact = two_torsion_galois(F16, K)
        assert exact
        ladder.append(st.order)
    assert ladder == [4, 8, 8, 16]
    quad = (414, -33, 1)  # the level-14 quadratic factor
    assert splitting_quadratic_field(quad) == -7
    st, exact = two_torsion_galois((13662, -675, 0, 1), MultiQuadField([-7]))
    assert exact and st.order == 4
    report("7: PASS - orbit 2-parts 4/8/8/16; level-14 2-torsion field is Q(sqrt(-7))")


def test_criterion_08_symmetric_square():
    """Line = q + 1 points, off-line injects into J, pair counts match; over
    F_9 and F_25 for each genus-2 model where the reduction is good (the
    level-18 model is singular mod 3, which must be detected)."""
    checked = 0
    for label in ("X1(13)", "X1(16)", "X1(18)"):
        model = get_model(label)
        for p in (3, 5):
            dom = code_domain(ff.make_field(p, 2))
            try:
                C = HyperCurve.from_ints(dom, model.f_coeffs, label)
            except JacError:
                assert (label, p) == ("X1(18)", 3)
                continue
            line, off, cmap = symmetric_square_points(C)
            q = p * p
            N1, N2, _, nJ, _ = zeta_order(C)
            assert len(line) == q + 1
            assert len(off) == nJ - 1
            assert len(line) + len(off) == N1 * (N1 + 1) // 2 + (N2 - N1) // 2
            checked += 1
    assert checked == 5
    report("8: PASS - symmetric-square line/injectivity/count checks on 5 good pairs")


def test_criterion_09_classifier_goldens():
    v = classify("14", MultiQuadField([-7]))
    assert v.existence == "exactly" and v.count == 2
    assert sorted(c.name for c in v.exceptional) == ["14-I", "14-II"]
    v = classify("15", MultiQuadField([-3, 5]))
    assert v.existence == "exactly" and v.count == 2
    for target, gens in (("13", (-3, 5)), ("16", (-2,)), ("18", (2,))):
        label = f"X1({target})"
        K = MultiQuadField(gens)
        table = default_ranks().merged_with(
            [{"jacobian": label, "twist": d, "rank": 0, "source": "external"}
             for d in K.twist_classes()]
        )
        assert classify(target, K, table).existence == "none"
        table = default_ranks().merged_with(
            [{"jacobian": label, "twist": d, "rank": 1 if d == 1 else 0, "source": "external"}
             for d in K.twist_classes()]
        )
        assert classify(target, K, table).existence == "no_conclusion"
    report("9: PASS - classifier goldens, one-way cases never overclaim")


def test_criterion_10_exceptional_curves():
    """Each shipped point has exact order n; and, apart from the points, n
    divides #E(F_p) at both primes above every good split p < 200."""
    for curve in exceptional_registry():
        verify_exceptional(curve)  # raises on failure
        counts = split_prime_counts(curve)
        assert len(counts) >= 15
        assert all(count % curve.target == 0 for pair in counts.values() for count in pair)
    report("10: PASS - all 4 exceptional curves certified (explicit points, counts checked apart)")


def test_criterion_11_pure_property_suites():
    # group axioms on a random finite-field Jacobian
    model = get_model("X1(13)")
    dom = code_domain(ff.make_field(3, 2))
    C = HyperCurve.from_ints(dom, model.f_coeffs)
    from mqtorsion.hyperjac import jac_add

    cls = all_classes(C)
    rng = random.Random(2024)
    for _ in range(150):
        a, b, c = (rng.choice(cls) for _ in range(3))
        assert jac_add(C, jac_add(C, a, b), c) == jac_add(C, a, jac_add(C, b, c))
        assert jac_add(C, a, jac_neg(C, a)) == C.identity()
    # meet lattice laws
    structures = [G(), G(2), G(6), G(2, 6), G(8, 8), G(2, 30), G(57), G(2, 2, 4, 40)]
    for a in structures:
        for b in structures:
            m = group_meet(a, b)
            assert m == group_meet(b, a)
            assert m.embeds_in(a) and m.embeds_in(b)
            for c in structures:
                assert group_meet(m, c) == group_meet(a, group_meet(b, c))
    # sqrt round trips in towers
    K = MultiQuadField([-3, 5])
    rng = random.Random(7)
    for _ in range(120):
        v = tower_elem(K, tuple(Fr(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
        s = sqrt_in_tower(v * v)
        assert s is not None and s * s == v * v
    # hyperplane lemma, exhaustive for n <= 4
    for n in (2, 3, 4):
        vecs = [tuple(m >> i & 1 for i in range(n)) for m in range(1, 2**n)]
        for x in vecs:
            for y in vecs:
                if x != y:
                    phi = hyperplane_avoiding(n, x, y)
                    assert sum(p * c for p, c in zip(phi, x)) % 2 == 1
                    assert sum(p * c for p, c in zip(phi, y)) % 2 == 1
    report("11: PASS - group axioms, meet lattice, sqrt round trips, hyperplane lemma")
