from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqtorsion import classify as classify_mod
from mqtorsion import poly
from mqtorsion.ellcurve import CurveError, EllipticCurve
from mqtorsion.intutil import is_squarefree
from mqtorsion.poly import TowerDomain
from mqtorsion.classify import (
    ClassifyError,
    RankTable,
    VerificationError,
    classify,
    default_ranks,
    exceptional_curves,
    exceptional_registry,
    rank_from_table,
    unconditional_floor,
    verify_exceptional,
)
from mqtorsion.qfield import MultiQuadField, QQ_FIELD, all_subfields
from reference import tower_poly_roots_by_norm

# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def with_ranks(records):
    return default_ranks().merged_with(records)


class TestRankTable:
    def test_shipped_defaults(self):
        table = default_ranks()
        assert rank_from_table("X1(14)", MultiQuadField([-7]), table) == 0
        assert rank_from_table("X1(15)", MultiQuadField([-3, 5]), table) == 0
        assert rank_from_table("X1(16)", MultiQuadField([-1, 2]), table) == 0
        assert rank_from_table("X1(18)", MultiQuadField([-3]), table) == 0

    def test_unknown_when_missing(self):
        assert rank_from_table("X1(11)", MultiQuadField([2]), default_ranks()) is None

    def test_anonymous_rank_refused(self):
        with pytest.raises(ClassifyError):
            RankTable.from_records([{"jacobian": "X1(11)", "twist": 1, "rank": 0, "source": " "}])

    def test_negative_rank_refused(self):
        with pytest.raises(ClassifyError):
            RankTable.from_records([{"jacobian": "X1(11)", "twist": 1, "rank": -1, "source": "x"}])


class TestTargets:
    def test_unsupported(self):
        with pytest.raises(ClassifyError):
            classify("17", QQ_FIELD)

    def test_zeta_precondition(self):
        from mqtorsion.mwtors import PreconditionError

        with pytest.raises(PreconditionError):
            classify("6x6", MultiQuadField([2]))


class TestFloors:
    def test_floor_14(self):
        assert unconditional_floor("14", MultiQuadField([-7])) == 2
        assert unconditional_floor("14", MultiQuadField([5])) == 0

    def test_floor_15(self):
        assert unconditional_floor("15", MultiQuadField([5])) == 1
        assert unconditional_floor("15", MultiQuadField([-15])) == 1
        assert unconditional_floor("15", MultiQuadField([-3, 5])) == 2
        assert unconditional_floor("15", MultiQuadField([-3])) == 0


class TestClassifyGoldens:
    def test_14_exactly_two(self):
        v = classify("14", MultiQuadField([-7]))
        assert v.existence == "exactly" and v.count == 2
        assert sorted(c.name for c in v.exceptional) == ["14-I", "14-II"]

    def test_15_exactly_two(self):
        v = classify("15", MultiQuadField([-3, 5]))
        assert v.existence == "exactly" and v.count == 2

    def test_13_none_with_rank_zero(self):
        table = with_ranks(
            [{"jacobian": "X1(13)", "twist": d, "rank": 0, "source": "t"} for d in (1, -3, 5, -15)]
        )
        v = classify("13", MultiQuadField([-3, 5]), table)
        assert v.existence == "none"

    def test_16_18_none_with_rank_zero(self):
        for target, gens in (("16", (-2,)), ("18", (2,))):
            label = {"16": "X1(16)", "18": "X1(18)"}[target]
            K = MultiQuadField(gens)
            table = with_ranks(
                [{"jacobian": label, "twist": d, "rank": 0, "source": "t"} for d in K.twist_classes()]
            )
            v = classify(target, K, table)
            assert v.existence == "none" and v.equivalence_direction == "one_way"

    def test_11_infinitely_many(self):
        table = with_ranks([{"jacobian": "X1(11)", "twist": 1, "rank": 1, "source": "t"}])
        v = classify("11", QQ_FIELD, table)
        assert v.existence == "infinitely_many"

    def test_one_way_never_overclaims(self):
        for target in ("13", "16", "18"):
            label = f"X1({target})"
            table = with_ranks([{"jacobian": label, "twist": 1, "rank": 2, "source": "t"}])
            v = classify(target, QQ_FIELD, table)
            assert v.existence == "no_conclusion"

    def test_products_iff(self):
        table = with_ranks(
            [{"jacobian": "X1(2,10)", "twist": d, "rank": r, "source": "t"}
             for d, r in ((1, 1), (5, 0))]
        )
        v = classify("2x10", MultiQuadField([5]), table)
        assert v.existence == "infinitely_many" and v.equivalence_direction == "iff"

    def test_unknown_rank_conditional(self):
        v = classify("14", MultiQuadField([5]))
        assert v.existence == "no_conclusion" and v.condition
        v = classify("15", MultiQuadField([5, 7]))  # floor 1, rank unknown
        assert v.existence == "at_least" and v.count == 1 and v.condition

    def test_monotone_in_rank_data(self):
        """Adding entries only moves unknown verdicts to determined ones."""
        strength = {"none": 2, "exactly": 2, "infinitely_many": 2,
                    "at_least": 1, "no_conclusion": 0}
        K = MultiQuadField([2])
        before = classify("11", K)
        table = with_ranks(
            [{"jacobian": "X1(11)", "twist": d, "rank": 0, "source": "t"} for d in (1, 2)]
        )
        after = classify("11", K, table)
        assert strength[after.existence] >= strength[before.existence]

    def test_exhaustive_logic_table(self):
        """Every target x subfield of Q(sqrt(-1),sqrt(2),sqrt(-3),sqrt(5),sqrt(-7))
        x rank scenario produces exactly a licensed verdict shape."""
        from mqtorsion.mwtors import PreconditionError

        fields = all_subfields((-1, 2, -3, 5, -7))
        targets = ["11", "13", "14", "15", "16", "18", "2x10", "2x12", "3x9", "4x8", "6x6"]
        one_way = {"13", "16", "18"}
        for target in targets:
            label = {"11": "X1(11)", "13": "X1(13)", "14": "X1(14)", "15": "X1(15)",
                     "16": "X1(16)", "18": "X1(18)", "2x10": "X1(2,10)",
                     "2x12": "X1(2,12)", "3x9": "X1(3,9)", "4x8": "X1(4,8)",
                     "6x6": "X1(6,6)"}[target]
            for K in fields:
                for rank in (0, 1, None):
                    if rank is None:
                        table = RankTable(())
                    else:
                        table = with_ranks(
                            [{"jacobian": label, "twist": d, "rank": rank if d == 1 else 0,
                              "source": "t"} for d in K.twist_classes()]
                        )
                    try:
                        v = classify(target, K, table)
                    except PreconditionError:
                        continue
                    floor = unconditional_floor(target, K)
                    if rank == 0:
                        assert v.existence == ("exactly" if floor else "none")
                        if floor:
                            assert v.count == floor
                    elif rank == 1 and target in one_way:
                        assert v.existence == "no_conclusion"
                    elif rank == 1:
                        assert v.existence == "infinitely_many"
                    else:
                        assert v.existence in ("at_least", "no_conclusion")
                        assert v.existence != "none" and v.existence != "infinitely_many"


class TestExceptionalCurves:
    def test_14_over_q_sqrt_minus7(self):
        assert len(exceptional_curves("14", MultiQuadField([-7]))) == 2

    def test_15_over_compositum(self):
        got = exceptional_curves("15", MultiQuadField([5, -15]))
        assert sorted(c.name for c in got) == ["15-I", "15-II"]

    def test_14_empty_without_sqrt_minus7(self):
        assert exceptional_curves("14", MultiQuadField([5])) == []

    def test_curves_are_nonsingular_and_distinct(self):
        seen = set()
        for c in exceptional_registry():
            E = c.curve()
            assert E.discriminant()
            seen.add((c.target, c.name))
        assert len(seen) == 4


class TestVerifyExceptional:
    @pytest.mark.parametrize("name", ["14-I", "14-II", "15-I", "15-II"])
    def test_certification(self, name):
        curve = next(c for c in exceptional_registry() if c.name == name)
        report = verify_exceptional(curve)
        assert len(report["primes_checked"]) >= 15
        if curve.target == 15:
            assert any("order-15" in s for s in report["steps"])

    def test_vacuous_n1(self):
        curve = exceptional_registry()[0]
        assert verify_exceptional(curve, 1)["steps"] == ["vacuous"]

    def test_failure_detected(self):
        # n = 9 does not divide the point counts of the 14-curves
        curve = next(c for c in exceptional_registry() if c.name == "14-I")
        with pytest.raises(VerificationError):
            verify_exceptional(curve, 9)


SQUAREFREE = [d for d in range(-50, 51) if d not in (0, 1) and is_squarefree(d)]
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def tower_curves(draw):
    """(K, E, n, x0): K = Q(sqrt(d)), squarefree |d| <= 50, and either a
    curve over K with a point of order n in {3, 5, 7} at x = x0, or a Tate
    normal form E(b, c) with b and c drawn from K, x0 = None.

    The curves with a point of order n are y^2 + a1 xy + a3 y = x^3 (n = 3)
    and the Tate normal forms E(t, t) and E(t^3 - t^2, t^2 - t), whose point
    (0, 0) has order 5 and 7, moved by x -> x + sqrt(d) to x0 = -sqrt(d).
    At x0 = 0 the norm would have the repeated factor x^2, which the norm
    route splits only by Euclid over Q, too slow at degree 48."""
    K = MultiQuadField([draw(st.sampled_from(SQUAREFREE))])
    root_d = K.sqrt_gen(K.gens[0])
    elem = lambda: K.from_rational(draw(SMALL)) + root_d.scale(*draw(SMALL).as_integer_ratio())
    n = draw(st.sampled_from([3, 5, 7]))
    zero, one, t = K.zero(), K.one(), elem()
    if draw(st.booleans()):
        if n == 3:
            a1, a2, a3 = t, zero, draw(st.sampled_from([one, t + one]))
        else:
            b, c = (t, t) if n == 5 else (t * t * t - t * t, t * t - t)
            a1, a2, a3 = one - c, -b, -b
        # x = x' + r on y^2 + a1 xy + a3 y = x^3 + a2 x^2, r = sqrt(d)
        r, x0 = root_d, -root_d
        ainvs = [a1, a2 + r.scale(3), a3 + r * a1, (r * a2).scale(2) + (r * r).scale(3), r * r * (r + a2)]
    else:
        x0 = None
        b, c = t, elem()
        ainvs = [one - c, -b, -b, zero, zero]
    try:
        E = EllipticCurve(TowerDomain(K), ainvs)
    except CurveError:
        E = None
    return K, E, n, x0


class TestRootSearch:
    """`classify._tower_poly_roots`, the roots of a polynomial over Q(sqrt(d))
    from its p-adic roots, against the roots from the factors of its norm
    to Q (`reference`)."""

    @PROPERTY
    @given(tower_curves())
    def test_kill_polynomial_roots_match_the_norm_route(self, drawn):
        K, E, n, x0 = drawn
        if E is None:  # a singular model
            return
        kill = poly.kill_poly(E.b_invariants(), n, E.domain).coeffs
        roots = classify_mod._tower_poly_roots(kill, K)
        assert len(set(roots)) == len(roots)
        assert set(roots) == set(tower_poly_roots_by_norm(kill, K))
        if x0 is not None:
            assert x0 in roots

    @pytest.mark.parametrize("name", ["14-I", "14-II", "15-I", "15-II"])
    def test_shipped_curves_match_the_norm_route(self, name):
        curve = next(c for c in exceptional_registry() if c.name == name)
        E, K = curve.curve(), curve.field()
        for n in (2,) if curve.target == 14 else (3, 5):
            kill = poly.kill_poly(E.b_invariants(), n, E.domain).coeffs
            roots = classify_mod._tower_poly_roots(kill, K)
            assert roots and set(roots) == set(tower_poly_roots_by_norm(kill, K))

    def test_roots_mod_p_that_pair_into_no_root_of_k(self, monkeypatch):
        """x^2 - 3 over Q(sqrt(-7)): both images have the roots +-5 mod 11,
        and the pairs rebuild to fractions, but sqrt(3) is not in K, so the
        exact check over K rejects every candidate."""
        K = MultiQuadField([-7])
        f = (K.from_rational(-3), K.zero(), K.one())
        p, s = classify_mod._split_prime(f, -7)
        assert p == 11
        assert all(poly.mp_roots(classify_mod._embed(f, t, p), p) == [5, 6] for t in (s, p - s))
        checked = []
        peval = poly.peval

        def counted(dom, g, x):
            if isinstance(dom, TowerDomain):
                checked.append(x)
            return peval(dom, g, x)

        monkeypatch.setattr(poly, "peval", counted)
        assert classify_mod._tower_poly_roots(f, K) == []
        assert checked and all(not x.is_rational() or x * x != K.from_rational(3) for x in checked)

    def test_rational_roots_and_a_root_with_both_parts(self):
        K = MultiQuadField([5])
        x1 = K.from_rational(Fraction(-2, 3))
        x2 = K.from_rational(Fraction(7, 4)) + K.sqrt_gen(5).scale(-5, 6)
        # (x - x1)(x - x2)(x^2 - 2): two roots in K, two outside
        f = poly.pmul(TowerDomain(K), poly.pmul(TowerDomain(K), (-x1, K.one()), (-x2, K.one())),
                      (K.from_rational(-2), K.zero(), K.one()))
        assert set(classify_mod._tower_poly_roots(f, K)) == {x1, x2}
