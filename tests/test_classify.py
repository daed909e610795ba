import math

import pytest

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
from mqtorsion.ellcurve import has_order
from reference import curve_mul, kill_poly, point_order, split_prime_counts, tower_poly_roots_by_norm


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
        assert verify_exceptional(curve) is None

    @pytest.mark.parametrize("name", ["14-I", "14-II", "15-I", "15-II"])
    def test_n_divides_the_point_counts(self, name):
        """The shipped curve checked apart from its shipped point: n divides
        #E(F_p) at both primes above every good split p < 200, counted by
        `reference.quadratic_reduction_counts`, over at least 15 primes."""
        curve = next(c for c in exceptional_registry() if c.name == name)
        counts = split_prime_counts(curve)
        assert len(counts) >= 15
        for p, pair in counts.items():
            assert len(pair) == 2 and all(count % curve.target == 0 for count in pair), (p, pair)

    @pytest.mark.parametrize("name", ["14-I", "14-II", "15-I", "15-II"])
    def test_has_order_matches_the_affine_order(self, name):
        """`has_order` on the shipped point P and on 2P, 3P and 5P against
        the order by the affine group law, at every n up to 2 * target: the
        one true order passes, every wrong n fails."""
        curve = next(c for c in exceptional_registry() if c.name == name)
        E, P = curve.curve(), curve.certificate()
        for k in (1, 2, 3, 5):
            Q = curve_mul(E, k, P)
            order = point_order(E, Q, 40)
            assert order == curve.target // math.gcd(k, curve.target)
            assert [n for n in range(1, 2 * curve.target + 1) if has_order(E, Q, n)] == [order], (name, k)

    @pytest.mark.parametrize("name", ["14-I", "14-II", "15-I", "15-II"])
    def test_shipped_point_has_exact_order(self, name):
        """Each shipped point against its order by the affine group law."""
        curve = next(c for c in exceptional_registry() if c.name == name)
        E, P = curve.curve(), curve.certificate()
        assert E.on_curve(P) and point_order(E, P, 20) == curve.target
        if name != "15-I":  # the Tate normal forms
            assert P == (curve.field().zero(),) * 2

    def test_vacuous_n1(self):
        curve = exceptional_registry()[0]
        assert verify_exceptional(curve, 1) is None

    def test_failure_detected(self):
        # the shipped point of a 14-curve does not have order 9
        curve = next(c for c in exceptional_registry() if c.name == "14-I")
        with pytest.raises(VerificationError):
            verify_exceptional(curve, 9)


class TestRootSearch:
    """The multiples of each shipped point against the roots in K of the
    kill polynomials, found by the norm route of `reference`, a search that
    does not read the shipped points."""

    @pytest.mark.parametrize("name", ["14-I", "14-II", "15-I", "15-II"])
    def test_shipped_curves_match_the_norm_route(self, name):
        curve = next(c for c in exceptional_registry() if c.name == name)
        E, K, P = curve.curve(), curve.field(), curve.certificate()
        n = curve.target
        for ell in (2,) if n == 14 else (3, 5):
            kill = kill_poly(E.b_invariants(), ell, E.domain)
            roots = tower_poly_roots_by_norm(kill, K)
            Q = curve_mul(E, n // ell, P)
            assert {curve_mul(E, k, Q)[0] for k in range(1, ell)} <= set(roots), (name, ell)
