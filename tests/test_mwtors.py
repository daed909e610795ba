import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqtorsion import ellcurve, hyperjac, mwtors
from mqtorsion.ellcurve import BadReduction
from mqtorsion.groups import AbGroupStructure, subgroup_span
from mqtorsion.intutil import is_prime, is_squarefree
from mqtorsion.mwtors import (
    CrossCheckError,
    CurveModel,
    genus2_rational_torsion_bounds,
    ModelError,
    PreconditionError,
    derive_torsion,
    genus1_twist_torsion,
    genus2_twist_witness,
    get_model,
    jac_structure,
    meet_many,
    model_registry,
    reduction_bound,
    table_lookup,
    torsion_table,
    verify_model_integrity,
)
from mqtorsion.poly import QQ, TowerDomain
from mqtorsion.qfield import MultiQuadField, QQ_FIELD, all_subfields
from reference import (
    conjugate,
    eight_torsion_criterion,
    genus2_rational_torsion_bounds_over_q,
    group_meet,
    jac_neg,
    jac_order,
    torsion_over_tower,
    twist_odd_torsion,
)

# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

GENUS1 = sorted(label for label, m in model_registry().items() if m.genus == 1)


def G(*summands):
    return AbGroupStructure.from_summands(summands)


class TestGroupMeet:
    def test_paper_example(self):
        assert group_meet(G(15), G(35)) == G(5)

    def test_idempotent(self):
        x = G(2, 6)
        assert group_meet(x, x) == x

    def test_exclusion_example(self):
        got = group_meet(G(2, 6), G(2, 30), exclude_a={3}, exclude_b={7})
        assert got == G(2, 6)

    def test_lattice_laws_sampled(self):
        rng = random.Random(12)
        divs = [d for d in range(1, 5041) if 5040 % d == 0]
        structures = [AbGroupStructure.trivial()]
        for d2 in divs:
            for d1 in divs:
                if d1 > 1 and d2 % d1 == 0:
                    structures.append(AbGroupStructure((d1, d2)) if d2 > 1 else G(d1))
        sample = rng.sample(structures, 60)
        for a in sample:
            for b in sample:
                m = group_meet(a, b)
                assert m == group_meet(b, a)
                assert m.embeds_in(a) and m.embeds_in(b)
                assert group_meet(m, a) == m
        for _ in range(400):
            a, b, c = (rng.choice(structures) for _ in range(3))
            assert group_meet(group_meet(a, b), c) == group_meet(a, group_meet(b, c))


class TestModels:
    def test_registry_loads_all_eleven(self):
        assert len(model_registry()) == 11

    def test_unknown_label(self):
        with pytest.raises(ModelError):
            get_model("X1(99)")

    @pytest.mark.parametrize("label", sorted(model_registry()))
    def test_integrity(self, label):
        verify_model_integrity(get_model(label))


class TestReductionBound:
    def test_x13_any_field(self):
        for K in (QQ_FIELD, MultiQuadField([-1, 2])):
            assert reduction_bound(get_model("X1(13)"), K, (3, 5)) == G(19)

    def test_x11(self):
        assert reduction_bound(get_model("X1(11)"), MultiQuadField([7]), (3, 5)) == G(5)

    def test_x18_paper_bound(self):
        got = reduction_bound(get_model("X1(18)"), MultiQuadField([-3, -1]), (7, 11))
        assert got == G(3, 21)

    def test_antitone_in_primes(self):
        model = get_model("X1(16)")
        K = MultiQuadField([-1])
        small = reduction_bound(model, K, (3,))
        big = reduction_bound(model, K, (3, 5))
        assert big.embeds_in(small)

    def test_empty_prime_list(self):
        with pytest.raises(ModelError):
            reduction_bound(get_model("X1(11)"), QQ_FIELD, ())

    def test_bad_reduction_is_built_once(self, monkeypatch):
        """X1(18) is bad at 3: repeated calls reject the curve built once."""
        model = get_model("X1(18)")
        built = []
        from_ints = hyperjac.HyperCurve.from_ints
        counting = lambda dom, coeffs, label: built.append(dom) or from_ints(dom, coeffs, label)
        monkeypatch.setattr(hyperjac.HyperCurve, "from_ints", staticmethod(counting))
        mwtors._reduction_or_none.cache_clear()
        for _ in range(3):
            with pytest.raises(BadReduction):
                mwtors.reduction(model, 3)
        assert len(built) == 1
        assert mwtors.reduction(model, 7) is mwtors.reduction(model, 7)
        assert len(built) == 2
        mwtors._reduction_or_none.cache_clear()


class TestTwists:
    def test_x14_twist_odd_part_trivial(self):
        # the 3-part of J(K) stays Z/3 because the -7 twist carries none
        st = genus1_twist_torsion(get_model("X1(14)"), -7)
        assert st.odd_part().prime_exponents().get(3, []) == []

    def test_x18_twist_witness(self):
        w = genus2_twist_witness(get_model("X1(18)"), -3, 3)
        assert w is not None
        u, v, n = w
        assert len(u) - 1 == 2 and n == 0

    def test_x18_twist_witness_absent_for_trivial_twist(self):
        assert genus2_twist_witness(get_model("X1(18)"), 2, 3) is None

    def test_x18_witness_over_q_is_a_class_that_conjugation_negates(self):
        """The witness on y^2 = -3 F(x) over Q, moved to y^2 = F(x) over
        Q(sqrt(-3)) by v -> v/sqrt(-3), is a class of order 3 that the
        conjugation sigma negates, and not 0, so not fixed by sigma."""
        u, v, n = genus2_twist_witness(get_model("X1(18)"), -3, 3)
        K = MultiQuadField([-3])
        C = hyperjac.HyperCurve.from_ints(TowerDomain(K), get_model("X1(18)").f_coeffs)
        sinv = K.one() / K.sqrt_gen(-3)
        D = (tuple(map(K.from_rational, u)), tuple(K.from_rational(c) * sinv for c in v), n)
        assert hyperjac.is_valid_divisor(C, D) and jac_order(C, D, 5) == 3
        sigma = lambda part: tuple(conjugate(c, (-1,)) for c in part)
        assert (sigma(D[0]), sigma(D[1]), 0) == jac_neg(C, D) != D

    def test_a_reconstruction_that_is_not_ell_torsion_is_refused(self, monkeypatch):
        """The 3-torsion data of the -3 twist of X1(18), handed in as 7-torsion
        data, reconstructs the witness W: a valid class, not 0, but
        7 * W = W != 0, so no 7-torsion witness is returned."""
        model = get_model("X1(18)")
        data = mwtors._twisted_ell_torsion_data
        monkeypatch.setattr(mwtors, "_twisted_ell_torsion_data", lambda model, d, p, ell: data(model, d, p, 3))
        witness = genus2_twist_witness.__wrapped__  # outside the cache
        assert witness(model, -3, 3) == genus2_twist_witness(model, -3, 3)
        assert witness(model, -3, 7) is None


class TestTwistOddTorsion:
    def test_x14_three_part(self):
        st, closed = twist_odd_torsion(get_model("X1(14)"), MultiQuadField([-7]), 3)
        assert closed and st == G(3)

    def test_x18_three_part_over_sqrt_minus3(self):
        st, closed = twist_odd_torsion(get_model("X1(18)"), MultiQuadField([-3]), 3)
        assert closed and st == G(3, 3)

    def test_trivial_twist_only(self):
        st, closed = twist_odd_torsion(get_model("X1(2,10)"), QQ_FIELD, 3)
        assert closed and st == G(3)

    def test_odd_prime_required(self):
        with pytest.raises(ModelError):
            twist_odd_torsion(get_model("X1(11)"), QQ_FIELD, 2)


class TestEightTorsion:
    def test_x15_cases(self):
        model = get_model("X1(15)")
        ok, witness = eight_torsion_criterion(model, MultiQuadField([5]))
        assert ok and witness["splitting_d"] == 5
        ok, witness = eight_torsion_criterion(model, MultiQuadField([-3]))
        assert ok and witness["splitting_d"] == -3
        ok, _ = eight_torsion_criterion(model, MultiQuadField([2]))
        assert not ok
        ok, _ = eight_torsion_criterion(model, MultiQuadField([-15]))
        assert not ok

    def test_x212_case(self):
        model = get_model("X1(2,12)")
        ok, witness = eight_torsion_criterion(model, MultiQuadField([-1, 7]))
        assert ok
        ok, _ = eight_torsion_criterion(model, MultiQuadField([-3]))
        assert not ok

    def test_criterion_matches_exact_torsion(self):
        """The paper-style criterion and the halving tower must agree."""
        for label in ("X1(15)", "X1(2,12)"):
            model = get_model(label)
            for gens in ((), (-1,), (3,), (-3,), (5,), (-15,), (2,), (-1, 3), (-3, 5)):
                K = MultiQuadField(gens) if gens else QQ_FIELD
                ok, _ = eight_torsion_criterion(model, K)
                exact = torsion_over_tower(model.elliptic(), K)
                assert ok == (exact.exponent % 8 == 0), (label, gens)


class TestTorsionTable:
    THEOREM_ROWS = [
        ("X1(11)", (), [5]),
        ("X1(13)", (-1, 2), [19]),
        ("X1(14)", (-7,), [2, 6]),
        ("X1(15)", (-3, 5), [2, 8]),
        ("X1(16)", (-2,), [2, 10]),
        ("X1(16)", (-1, 2), [2, 2, 2, 10]),
        ("X1(18)", (-3,), [3, 21]),
        ("X1(2,10)", (5,), [2, 6]),
        ("X1(2,12)", (-1, 3), [2, 8]),
        ("X1(3,9)", (-3,), [3, 3]),
        ("X1(4,8)", (-1,), [2, 4]),
        ("X1(6,6)", (-3, 7), [2, 6]),
    ]

    @pytest.mark.parametrize("label,gens,expect", THEOREM_ROWS)
    def test_derive_equals_table(self, label, gens, expect):
        K = MultiQuadField(gens) if gens else QQ_FIELD
        derived = torsion_table(label, K, "derive")
        tabled = torsion_table(label, K, "table")
        assert derived.closed
        assert derived.lower == tabled.lower == G(*expect)

    def test_zeta_precondition(self):
        with pytest.raises(PreconditionError):
            torsion_table("X1(4,8)", QQ_FIELD, "derive")
        with pytest.raises(PreconditionError):
            torsion_table("X1(6,6)", MultiQuadField([2]), "table")

    def test_result_json_shape(self):
        r = torsion_table("X1(11)", QQ_FIELD, "derive")
        js = r.to_json()
        assert set(js) == {"label", "field", "lower", "upper", "closed", "trace"}

    def test_custom_primes_override(self):
        r = torsion_table("X1(11)", QQ_FIELD, "derive", primes=(3, 7))
        assert r.closed and r.lower == G(5)


# generators for the fields of the reduction property: -1 and +-p, p <= 29
SIGNED_PRIMES = [-1] + [s * p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) for s in (1, -1)]


class TestTorsionSupportField:
    """The odd torsion of J(K) lives on the twist classes of K whose primes
    lie in S (`mwtors._twist_primes`), one set per model for both genera:
    the classes of K n Q(zeta_m), m = 8 * prod(odd p in S)
    (`mwtors._twist_classes`)."""

    def test_tower_fields_collapse_to_level_field(self):
        # S = {2, 3, 7} for X1(14): its twists over a tower are those of
        # Q(sqrt(-7), sqrt(2))
        model = get_model("X1(14)")
        K = MultiQuadField([-7, 2, 11, -17, 23])
        assert mwtors._twist_classes(model, K) == (1, 2, -7, -14)
        assert derive_torsion(model, K).lower.odd_part() == derive_torsion(model, MultiQuadField([-7, 2])).lower.odd_part()

    def test_torsion_ramified_at_a_good_prime(self):
        # 19a2 has good reduction at 3, and its 3-isogeny has kernel mu_3: a
        # 3-torsion point over Q(sqrt(-3)).  Only the 3 of g keeps sqrt(-3).
        model = CurveModel("19a2", (1, 19), 1, None, (0, 1, 1, -769, -8470), None, "test")
        K = MultiQuadField([-3, 11])
        r = derive_torsion(model, K, (5, 7))
        assert r.closed and r.lower == G(3)
        assert mwtors._bad_primes(model) == {19} and 3 in mwtors._twist_primes(model)
        assert mwtors._twist_classes(model, K) == (1, -3)

    def test_genus2_torsion_ramified_at_a_good_prime(self):
        """The genus-2 analogue: C: y^2 = g(x^2 + 2), with Y^2 = g(X) =
        X^3 + 4X^2 - 144X - 944 the curve 19a1 scaled by 4.  The double
        cover (x, y) -> (x^2 + 2, y) of 19a1 pulls its points back into J
        with a kernel of exponent 2, and 19a1[3] = Z/3 + mu_3, so J holds
        Z/3 x Z/3 over Q(sqrt(-3)), its mu_3 in the -3 twist.  C is good at
        3, which divides d = -3: J^d(F_3) bounds nothing there, and the
        order screen skips it."""
        model = CurveModel("19a1 / 2", (1, 1), 2, None, None, (-1208, 0, -116, 0, 10, 0, 1), "test")
        E = ellcurve.EllipticCurve.from_ints(QQ, (0, 1, 1, -9, -15), "19a1")
        K = MultiQuadField([-3])
        assert 3 not in mwtors._bad_primes(model) and torsion_over_tower(E, K).ell_part(3) == G(3, 3)
        assert G(3, 3).embeds_in(derive_torsion(model, K, (5, 7)).upper)

    @PROPERTY
    @given(st.sampled_from(GENUS1), st.lists(st.sampled_from(SIGNED_PRIMES), max_size=4))
    @example("X1(3,9)", [2, -3])  # the -3 twist carries 3-torsion
    def test_reduced_field_has_the_same_torsion(self, label, gens):
        # the twist classes and every point of 2-power order over K lie in
        # K n Q(zeta_m), m = 8 * prod(odd p in S or bad)
        model = get_model(label)
        K = MultiQuadField(gens)
        odd = (mwtors._twist_primes(model) | mwtors._bad_primes(model)) - {2}
        M = K.cyclotomic_intersection(8 * math.prod(odd))
        assert all(M.contains_sqrt(d) for d in mwtors._twist_classes(model, K))
        E = model.elliptic()
        exact = torsion_over_tower(E, K)
        assert exact == torsion_over_tower(E, M)
        # derive's path: T read over K itself, the odd part over the classes
        # of K with primes in S, the 2-part from the one search of the model
        assert mwtors._genus1_torsion(model, K) == exact

    def test_the_sets_of_the_genus2_models(self):
        S = {label: mwtors._twist_primes(get_model(label)) for label in ("X1(13)", "X1(16)", "X1(18)")}
        assert S == {"X1(13)": {2, 13, 19}, "X1(16)": {2, 5}, "X1(18)": {2, 3, 7}}

    def test_genus2_support_from_the_discriminant(self):
        # X1(18): disc(F) * lc(F) = -2^15 * 3^4, and g has the odd primes 3
        # and 7, so S = {2, 3, 7}, whatever the reduction bound over K
        model = get_model("X1(18)")
        K = MultiQuadField([2, 13, -15, 23])
        assert mwtors._bad_primes(model) == {2, 3}
        assert mwtors._twist_classes(model, K) == (1, 2)

    def test_genus2_twists_outside_support_closed(self):
        # every twist class of K outside S carries no odd torsion; derive
        # mode used to leave this field open at lower [21], upper [3, 21]
        K = MultiQuadField([2, 13, -15, 23])
        r = torsion_table("X1(18)", K, "derive")
        assert r.closed and r.lower == r.upper == torsion_table("X1(18)", K, "table").lower == G(21)

    def test_no_good_odd_prime_below_the_screen_cap(self):
        """y^2 = x^3 - n^2 x, n the product of the odd primes below 50, is
        bad at each of them.  The screen reaches the least good odd prime,
        53, whose row is #E(F_53) and its twist's 2 * 54 - #E(F_53), counted
        here point by point; so g = 53 * #E(F_{53^2}) is not 0, and S is
        finite: 2, the bad primes and the odd primes of g."""
        n = math.prod(p for p in range(3, 50) if is_prime(p))
        model = CurveModel("n", (1, 1), 1, None, (0, 0, 0, -n * n, 0), None, "test")
        count = 1 + sum(1 for x in range(53) for y in range(53) if (y * y - x**3 + n * n * x) % 53 == 0)
        assert mwtors._screen_orders(model) == ((53, count, 108 - count),)
        odd_g = {p for p in range(3, 54) if is_prime(p) and 53 * count * (108 - count) % p == 0}
        S = {2} | {p for p in range(3, 50) if is_prime(p)} | odd_g
        assert mwtors._twist_primes(model) == S and 53 in S
        assert mwtors._twist_classes(model, MultiQuadField([-1, 3, 59])) == (1, -1, 3, -3)

    def test_no_good_odd_prime_up_to_the_table_order(self, monkeypatch):
        # y^2 = 2x^6 + x^5 + 1 reduces to no curve that `Reduction` takes
        # at any odd prime, as its leading coefficient is never 1 mod p; with
        # no good prime up to the largest F_p table, there is no screen and
        # no S
        monkeypatch.setattr(mwtors.ff, "MAX_TABLE_ORDER", 60)
        model = CurveModel("2x^6", (1, 1), 2, None, None, (1, 0, 0, 0, 0, 1, 2), "test")
        with pytest.raises(ModelError, match="no odd prime of good reduction up to 60"):
            mwtors._twist_primes(model)


class TestRandomFieldsDeriveEqualsTable:
    """Seeded fields with squarefree generators |d| <= 30 up to degree 32:
    derive closes everywhere and agrees with table mode where tabulated."""

    POOL = [d for d in range(-30, 31) if d not in (0, 1) and is_squarefree(d)]

    @pytest.mark.parametrize("label", GENUS1 + ["X1(13)", "X1(16)", "X1(18)"])
    def test_derive_closes_and_matches_table(self, label):
        model = get_model(label)
        rng = random.Random(f"derive-vs-table {label}")
        for n in range(1, 6):
            for _ in range(8):
                K = MultiQuadField([model.zeta_gen] if model.zeta_gen else [])
                while len(K.gens) < n:
                    K = MultiQuadField(K.gens + (rng.choice(self.POOL),))
                r = torsion_table(label, K, "derive")
                assert r.closed, (label, K.gens)
                tab = table_lookup(label, K)
                if tab is not None:
                    assert r.lower == torsion_table(label, K, "table").lower, (label, K.gens)


def genus2_model(coeffs):
    """The genus-2 model y^2 = F(x), with its first two good odd primes as
    the reduction primes; JacError when F is singular."""
    bare = CurveModel("test", (1, 1), 2, None, None, tuple(coeffs), "test")
    hyperjac.HyperCurve.from_ints(QQ, coeffs)
    bad = mwtors._bad_primes(bare)
    primes = tuple(p for p in range(3, 200, 2) if is_prime(p) and p not in bad)[:2]
    return CurveModel("test", (1, 1), 2, None, None, tuple(coeffs), "test", primes=primes)


class TestRationalClassesOverFp:
    """The rational-classes bounds, computed in J(F_p) and certified over Q,
    against the span and census over Q of `tests/reference.py`."""

    @pytest.mark.parametrize("label", ["X1(13)", "X1(16)", "X1(18)"])
    @pytest.mark.parametrize("primes", [(), (7,), (5, 13), (7, 11)])
    def test_builtin_models_match_the_reference(self, label, primes):
        model = get_model(label)
        try:
            expect = genus2_rational_torsion_bounds_over_q(model, primes)
        except (BadReduction, ModelError) as exc:  # the primes are not good here
            with pytest.raises(type(exc)):
                genus2_rational_torsion_bounds(model, primes)
            return
        assert genus2_rational_torsion_bounds(model, primes) == expect

    @settings(PROPERTY, max_examples=25)
    @given(
        st.sampled_from((5, 6)).flatmap(
            lambda deg: st.lists(st.integers(-4, 4), min_size=deg, max_size=deg)
        ),
        st.integers(0, 3),
    )
    def test_random_integral_curves_match_the_reference(self, coeffs, y0):
        # y^2 = F(x) with F(0) = y0^2: the point (0, y0) is rational
        coeffs = [y0 * y0, *coeffs[1:], 1]
        try:
            model = genus2_model(coeffs)
            expect = genus2_rational_torsion_bounds_over_q(model)
        except (hyperjac.JacError, ModelError):
            return  # singular, or a prime-free part of the bound
        assert genus2_rational_torsion_bounds(model) == expect

    def test_a_class_of_infinite_order_is_refused_by_its_certificate(self):
        """On y^2 = x^5 + 3x^4 + 2x^3 - x^2 + 4, J(Q)_tors >= Z/2 and the bound
        is Z/14; classes of infinite order reduce mod 5 to classes of order at
        most 14, outside the span of the torsion classes: only the
        certificate over Q rejects them."""
        model = genus2_model([4, 0, -1, 2, 3, 1])
        lower, upper = genus2_rational_torsion_bounds_over_q(model)
        CQ = hyperjac.HyperCurve.from_ints(QQ, model.f_coeffs)
        gens = hyperjac.classes_from_rational_points(CQ, hyperjac.search_rational_points(model.f_coeffs, 40))
        C = mwtors.reduction(model, mwtors._class_reduction_prime(model, gens)).curve
        add = lambda a, b: hyperjac.jac_add(C, a, b)
        torsion = [mwtors._reduce_class(C, D) for D in gens if self._finite(CQ, D, upper.exponent)]
        span = subgroup_span(torsion, add, C.identity())
        refused = [
            D for D in gens
            if not self._finite(CQ, D, upper.exponent)
            and mwtors._reduce_class(C, D) not in span
            and subgroup_span([mwtors._reduce_class(C, D)], add, C.identity(), cap=upper.exponent)
        ]
        assert refused
        assert genus2_rational_torsion_bounds(model) == (lower, upper)

    @staticmethod
    def _finite(C, D, bound):
        try:
            jac_order(C, D, bound)
            return True
        except hyperjac.JacError:
            return False

    def test_few_cantor_steps_over_q(self, monkeypatch):
        """The three builtin models make at most 40 Cantor steps over Q in
        all: one scalar multiple per kept generator."""
        over_q = []
        add = hyperjac.jac_add

        def counted(C, D1, D2):
            if not hasattr(C.domain, "tables"):
                over_q.append(C.label)
            return add(C, D1, D2)

        monkeypatch.setattr(hyperjac, "jac_add", counted)
        genus2_rational_torsion_bounds.cache_clear()
        for label in ("X1(13)", "X1(16)", "X1(18)"):
            genus2_rational_torsion_bounds(get_model(label))
        genus2_rational_torsion_bounds.cache_clear()
        assert 0 < len(over_q) <= 40
