import random
from fractions import Fraction as Fr
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mqtorsion import ff, hyperjac, mwtors, poly
from mqtorsion.ellcurve import BadReduction
from mqtorsion.groups import AbGroupStructure, scalar_mul, structure_from_elements
from mqtorsion.hyperjac import (
    HyperCurve,
    JacError,
    classes_from_rational_points,
    is_valid_divisor,
    jac_add,
    jac_neg,
    search_rational_points,
    symmetric_square_points,
    two_torsion_galois,
    weierstrass_orbits,
    zeta_order,
)
from mqtorsion.mwtors import Census, CurveModel, census, model_registry
from mqtorsion.poly import QQ, TowerDomain, code_domain, pdegree, pderiv, pgcdext, pmul, pnormalize
from mqtorsion.qfield import MultiQuadField, QQ_FIELD
from reference import (
    all_classes,
    conjugate_pair_classes_by_walk,
    count_over_quadratic_ext_walk,
    inert_twist_classes,
    jac_order,
    search_rational_points_by_fractions,
    span_census,
)

X13 = [1, -4, 6, -2, 1, -2, 1]  # x^6 - 2x^5 + x^4 - 2x^3 + 6x^2 - 4x + 1
X16 = [0, -1, 2, 0, 2, 1]  # x(x^2+1)(x^2+2x-1)
X18 = [1, 4, 10, 10, 5, 2, 1]  # x^6 + 2x^5 + 5x^4 + 10x^3 + 10x^2 + 4x + 1

MODELS = {"X1(13)": X13, "X1(16)": X16, "X1(18)": X18}


def model_of(coeffs):
    return next(m for m in model_registry().values() if m.f_coeffs == tuple(coeffs))


def curve(coeffs, p, f, label=None):
    return HyperCurve.from_ints(code_domain(ff.make_field(p, f)), coeffs, label)


def multiple(C, k, D):
    """k * D by double-and-add over jac_add."""
    return scalar_mul(k, D, lambda a, b: jac_add(C, a, b), lambda a: jac_add(C, a, a), C.identity())


class TestModelSanity:
    def test_x16_expansion(self):
        f = pmul(QQ, pmul(QQ, (0, 1), (-1, 2, 1)), (1, 0, 1))
        assert list(f) == X16

    def test_singular_model_rejected(self):
        with pytest.raises(JacError):
            curve([0, 0, 1, 0, 0, 0, 1], 5, 1)  # x^6 + x^2 has gcd with derivative

    def test_bad_reduction_detected(self):
        with pytest.raises(JacError):
            curve(X13, 13, 1)  # level prime
        with pytest.raises(JacError):
            curve(X18, 3, 1)


class TestGroupLaw:
    @pytest.mark.parametrize("coeffs,p,f", [(X13, 3, 2), (X16, 3, 2), (X18, 5, 1), (X16, 5, 1)])
    def test_identity_inverse_associativity(self, coeffs, p, f):
        C = curve(coeffs, p, f)
        cls = all_classes(C)
        rng = random.Random(hash((p, f)) & 0xFFFF)
        ident = C.identity()
        for _ in range(500):
            D1, D2, D3 = (rng.choice(cls) for _ in range(3))
            assert jac_add(C, D1, ident) == D1
            assert jac_add(C, D1, jac_neg(C, D1)) == ident
            assert jac_add(C, jac_add(C, D1, D2), D3) == jac_add(C, D1, jac_add(C, D2, D3))

    @pytest.mark.parametrize("coeffs,p,f", [(X13, 3, 2), (X18, 5, 1)])
    def test_order_divides_group_order(self, coeffs, p, f):
        C = curve(coeffs, p, f)
        cls = all_classes(C)
        n = len(cls)
        rng = random.Random(9)
        for _ in range(20):
            D = rng.choice(cls)
            k = jac_order(C, D, n + 1)
            assert n % k == 0
            assert multiple(C, k, D) == C.identity()

    def test_order_19_element_on_x13_f9(self):
        C = curve(X13, 3, 2)
        assert any(jac_order(C, D, 60) == 19 for D in all_classes(C))

    def test_invalid_mumford_data_rejected(self):
        C = curve(X13, 3, 2)
        assert is_valid_divisor(C, all_classes(C)[5])
        assert is_valid_divisor(C, ((1, 1, 1, 1), (), 0)) is False


# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def random_curves(draw, primes=(11, 7, 5, 3), min_f=1):
    """A squarefree quintic or a monic squarefree sextic over F_{p^f}, p in
    primes, min_f <= f <= 2, with integer coefficients read mod p."""
    p = draw(st.sampled_from(primes))
    f = draw(st.integers(min_f, 2))
    degree = draw(st.sampled_from((5, 6)))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    lead = 1 if degree == 6 else draw(st.integers(1, p - 1))
    try:
        return curve(coeffs + [lead], p, f)
    except JacError:
        assume(False)


def point_classes(C, xs):
    """Degree-1 classes [(x, y) - infinity] (weight 0 or 1 on a sextic) from
    the codes x with F(x) a square."""
    t = C.domain.tables
    out = []
    for x in xs:
        val = poly.peval(C.domain, C.F, x)
        for y in (0,) if val == 0 else t.sqrt[val]:
            for n in (0, 1) if C.degree == 6 else (0,):
                out.append(((t.neg[x], 1), (y,) if y else (), n))
    return out


class TestGroupLawProperties:
    @PROPERTY
    @given(random_curves(primes=(13, 11, 7, 5, 3)), st.data())
    def test_group_axioms_and_order_on_random_curves(self, C, data):
        q = C.domain.q
        points = point_classes(C, data.draw(st.lists(st.integers(0, q - 1), min_size=6, max_size=12)))
        assume(len(points) >= 3)
        ident = C.identity()
        pick = lambda: data.draw(st.sampled_from(points))
        D1, D2, D3 = (jac_add(C, pick(), pick()) for _ in range(3))
        for D in (D1, D2, D3):
            assert is_valid_divisor(C, D)
            assert jac_add(C, D, ident) == jac_add(C, ident, D) == D
            assert jac_add(C, D, jac_neg(C, D)) == ident
        assert jac_add(C, D1, D2) == jac_add(C, D2, D1)
        assert jac_add(C, jac_add(C, D1, D2), D3) == jac_add(C, D1, jac_add(C, D2, D3))
        nJ = zeta_order(C)[3]
        assert all(multiple(C, nJ, D) == ident for D in (D1, D2, D3))

    @PROPERTY
    @given(
        st.sampled_from((5, 6)).flatmap(lambda deg: st.lists(st.integers(-5, 5), min_size=deg, max_size=deg)),
        st.integers(0, 3),
        st.data(),
    )
    def test_reduction_is_a_homomorphism_on_rational_classes(self, coeffs, y0, data):
        """red(D1 + D2) = red(D1) + red(D2) at every good odd p <= 13 at which
        D1, D2 and D1 + D2 have p-integral coefficients."""
        coeffs = [y0 * y0, *coeffs[1:], 1]  # (0, y0) is a rational point
        try:
            CQ = HyperCurve.from_ints(QQ, coeffs)
        except JacError:
            assume(False)
        gens = classes_from_rational_points(CQ, search_rational_points(coeffs, 6))
        D1, D2 = data.draw(st.sampled_from(gens)), data.draw(st.sampled_from(gens))
        D12 = jac_add(CQ, D1, D2)
        checked = 0
        for p in (3, 5, 7, 11, 13):
            if any(c.denominator % p == 0 for D in (D1, D2, D12) for c in (*D[0], *D[1])):
                continue
            try:
                C = curve(coeffs, p, 1)
            except JacError:
                continue  # bad reduction
            red = lambda D: mwtors._reduce_class(C, D)
            assert red(D12) == jac_add(C, red(D1), red(D2))
            checked += 1
        assume(checked)


class TestZeta:
    @pytest.mark.parametrize(
        "coeffs,p,f,nj",
        [
            (X13, 3, 2, 57),
            (X16, 5, 2, 640),
            (X18, 7, 2, 1953),
            (X13, 5, 2, 361),
            (X18, 11, 2, 13104),
        ],
    )
    def test_paper_orders(self, coeffs, p, f, nj):
        assert zeta_order(curve(coeffs, p, f))[3] == nj

    def test_count_over_f_q_matches_the_walk_over_f_q2(self):
        """N2 counted over F_q against the walk over all of F_{q^2}, at every
        good reduction of the builtin genus-2 models: f = 1 for p <= 47 and
        f = 2 for p <= 13."""
        pairs = 0
        for coeffs in MODELS.values():
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                for f in (1, 2) if p <= 13 else (1,):
                    try:
                        C = curve(coeffs, p, f)
                    except JacError:
                        continue
                    assert hyperjac._count_over_quadratic_ext(C) == count_over_quadratic_ext_walk(C), (coeffs, p, f)
                    pairs += 1
        assert pairs == 53

    def test_zeta_over_f_p2_from_l_p_matches_the_count(self):
        """`mwtors.zeta(model, p, 2)`, read from L_p, against the counts over
        F_{p^2} at every good p whose F_{p^2} has tables (p <= 31; the count
        of N2 there is itself checked against the walk over F_{p^4} above
        for p <= 13)."""
        pairs = 0
        for coeffs in MODELS.values():
            model = model_of(coeffs)
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                try:
                    C = curve(coeffs, p, 2)
                except JacError:
                    continue
                assert mwtors.zeta(model, p, 2) == zeta_order(C), (model.label, p)
                pairs += 1
        assert pairs == 28

    def test_zeta_over_f_p2_checks_its_point_count(self, monkeypatch):
        # one point too many over F_{p^2} only, so L_p itself is right
        count = hyperjac.curve_count
        monkeypatch.setattr(hyperjac, "curve_count", lambda C: count(C) + (C.domain.q > C.domain.tables.p))
        mwtors.zeta.cache_clear()
        try:
            with pytest.raises(mwtors.CrossCheckError):
                mwtors.zeta(model_of(X13), 5, 2)
        finally:
            mwtors.zeta.cache_clear()

    def test_enumeration_matches_zeta_everywhere(self):
        """Every builtin genus-2 model, every good odd p <= 13, f in {1,2}."""
        for label, coeffs in MODELS.items():
            for p in (3, 5, 7, 11, 13):
                for f in (1, 2):
                    try:
                        C = curve(coeffs, p, f, label)
                    except JacError:
                        continue
                    cls = all_classes(C)  # raises ZetaMismatch internally
                    assert len(cls) == zeta_order(C)[3]


class TestGroupStructure:
    @pytest.mark.parametrize(
        "coeffs,p,f,expect",
        [
            (X13, 3, 2, [3, 19]),
            (X13, 5, 2, [19, 19]),
            (X16, 3, 2, [2, 2, 2, 10]),
            (X16, 5, 2, [2, 2, 4, 40]),
            (X18, 7, 2, [3, 651]),
        ],
    )
    def test_paper_structures(self, coeffs, p, f, expect):
        st = census(model_of(coeffs), p, f, False).structure
        assert st == AbGroupStructure.from_summands(expect)


    def test_x13_f25_census_adds_once_per_class_but_zero(self, monkeypatch):
        # J(F_25) = Z/19 x Z/19 is its own 19-Sylow subgroup: the span census
        # adds once per class but 0, and its relation rows give the
        # structure.  The census reads it from J(F_5) = Z/19 and its twist,
        # Z/19, whose orders fix them, so it adds nothing at all
        calls = []
        jac_add = hyperjac.jac_add
        monkeypatch.setattr(hyperjac, "jac_add", lambda C, a, b: calls.append(1) or jac_add(C, a, b))
        mwtors.census.cache_clear()  # the censuses of F_5 add through the wrapper too
        try:
            model = model_of(X13)
            assert span_census(model, 5, 2, False) == AbGroupStructure((19, 19))
            assert len(calls) == 360
            calls.clear()
            assert Census(model, 5, 2, False).structure == AbGroupStructure((19, 19))
            assert calls == []
        finally:
            mwtors.census.cache_clear()

    def test_x18_f49_census_adds_fewer_than_classes(self):
        # |J(F_49)| = 1953 = 3^2 * 7 * 31: only the 3-Sylow subgroup is
        # projected out and layered, so most classes are never added
        cen = Census(model_of(X18), 7, 2, False)
        add = cen.add
        calls = []
        cen.add = lambda a, b: calls.append(1) or add(a, b)
        classes = all_classes(curve(X18, 7, 2))
        assert len(cen.classes) == len(classes) == 1953
        assert cen.structure == AbGroupStructure.from_summands([3, 651])
        assert len(calls) < len(classes)


def model_from_curve(C):
    """A genus-2 CurveModel whose integer coefficients reduce to C's F (the
    codes of F_p elements are their residues)."""
    return CurveModel(
        label="random", level=(1, 1), genus=2, base_d=None, ainvs=None,
        f_coeffs=tuple(C.F), source="test",
    )


def full_structure(C):
    """The slow path: the census over the full list of J(F_q)."""
    return structure_from_elements(all_classes(C), lambda a, b: jac_add(C, a, b), C.identity())


class TestLazyCensus:
    """The census spans each Sylow subgroup from the front of the class
    stream, with the order N from the zeta function over F_p; the slow path
    lists J(F_q) and checks its count against zeta over F_q."""

    def test_lazy_census_matches_full_enumeration(self):
        """Every builtin genus-2 model, every good odd p <= 13, f in {1, 2}."""
        pairs = 0
        for coeffs in MODELS.values():
            model = model_of(coeffs)
            for p in (3, 5, 7, 11, 13):
                for f in (1, 2):
                    try:
                        C = curve(coeffs, p, f)
                    except JacError:
                        continue
                    cen = Census(model, p, f, False)
                    assert len(cen.classes) == len(all_classes(C))
                    assert cen.structure == full_structure(C), (model.label, p, f)
                    pairs += 1
        assert pairs == 26

    @PROPERTY
    @given(random_curves())
    def test_lazy_census_on_random_curves(self, C):
        p = C.domain.tables.p
        f = 1 if C.domain.q == p else 2
        cen = Census(model_from_curve(C), p, f, False)
        assert len(cen.classes) == len(all_classes(C))
        assert cen.structure == full_structure(C)

    def test_x13_p31_census_draws_few_classes(self, monkeypatch):
        # J(F_961) has 831,744 classes; the census draws under a hundred
        drawn = []
        pair_classes = hyperjac._pair_classes

        def counted(dom, F):
            for cl in pair_classes(dom, F):
                drawn.append(cl)
                yield cl

        monkeypatch.setattr(hyperjac, "_pair_classes", counted)
        mwtors.jac_structure.cache_clear()
        mwtors.census.cache_clear()
        model = mwtors.get_model("X1(13)")
        st = mwtors.jac_structure(model, 31, 2)
        _, _, _, order, twisted_order = zeta_order(curve(X13, 31, 1))
        assert st.order == order * twisted_order == 831_744
        assert st == AbGroupStructure.from_summands([2, 2, 456, 456])
        assert 0 < len(drawn) < 5000


class TestCensusShortcuts:
    """The census reads the odd parts of J(F_{p^2}) from J(F_p) and its
    inert twist, and a 2-part from its order and the 2-rank of the
    Weierstrass points; the span census (`reference.span_census`) spans
    every Sylow subgroup of square order instead."""

    def test_split_and_two_rank_match_span_census(self):
        """Every good reduction p <= 47 of X1(13), X1(16) and X1(18): f = 1,
        and f = 2 and the twist where F_{p^2} has tables (p <= 31)."""
        cases = fixed = split = 0
        for label, coeffs in MODELS.items():
            model = model_of(coeffs)
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                for f, twisted in ((1, False), (2, False), (2, True)):
                    if f == 2 and p * p > ff.MAX_TABLE_ORDER:
                        continue
                    try:
                        cen = Census(model, p, f, twisted)
                    except BadReduction:
                        continue
                    assert cen.structure == span_census(model, p, f, twisted), (label, p, f, twisted)
                    exps = cen._order_exponents
                    e, r = exps.get(2, 0), cen.two_rank
                    fixed += e > 1 and r in (1, e - 1, e)
                    split += f == 2 and not twisted and any(k > 1 for ell, k in exps.items() if ell != 2)
                    cases += 1
        assert (cases, fixed, split) == (96, 29, 25)

    @pytest.mark.parametrize("p,rank", [(3, 0), (5, 0), (5, 3)])
    def test_two_part_against_a_wrong_two_rank_raises(self, p, rank):
        # J(F_9) has 2-part (Z/2)^4, fixed by its rank; J(F_25) has 2-part
        # Z/2 x Z/2 x Z/4 x Z/8, spanned, whose rank 4 is not 3
        cen = Census(model_of(X16), p, 2, False)
        cen.two_rank = rank
        with pytest.raises(mwtors.CrossCheckError):
            cen.structure

    @PROPERTY
    @given(random_curves(primes=(13, 11, 7, 5, 3)))
    def test_two_rank_formula_on_random_curves(self, C):
        """The rank of J[2] from the Frobenius orbits on the Weierstrass
        points, against the 2-Sylow span of the census: over F_p, or over
        F_{p^2} and for the inert twist over F_p."""
        p = C.domain.tables.p
        f = 1 if C.domain.q == p else 2
        model = model_from_curve(C)
        for twisted in (False, True) if f == 2 else (False,):
            spanned = span_census(model, p, f, twisted).ell_part(2).rank()
            assert hyperjac.two_rank_mod_p(model.f_coeffs, p, 1 if twisted else f) == spanned

    @pytest.mark.parametrize("coeffs,p", [(X13, 7), (X16, 3), (X18, 7)])
    def test_pairs_off_f_p_come_first(self, coeffs, p):
        """Over F_{p^2} the stream opens with the classes of the pairs of
        points whose x lies outside F_p: deg u = 2, and u has roots in
        F_{p^2}, none in F_p.  Every other class has deg u < 2, or a root in
        F_p, or no root in F_{p^2}."""
        C = curve(coeffs, p, 2)
        dom = C.domain
        roots = lambda u: [x for x in range(dom.q) if poly.peval(dom, u, x) == 0]
        opens = [len(u) == 3 and min(roots(u), default=0) >= p for u, _, _ in hyperjac._pair_classes(dom, C.F)]
        assert opens[0] and opens == sorted(opens, reverse=True)


class TestSymmetricSquare:
    @pytest.mark.parametrize(
        "coeffs,p,f",
        [(X13, 3, 2), (X13, 5, 2), (X16, 3, 2), (X16, 5, 2), (X18, 5, 1), (X18, 5, 2)],
    )
    def test_line_and_injectivity(self, coeffs, p, f):
        C = curve(coeffs, p, f)
        line, off, cmap = symmetric_square_points(C)
        q = p**f
        assert len(line) == q + 1
        # off-line total = #J - 1 (identity excluded)
        assert len(off) == zeta_order(C)[3] - 1


class TestTwoTorsionGalois:
    def test_x16_case_ladder(self):
        F = X16
        for gens, order in [((), 4), ((-1,), 8), ((2,), 8), ((-1, 2), 16)]:
            K = MultiQuadField(gens) if gens else QQ_FIELD
            st, exact = two_torsion_galois(F, K)
            assert exact
            assert st.order == order

    def test_x14_cubic(self):
        F = [13662, -675, 0, 1]
        st, exact = two_torsion_galois(F, QQ_FIELD)
        assert exact and st.order == 2
        st, exact = two_torsion_galois(F, MultiQuadField([-7]))
        assert exact and st.order == 4  # full 2-torsion of a genus-1 curve

    def test_x13_trivial(self):
        F = X13
        for gens in [(), (-1,), (2, 3), (-1, 2, -7)]:
            K = MultiQuadField(gens) if gens else QQ_FIELD
            st, _ = two_torsion_galois(F, K)
            assert st.order == 1

    def test_orbit_counts(self):
        F = X16
        orbits, exact = weierstrass_orbits(F, QQ_FIELD)
        assert orbits == [1, 1, 2, 2] and exact
        orbits, _ = weierstrass_orbits(F, MultiQuadField([-1, 2]))
        assert orbits == [1, 1, 1, 1, 1, 1]

    def test_non_squarefree_rejected_on_every_call(self):
        F = [0, 0, 1, 1, 1]  # x^2 (x^2 + x + 1)
        for _ in range(2):  # the second call reads the cached verdict
            with pytest.raises(JacError):
                weierstrass_orbits(F, QQ_FIELD)

    def test_non_squarefree_raises_before_the_prime_search(self, monkeypatch):
        """A repeated factor is refused by gcd(F, F') over Q before
        `poly.low_degree_factors`, whose search for a prime at which F
        stays squarefree would not end on it."""

        def no_search(S):
            raise AssertionError(f"prime search on {S}")

        monkeypatch.setattr(poly, "_find_good_prime", no_search)
        # g^2 h: x^2 (x^2 + x + 1), (x + 1)^2 (x^3 + 2), (x^2 + 1)^2 (x^2 - 2), (x^2 - 2)^2 x
        for g, h in [((0, 1), (1, 1, 1)), ((1, 1), (2, 0, 0, 1)), ((1, 0, 1), (-2, 0, 1)), ((-2, 0, 1), (0, 1))]:
            F = tuple(int(c) for c in pmul(QQ, pmul(QQ, g, g), h))
            with pytest.raises(JacError, match="F must be squarefree"):
                hyperjac._weierstrass_factors(F)


def frobenius_kernel(C2):
    """The slow path for the inert twist: the classes D of J(F_{p^2}) with
    D + Frobenius(D) = 0.  Frobenius sends the code c0 + c1*p to
    c0 - c1*p and, on a monic sextic, fixes both infinite places."""
    p = C2.domain.tables.p
    frob = lambda cs: tuple(c % p + -(c // p) % p * p for c in cs)
    return [
        D
        for D in all_classes(C2)
        if jac_add(C2, D, (frob(D[0]), frob(D[1]), D[2])) == C2.identity()
    ]


def embed_twist(C2, D):
    """The class of J(F_{p^2}) onto which (x, y) -> (x, t*y), t^2 = n, maps
    the class D of the inert twist y^2 = F/n over F_p; on codes t*c is c*p."""
    u, w, _ = D
    if len(u) == 1:
        return C2.identity()
    return (u, tuple(c * C2.domain.tables.p for c in w), 0)


class TestTwistedStructures:
    def test_kernel_order_equals_twisted_zeta(self):
        """#ker(1 + Frobenius) on J(F_{p^2}) = L(-1) over F_p, for inert twists."""
        for coeffs, p in [(X13, 3), (X16, 3), (X18, 5), (X18, 7)]:
            Cp = curve(coeffs, p, 1)
            tw = census(model_of(coeffs), p, 2, True).structure
            assert tw.order == zeta_order(Cp)[4]

    def test_x18_minus3_twist_is_z3_compatible(self):
        # the twist group over F_5 must admit Z/3 (its rational torsion)
        tw = census(model_of(X18), 5, 2, True).structure
        assert AbGroupStructure.cyclic(3).embeds_in(tw)

    def test_inert_twist_equals_frobenius_kernel(self):
        """Every builtin genus-2 model at every good p <= 13."""
        pairs = 0
        for coeffs in MODELS.values():
            for p in (3, 5, 7, 11, 13):
                try:
                    C2 = curve(coeffs, p, 2)
                except JacError:
                    continue
                assert inert_twist_classes(C2) == frobenius_kernel(C2)
                pairs += 1
        assert pairs == 13

    @PROPERTY
    @given(random_curves((3, 5, 7, 11, 13), min_f=2))
    def test_inert_twist_on_random_curves(self, C2):
        p = C2.domain.tables.p
        twist = inert_twist_classes(C2)
        if p <= 7:  # the slow path adds over all of J(F_{p^2}): 25,000 classes at p = 13
            assert twist == frobenius_kernel(C2)
        C1 = HyperCurve(code_domain(ff.make_field(p, 1)), C2.F)
        assert len(twist) == zeta_order(C1)[4]

    def test_ell_pairs_match_generic_scan(self):
        """Skipping ell prime to the group order loses no ell-torsion; the
        pairs of the twist, over F_p, map onto those of ker(1 + Frobenius)."""
        found = 0
        for coeffs, p, f, twisted in [(X13, 3, 1, False), (X18, 5, 1, False), (X18, 5, 2, True)]:
            cen = census(model_of(coeffs), p, f, twisted)
            C = curve(coeffs, p, f)
            classes = frobenius_kernel(C) if twisted else all_classes(C)
            for ell in (2, 3, 5, 7, 19):
                slow = tuple(
                    (u, v)
                    for u, v, n in classes
                    if len(u) == 3 and n == 0 and multiple(C, ell, (u, v, n)) == C.identity()
                )
                pairs = tuple(embed_twist(C, (u, v, 0))[:2] for u, v in cen.ell_pairs(ell)) if twisted else cen.ell_pairs(ell)
                assert pairs == slow
                found += bool(slow)
        assert found >= 2

    @PROPERTY
    @given(random_curves((3, 5, 7), min_f=2))
    def test_twist_stream_matches_frobenius_kernel(self, C2):
        """The census of the inert twist, a class stream over F_p, against
        ker(1 + Frobenius) listed in J(F_{p^2}): the stream maps onto it,
        and the Sylow structures and the ell-pairs agree."""
        p = C2.domain.tables.p
        cen = Census(model_from_curve(C2), p, 2, True)
        kernel = frobenius_kernel(C2)
        listed = [embed_twist(C2, D) for D in cen.classes]
        assert len(listed) == len(set(listed)) == len(cen.classes) and sorted(listed) == kernel
        add = lambda a, b: jac_add(C2, a, b)
        assert cen.structure == structure_from_elements(kernel, add, C2.identity())
        for ell in (2, 3, 5, 7, 11, 13):
            slow = tuple(
                (u, v) for u, v, n in kernel if len(u) == 3 and n == 0 and multiple(C2, ell, (u, v, n)) == C2.identity()
            )
            assert tuple(embed_twist(C2, (u, v, 0))[:2] for u, v in cen.ell_pairs(ell)) == slow

    @PROPERTY
    @given(random_curves((3, 5, 7, 11, 13), min_f=2), st.data())
    def test_twist_group_law_is_the_law_over_f_p2(self, C2, data):
        """Cantor's law on the twist y^2 = F/n over F_p, an inert sextic or a
        quintic, commutes with its embedding in J(F_{p^2})."""
        p = C2.domain.tables.p
        cen = Census(model_from_curve(C2), p, 2, True)
        classes = list(cen.classes)
        for _ in range(10):
            D1, D2 = data.draw(st.sampled_from(classes)), data.draw(st.sampled_from(classes))
            assert embed_twist(C2, cen.add(D1, D2)) == jac_add(C2, embed_twist(C2, D1), embed_twist(C2, D2))

    def test_listed_twist_has_l_minus_1_classes(self):
        """Every builtin genus-2 model at every good p <= 31: the twist's
        stream lists L(-1) distinct classes, L from the zeta function over
        F_p."""
        pairs = 0
        for coeffs in MODELS.values():
            model = model_of(coeffs)
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                try:
                    cen = Census(model, p, 2, True)
                except BadReduction:
                    continue
                listed = list(cen.classes)
                assert len(set(listed)) == len(listed) == mwtors._zeta_orders(model, p)[1], (model.label, p)
                pairs += 1
        assert pairs == 28


@st.composite
def random_squarefree(draw, primes=(13, 11, 7, 5, 3)):
    """(domain, F): a squarefree quintic or sextic over F_{p^f}, f in
    {1, 2}, any nonzero leading coefficient, integer coefficients mod p."""
    p = draw(st.sampled_from(primes))
    dom = code_domain(ff.make_field(p, draw(st.integers(1, 2))))
    degree = draw(st.sampled_from((5, 6)))
    F = pnormalize(draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)) + [draw(st.integers(1, p - 1))])
    assume(pdegree(pgcdext(dom, F, pderiv(dom, F))[0]) == 0)
    return dom, F


class TestIrreducibleQuadraticWalk:
    """The walk over the monic irreducible quadratics over F_q, against the
    walk over all of F_{q^2} in `reference.QuadExt`."""

    @PROPERTY
    @given(random_squarefree())
    def test_conjugate_pairs_match_the_walk_over_f_q2(self, curve_data):
        dom, F = curve_data
        got = list(hyperjac._conjugate_pair_classes(dom, F))
        assert len(got) == len(set(got))
        assert set(got) == set(conjugate_pair_classes_by_walk(dom, F))

    @PROPERTY
    @given(random_squarefree())
    def test_count_matches_the_walk_over_f_q2(self, curve_data):
        dom, F = curve_data
        C = SimpleNamespace(domain=dom, F=F, degree=pdegree(F))
        assert hyperjac._count_over_quadratic_ext(C) == count_over_quadratic_ext_walk(C)


class TestRationalPoints:
    @PROPERTY
    @given(
        st.sampled_from((5, 6)).flatmap(lambda deg: st.lists(st.integers(-30, 30), min_size=deg + 1, max_size=deg + 1)),
        st.integers(-1, 5),
    )
    def test_integer_search_matches_fractions(self, coeffs, y0):
        """On integer quintics and sextics, with the point (0, y0) forced
        when y0 >= 0."""
        assume(coeffs[-1] != 0)
        if y0 >= 0:
            coeffs[0] = y0 * y0
        assert search_rational_points(coeffs, 40) == search_rational_points_by_fractions(coeffs, 40)


class TestRationalLowerBounds:
    def test_x18_cusp_classes_reach_z21(self):
        C = HyperCurve.from_ints(QQ, X18, "X1(18)")
        pts = search_rational_points(X18, 10)
        assert (Fr(0), Fr(1)) in pts
        gens = classes_from_rational_points(C, pts)
        orders = set()
        for D in gens:
            assert is_valid_divisor(C, D)
            orders.add(jac_order(C, D, 25))
        assert max(orders) == 21

    def test_x13_cusp_class_order_19(self):
        C = HyperCurve.from_ints(QQ, X13, "X1(13)")
        gens = classes_from_rational_points(C, search_rational_points(X13, 5))
        assert any(jac_order(C, D, 25) == 19 for D in gens)

    def test_x18_twist_three_torsion_witness_over_tower(self):
        K = MultiQuadField([-3])
        C = HyperCurve.from_ints(TowerDomain(K), X18)
        s = K.sqrt_gen(-3)
        u = (K.one(), K.one(), K.one())
        v = (-s, -s)
        D = (u, v, 0)
        assert is_valid_divisor(C, D)
        assert jac_order(C, D, 5) == 3
        sig = lambda e: e.conjugate((-1,))
        Dsig = (tuple(map(sig, u)), tuple(map(sig, v)), 0)
        assert Dsig == jac_neg(C, D)
