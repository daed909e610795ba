import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqtorsion import qfield
from mqtorsion.intutil import kronecker, squarefree_part
from mqtorsion.qfield import (
    MAX_GENERATORS,
    MultiQuadField,
    QFieldError,
    QQ_FIELD,
    TowerElem,
    all_subfields,
    parse_field,
    sqrt_in_tower,
)
from reference import (
    contains_sqrt_by_span,
    cyclotomic_intersection_by_span,
    embedding_by_span,
    hyperplane_avoiding,
    lower_by_span,
    residue_degree_by_span,
    signature_by_span,
    sqrt_in_tower_by_inverses,
    support_gens,
)

# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def brute_span(gens):
    """Independent oracle: squarefree parts of all subset products."""
    out = {1}
    for r in range(1, len(gens) + 1):
        for combo in combinations(gens, r):
            prod = 1
            for d in combo:
                prod *= d
            out.add(squarefree_part(prod))
    return out


class TestSpan:
    def test_sqrt6_in_q_sqrt2_sqrt3(self):
        assert MultiQuadField([2, 3]).contains_sqrt(6)

    def test_q_does_not_contain_sqrt5(self):
        assert not QQ_FIELD.contains_sqrt(5)

    def test_minus_seven(self):
        K = MultiQuadField([-1, 7])
        assert -7 in brute_span(K.gens)
        assert K.contains_sqrt(-7)

    def test_non_squarefree_rejected(self):
        with pytest.raises(QFieldError):
            QQ_FIELD.contains_sqrt(12)

    @pytest.mark.parametrize("gens", [(2,), (-1, 2), (-3, 5), (-1, 2, 7), (2, 3, 5)])
    def test_span_matches_brute_force(self, gens):
        K = MultiQuadField(gens)
        assert set(K.span()) == brute_span(gens)

    @pytest.mark.parametrize("gens", [(-1, 2), (-3, 5, 7)])
    def test_span_group_closure(self, gens):
        K = MultiQuadField(gens)
        span = K.span()
        for a in span:
            for b in span:
                prod = a * b
                assert K.contains_sqrt(squarefree_part(prod) if prod != 1 else 1)

    def test_basis_reduction_canonical(self):
        assert MultiQuadField([2, 3, 6]) == MultiQuadField([2, 3])
        assert MultiQuadField([-1, 7]) == MultiQuadField([-7, -1])
        assert MultiQuadField([6, 10]).degree == 4


class TestCyclotomicIntersection:
    def test_full_at_16(self):
        K = MultiQuadField([-1, 2])
        assert K.cyclotomic_intersection(16) == K

    def test_q_stays_q(self):
        for n in (1, 7, 16, 360):
            assert QQ_FIELD.cyclotomic_intersection(n) == QQ_FIELD

    def test_minus_seven_at_14(self):
        # only d = -7 has |disc| = 7 dividing 14
        K = MultiQuadField([-1, 7])
        assert K.cyclotomic_intersection(14) == MultiQuadField([-7])

    @pytest.mark.parametrize("gens", [(-1, 2), (-3, 5), (-1, 7, 3)])
    @pytest.mark.parametrize("n", [8, 12, 14, 15, 16, 18])
    def test_contained_and_idempotent(self, gens, n):
        K = MultiQuadField(gens)
        inter = K.cyclotomic_intersection(n)
        assert all(K.contains_sqrt(d) for d in inter.gens)
        assert inter.cyclotomic_intersection(n) == inter


class TestResidueDegree:
    def test_examples(self):
        assert MultiQuadField([-1]).residue_degree(3) == (2, False)
        assert MultiQuadField([5]).residue_degree(5)[1] is True
        assert MultiQuadField([2]).residue_degree(7) == (1, False)

    def test_two_rejected(self):
        with pytest.raises(QFieldError):
            MultiQuadField([5]).residue_degree(2)

    @pytest.mark.parametrize("gens", [(), (-1,), (5,), (-1, 2), (-3, 5), (2, 7)])
    def test_matches_splitting_brute_force(self, gens):
        """f equals the max splitting degree of x^2 - d mod p over the span."""
        K = MultiQuadField(gens)
        for p in range(3, 50):
            if not all(p != q for q in (2,)) or pow(2, p - 1, p) != 1:
                continue
            from mqtorsion.intutil import is_prime

            if not is_prime(p):
                continue
            f, ram = K.residue_degree(p)
            brute_f = 1
            brute_ram = False
            for d in K.span():
                if d == 1:
                    continue
                if d % p == 0:
                    brute_ram = True
                    continue
                has_root = any((x * x - d) % p == 0 for x in range(p))
                if not has_root:
                    brute_f = 2
            assert (f, ram) == (brute_f, brute_ram), (gens, p)


class TestTwistClasses:
    def test_examples(self):
        assert MultiQuadField([-3, 5]).twist_classes() == [1, -3, 5, -15]
        assert QQ_FIELD.twist_classes() == [1]
        assert MultiQuadField([-7]).twist_classes() == [1, -7]

    def test_cardinality(self):
        K = MultiQuadField([-1, 2, 5])
        assert len(K.twist_classes()) == K.degree == 8


class TestTowerArith:
    def test_sqrt2_conjugate_product(self):
        K = MultiQuadField([2])
        one, r2 = K.one(), K.sqrt_gen(2)
        assert (one + r2) * (one - r2) == K.from_rational(-1)

    def test_conjugation_multiplicative_on_sqrt_minus_15(self):
        K = MultiQuadField([-3, 5])
        m15 = K.sqrt_gen(-15)
        signs = tuple(-1 if g == -3 else 1 for g in K.gens)
        assert m15.conjugate(signs) == -m15

    def test_norm_of_unit(self):
        K = MultiQuadField([2])
        v = K.from_rational(3) + K.from_rational(2) * K.sqrt_gen(2)
        assert v.norm_to_q() == 1

    def test_inverse_round_trip(self):
        K = MultiQuadField([-3, 5])
        rng = random.Random(7)
        for _ in range(25):
            coords = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
            from mqtorsion.qfield import TowerElem

            v = TowerElem(K, coords)
            if v.is_zero():
                continue
            assert v * v.inverse() == K.one()

    def test_division_by_zero(self):
        K = MultiQuadField([2])
        with pytest.raises(QFieldError):
            K.one() / K.zero()


class TestSqrtInTower:
    def test_examples(self):
        K = MultiQuadField([2])
        assert sqrt_in_tower(K.from_rational(4)) in (K.from_rational(2), K.from_rational(-2))
        v = K.from_rational(3) + K.from_rational(2) * K.sqrt_gen(2)
        s = sqrt_in_tower(v)
        assert s is not None and s * s == v
        assert sqrt_in_tower(MultiQuadField([3]).from_rational(2)) is None

    @pytest.mark.parametrize("gens", [(), (2,), (-1, 5), (-3, 5, 7)])
    def test_round_trip_random(self, gens):
        K = MultiQuadField(gens)
        rng = random.Random(20240 + len(gens))
        from mqtorsion.qfield import TowerElem

        trials = 1000 // (len(gens) + 1) + 50
        for _ in range(trials):
            coords = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(K.degree)
            )
            v = TowerElem(K, coords)
            sq = v * v
            s = sqrt_in_tower(sq)
            assert s is not None and s * s == sq
            assert s == v or s == -v


class TestHyperplane:
    def test_simple(self):
        assert hyperplane_avoiding(2, (1, 0), (0, 1)) == (1, 1)

    def test_exhaustive_small_dims(self):
        for n in (2, 3, 4):
            vecs = [tuple(m >> i & 1 for i in range(n)) for m in range(1, 2**n)]
            for x in vecs:
                for y in vecs:
                    if x == y:
                        continue
                    phi = hyperplane_avoiding(n, x, y)
                    assert sum(a * b for a, b in zip(phi, x)) % 2 == 1
                    assert sum(a * b for a, b in zip(phi, y)) % 2 == 1

    def test_rejections(self):
        with pytest.raises(QFieldError):
            hyperplane_avoiding(2, (1, 0), (1, 0))
        with pytest.raises(QFieldError):
            hyperplane_avoiding(2, (0, 0), (1, 0))


def _field_of_literal(literal: str) -> MultiQuadField:
    """The documented grammar of a field literal, written out by hand."""
    s = literal.strip()
    if s in ("Q", "q", ""):
        return QQ_FIELD
    gens = []
    for part in s.split(","):
        body = part.strip(" \t\n\r\x0b\x0c")
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not digits or not all(c in "0123456789" for c in digits):
            raise QFieldError(literal)
        d = int(body)
        if abs(d) > 10**6:
            raise QFieldError(literal)
        gens.append(d)
    return MultiQuadField(gens)  # QFieldError on 0, 1 or a square factor


class TestParseField:
    def test_literals(self):
        assert parse_field("Q") == QQ_FIELD
        assert parse_field("-1,2") == MultiQuadField([-1, 2])
        with pytest.raises(QFieldError):
            parse_field("1,x")

    @PROPERTY
    @given(st.text(alphabet="0123456789,+- \tQq_x\u0663\u00a0", max_size=16))
    def test_fuzzed_literals(self, literal):
        """Any text parses to the field its ASCII decimal generators name, or
        raises QFieldError; nothing else escapes."""
        try:
            expect = _field_of_literal(literal)
        except QFieldError:
            with pytest.raises(QFieldError):
                parse_field(literal)
            return
        assert parse_field(literal) == expect

    def test_more_independent_generators_than_the_cap_refused(self, monkeypatch):
        """21 primes are refused from their echelon basis, before any span;
        20 parse without building one.  A dependent generator counts once."""
        built = []
        monkeypatch.setattr(qfield, "_span_tables", lambda gens: built.append(gens))
        primes = [p for p in range(2, 80) if all(p % q for q in range(2, p))][:MAX_GENERATORS + 1]
        literal = ",".join(map(str, primes))
        with pytest.raises(QFieldError, match=f"^field of 21 independent generators exceeds {MAX_GENERATORS}$"):
            parse_field(literal)
        K = parse_field(",".join(map(str, primes[:-1])) + f",{primes[0] * primes[1]}")
        assert len(K.gens) == MAX_GENERATORS and K.contains_sqrt(primes[1]) and built == []

    def test_all_subfields_dedup(self):
        fields = all_subfields((-1, 2, -2))
        assert len(fields) == 5  # Q, Q(i), Q(sqrt2), Q(sqrt-2), Q(i,sqrt2)


MATRIX_GENS = (-1, 2, -2, 3, -3, 5, -7)
SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def tower_pair(draw):
    """(K, L, d, v, w): K spanned by matrix generators, L = K(sqrt(d)), and
    two elements of K."""
    K = MultiQuadField(draw(st.lists(st.sampled_from(MATRIX_GENS), max_size=4)))
    d = draw(st.sampled_from(MATRIX_GENS))
    L = MultiQuadField(K.gens + (d,))
    v, w = (TowerElem(K, tuple(draw(st.lists(SMALL, min_size=K.degree, max_size=K.degree)))) for _ in "vw")
    return K, L, d, v, w


class TestEmbedding:
    def test_project_inverts_lift_where_signs_differ(self):
        # here L's own generators are (-1, 3, 7), so sqrt(21) in K lifts to
        # -sqrt(3)*sqrt(7) in L
        K, L = MultiQuadField([-3, -7]), MultiQuadField([-3, -7, -1])
        v = TowerElem(K, tuple(Fraction(c) for c in (1, 2, 3, 4)))
        assert K.project(L.lift(v)) == v
        assert L.lift(K.sqrt_gen(21)) == -(L.sqrt_gen(3) * L.sqrt_gen(7))

    @PROPERTY
    @given(tower_pair())
    def test_project_inverts_lift(self, case):
        K, L, _, v, _ = case
        assert K.project(L.lift(v)) == v
        for d in K.span():
            assert K.project(L.lift(K.sqrt_gen(d))) == K.sqrt_gen(d)

    @PROPERTY
    @given(tower_pair())
    def test_lift_is_multiplicative(self, case):
        K, L, _, v, w = case
        assert L.lift(v * w) == L.lift(v) * L.lift(w)
        assert L.lift(v + w) == L.lift(v) + L.lift(w)

    @PROPERTY
    @given(tower_pair())
    def test_galois_over_fixes_the_subfield(self, case):
        K, L, _, v, _ = case
        galois = L.galois_over(K)
        assert len(galois) == 2 ** (len(L.gens) - len(K.gens)) - 1
        assert all(L.lift(v).conjugate(signs) == L.lift(v) for signs in galois)

    @PROPERTY
    @given(tower_pair())
    def test_project_refuses_an_element_outside(self, case):
        K, L, d, _, _ = case
        if K.contains_sqrt(d):
            assert K.project(L.sqrt_gen(d)) == K.sqrt_gen(d)
        else:
            with pytest.raises(QFieldError):
                K.project(L.sqrt_gen(d))


SIGNED = [-1] + [s * p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37) for s in (1, -1)]


class TestClassTable:
    """The lookups against their factorisation definitions."""

    @PROPERTY
    @given(st.lists(st.integers(-2000, 2000).filter(bool).map(squarefree_part).filter(lambda d: d != 1), max_size=6))
    def test_span_contains_and_sqrt_gen(self, gens):
        K = MultiQuadField(gens)
        assert K.degree <= 64
        classes = {squarefree_part(prod) for prod in K.gen_products}
        assert K.span() == sorted(classes, key=lambda d: (abs(d), d < 0))
        for d in SIGNED + sorted(classes):
            assert K.contains_sqrt(d) == (d in classes)
        for d in classes:
            s = K.sqrt_gen(d)
            assert s * s == K.from_rational(d)
            (mask,) = [m for m, c in enumerate(s.coords) if c]
            assert squarefree_part(K.gen_products[mask]) == d

    @PROPERTY
    @given(st.lists(st.sampled_from(SIGNED), max_size=6), st.sampled_from([8, 12, 15, 24, 120, 840]))
    def test_subfields_match_their_definitions(self, gens, n):
        K = MultiQuadField(gens)
        keep = [d for d in K.span() if n % abs(d if d % 4 == 1 else 4 * d) == 0]
        assert K.cyclotomic_intersection(n) == MultiQuadField([d for d in keep if d != 1])
        v = sum((K.sqrt_gen(d) for d in K.span()[::3]), K.zero())
        ds = [squarefree_part(K.gen_products[m]) for m, c in enumerate(v.coords) if c and m]
        assert support_gens(v) == MultiQuadField(ds)


# coordinates for the Fraction reference: zero often, ints as well as
# Fractions, and denominators that share factors, so that the gcd matters
COORD = st.one_of(st.just(0), st.integers(-9, 9), st.fractions(min_value=-40, max_value=40, max_denominator=36))


@st.composite
def field_and_coords(draw):
    """A field of degree 1 to 16 and two coordinate tuples for it."""
    K = MultiQuadField(draw(st.lists(st.sampled_from(SIGNED), max_size=4)))
    a, b = (tuple(draw(st.lists(COORD, min_size=K.degree, max_size=K.degree))) for _ in "ab")
    return K, a, b


def schoolbook_mul(K, a, b):
    """The product on one Fraction per coordinate."""
    out = [Fraction(0)] * K.degree
    nz_a = [(s, Fraction(c)) for s, c in enumerate(a) if c]
    nz_b = [(t, Fraction(c)) for t, c in enumerate(b) if c]
    for s, cs in nz_a:
        for t, ct in nz_b:
            m = s & t
            scale = cs * ct
            if m:
                scale *= K.gen_products[m]
            out[s ^ t] += scale
    return tuple(out)


def is_canonical(v):
    return v.den > 0 and gcd(v.den, *v.nums) == 1 and v.coords == tuple(Fraction(n, v.den) for n in v.nums)


class TestIntegerForm:
    """TowerElem on integers over one denominator, against arithmetic on
    Fraction coordinates."""

    @PROPERTY
    @given(field_and_coords(), st.data())
    def test_arithmetic_matches_fraction_reference(self, case, data):
        K, a, b = case
        v, w = TowerElem(K, a), TowerElem(K, b)
        assert v.coords == tuple(map(Fraction, a))
        assert bool(v) == any(v.nums) == (not v.is_zero())
        assert (v + w).coords == tuple(x + y for x, y in zip(v.coords, w.coords))
        assert (v - w).coords == tuple(x - y for x, y in zip(v.coords, w.coords))
        assert (-v).coords == tuple(-x for x in v.coords)
        assert (v * w).coords == schoolbook_mul(K, a, b)
        num, den = data.draw(st.integers(-12, 12)), data.draw(st.integers(-12, 12).filter(bool))
        assert v.scale(num, den).coords == tuple(x * num / den for x in v.coords)
        signs = tuple(data.draw(st.sampled_from((1, -1))) for _ in K.gens)
        flips = [prod(s for i, s in enumerate(signs) if m >> i & 1) for m in range(K.degree)]
        assert v.conjugate(signs).coords == tuple(f * x for f, x in zip(flips, v.coords))
        if not w.is_zero():
            one = (Fraction(1),) + (Fraction(0),) * (K.degree - 1)
            assert schoolbook_mul(K, w.inverse().coords, b) == one
            assert schoolbook_mul(K, (v / w).coords, b) == v.coords

    @PROPERTY
    @given(field_and_coords())
    def test_results_are_canonical(self, case):
        K, a, b = case
        v, w = TowerElem(K, a), TowerElem(K, b)
        results = [v, w, v + w, v - w, v - v, -v, v * w, v * v, v.conjugate((-1,) * len(K.gens))]
        results += [v.scale(6, -4), v.scale(0, 3), v.scale(1, 2)]
        results += [K.zero(), K.one(), K.from_rational(Fraction(-6, 4))] + [K.sqrt_gen(d) for d in K.span()]
        if not w.is_zero():
            results += [w.inverse(), v / w]
        assert all(is_canonical(r) for r in results)

    @PROPERTY
    @given(field_and_coords())
    def test_equality_is_equality_of_coords(self, case):
        K, a, b = case
        v, w = TowerElem(K, a), TowerElem(K, b)
        assert (v == w) == (v.coords == w.coords)
        # the same element by a route whose intermediate sums share factors
        third = K.from_rational(Fraction(1, 3))
        u = (v + v + v) * third
        assert u == v and u.nums == v.nums and u.den == v.den
        for x in (v, w, u, v * w):
            assert hash(x) == hash((x.field, x.coords)) == hash(x)
        assert hash(u) == hash(v)

    @PROPERTY
    @given(field_and_coords())
    def test_sqrt_squares_back(self, case):
        K, a, _ = case
        sq = TowerElem(K, a) * TowerElem(K, a)
        s = sqrt_in_tower(sq)
        assert s is not None and s * s == sq and is_canonical(s)

    @PROPERTY
    @given(field_and_coords())
    def test_sqrt_matches_the_inverse_reference(self, case):
        """The same root, or None, as the square root that divides by
        tower inverses, on squares, on non-squares, and on squares times
        the top generator, which take the branch y = 0 with x/d a square."""
        K, a, b = case
        v, w = TowerElem(K, a), TowerElem(K, b)
        cases = [v, v * v, v * v + w]
        if K.gens:
            half = K.degree // 2
            low = TowerElem(K, a[:half] + (0,) * half)  # in the subfield of the lower generators
            cases += [low * low, (low * low).scale(K.gens[-1])]
        for x in cases:
            assert sqrt_in_tower(x) == sqrt_in_tower_by_inverses(x)

    def test_immutable(self):
        v = MultiQuadField([2, 3]).sqrt_gen(6)
        for name, value in (("nums", (0, 0, 0, 1)), ("den", 2), ("field", QQ_FIELD), ("coords", ()), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        with pytest.raises(AttributeError):
            del v.den
        assert v.nums == (0, 0, 0, 1) and v.den == 1


# +-{-1, 2, 3, ..., 47}
POOL47 = sorted({s * d for d in (-1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) for s in (1, -1)} - {1})
ODD_PRIMES_50 = [p for p in range(3, 50, 2) if all(p % q for q in range(3, p, 2))]
CYCLOTOMIC_LEVELS = [n for n in range(1, 8 * 3 * 5 * 7 * 11 * 13 + 1) if (8 * 3 * 5 * 7 * 11 * 13) % n == 0]


class TestSubspaceOperations:
    """Each question asked of the echelon basis against the enumeration of
    the span (`tests/reference.py`), on fields of up to 8 generators."""

    fields = st.lists(st.sampled_from(POOL47), max_size=8).map(MultiQuadField)

    @PROPERTY
    @given(K=fields, extra=st.lists(st.integers(-3000, 3000), max_size=8))
    def test_contains_sqrt(self, K, extra):
        for d in [*POOL47, *K.span(), *extra]:
            try:
                expect = contains_sqrt_by_span(K, d)
            except QFieldError:
                with pytest.raises(QFieldError):
                    K.contains_sqrt(d)
                continue
            assert K.contains_sqrt(d) == expect, (K, d)

    @PROPERTY
    @given(K=fields)
    def test_residue_degree(self, K):
        for p in ODD_PRIMES_50:
            assert K.residue_degree(p) == residue_degree_by_span(K, p), (K, p)

    @PROPERTY
    @given(K=fields)
    def test_cyclotomic_intersection(self, K):
        for n in CYCLOTOMIC_LEVELS:
            assert K.cyclotomic_intersection(n) == cyclotomic_intersection_by_span(K, n), (K, n)

    @PROPERTY
    @given(K=fields)
    def test_signature_twist_classes_and_lower(self, K):
        assert K.signature() == signature_by_span(K)
        assert K.twist_classes() == list(signature_by_span(K))
        n = len(K.gens)
        assert list(K.gen_products) == [prod(K.gens[i] for i in range(n) if m >> i & 1) for m in range(2**n)]
        if K.gens:
            assert K.lower == lower_by_span(K)

    @PROPERTY
    @given(K=fields, n=st.sampled_from(CYCLOTOMIC_LEVELS))
    def test_embedding(self, K, n):
        for sub in (K.cyclotomic_intersection(n), K.lower if K.gens else K):
            assert K.embedding(sub) == embedding_by_span(K, sub), (K, sub)

    @PROPERTY
    @given(gens=st.lists(st.sampled_from(POOL47), max_size=8), data=st.data())
    def test_equal_spans_are_one_object(self, gens, data):
        """The span from its generators, from all its classes in any order,
        and from the generators with products of pairs mixed in."""
        K = MultiQuadField(gens)
        classes = data.draw(st.permutations(K.span()[1:]))
        pairs = [squarefree_part(a * b) for a, b in zip(gens, gens[1:]) if squarefree_part(a * b) != 1]
        assert MultiQuadField(classes) is K
        assert MultiQuadField(pairs + gens[::-1]) is K

    def test_copies_are_the_interned_field(self):
        K = MultiQuadField([-3, 10])
        assert copy.copy(K) is K and copy.deepcopy(K) is K and pickle.loads(pickle.dumps(K)) is K
        assert QQ_FIELD.gens == () and MultiQuadField(()).gens == ()

    @PROPERTY
    @given(K=fields)
    def test_a_field_rebuilt_after_eviction_equals_the_old(self, K):
        old_signature, old_hash = K.signature(), hash(K)
        qfield._field.cache_clear()
        L = MultiQuadField(K.gens)
        assert L is not K and L == K and hash(L) == old_hash
        assert L.signature() == old_signature and L.one() == K.one()
