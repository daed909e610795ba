"""Each per-field stage of derive is computed once per distinct input it
reads, and each such key is checked here against the per-field path of
`tests/reference.py` that it replaced: on all 52 fields of the acceptance
matrix, for every model the stage applies to, and on random fields of up to
6 generators.  The memos under test are cleared first, and no reference
reads them.  The genus-1 2-part, read from one search per model, is checked
against the affine reference search over K n M_E and over every subfield of
M_E = Q(sqrt(-1), sqrt(2), sqrt(p) : odd p | N), the field that holds
every point of 2-power order over every K, for the builtin models and for
random curves.  The twists of both genera are the classes of K whose
primes lie in the model's set S, whatever the primes of the call; the
genus-1 odd part read over them is checked against the sum over all the
twist classes of K, and the genus-1 table against T on every
multi-quadratic subfield of Q(zeta_N), which proves it for every K.  A
derive over 12 generators builds the span of K only for its signature."""

import math
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mqtorsion import ellcurve, groups, hyperjac, mwtors, qfield
from mqtorsion.groups import AbGroupStructure
from mqtorsion.hyperjac import JacError, weierstrass_orbits
from mqtorsion.intutil import factorize, is_prime
from mqtorsion.qfield import QQ_FIELD, MultiQuadField, all_subfields
from reference import (
    from_summands_uncached,
    genus1_odd_part_per_field,
    reduction_bound_per_field,
    torsion_over_tower,
    twists_by_filter,
    two_primary_over_tower_affine,
    weierstrass_orbits_per_call,
)

# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

MATRIX = all_subfields((-1, 2, -2, 3, -3, 5, -7))
MODELS = [mwtors.get_model(label) for label in sorted(mwtors.model_registry())]
GENUS1 = [m for m in MODELS if m.genus == 1]
GENUS2 = [m for m in MODELS if m.genus == 2]
MEMOS = (
    mwtors._reduction_meet, mwtors._screen_orders, mwtors._twist_primes, mwtors.genus1_twist_torsion,
    mwtors._genus1_two_primary, mwtors._genus1_two_points, hyperjac._weierstrass_factors, groups._from_summands,
)

POOL = sorted({s * d for d in (-1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29) for s in (1, -1)} - {1})
fields = st.lists(st.sampled_from(POOL), max_size=6).map(MultiQuadField)
# (s, t) of x^2 + sx + t: any, or split, whose curves have E[4] over M_E
QUADRATICS = st.one_of(
    st.tuples(st.integers(-30, 30), st.integers(-300, 300)),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda ab: (-ab[0] - ab[1], ab[0] * ab[1])),
)


@pytest.fixture(autouse=True)
def cleared_memos():
    for memo in MEMOS:
        memo.cache_clear()


@contextmanager
def counted(name, module=ellcurve):
    """The arguments of each call of `module.<name>` in the block, which
    derive looks up in the module on every call: the curve (A, B) of each
    `two_primary_over_tower` search, the (E, d) of each
    `twist_odd_torsion_q`, the (model, d, ell, ...) of each twist bound or
    witness of `mwtors`."""
    calls, f = [], getattr(module, name)
    setattr(module, name, lambda *args: calls.append(args) or f(*args))
    try:
        yield calls
    finally:
        setattr(module, name, f)


def admits(model, K) -> bool:
    return model.zeta_gen is None or K.contains_sqrt(model.zeta_gen)


def check_reduction_bound(model, K):
    expect = reduction_bound_per_field(model, K, model.primes)
    assert mwtors.reduction_bound(model, K, model.primes) == expect, (model.label, K)
    assert mwtors.reduction_bound(model, K, model.primes) == expect  # from the memo


def check_genus1_odd_part(model, K):
    """The odd part of T read over K itself against the sum over the twist
    classes of K."""
    expect = genus1_odd_part_per_field(model, K)
    assert mwtors._genus1_torsion(model, K).odd_part() == expect, (model.label, K)


def check_genus1_two_part(model, K):
    """The 2-part over K read from the search against the affine reference
    search over K n Q(zeta_m), m = 8 * prod(odd p | N), which holds K n M_E
    and so every point of 2-power order over K."""
    check_read(model, K, model.primes, K.cyclotomic_intersection(8 * math.prod(mwtors._bad_primes(model) - {2})))


def search_field(model) -> MultiQuadField:
    """M_E: sqrt(-1), sqrt(2) and sqrt(p) for each odd prime p of the
    minimal discriminant, which are the odd primes of the conductor N."""
    return MultiQuadField([-1, 2, *(p for p in factorize(ellcurve.minimal_disc(model.elliptic())) if p > 2)])


def check_search_field(model, M):
    """The field of the one search lies in M_E."""
    F, _ = mwtors._genus1_two_primary(model)
    assert all(M.contains_sqrt(d) for d in F.gens), (model.label, F)


def check_read(model, K, primes, over=None):
    """The 2-part over K read from the search against the affine reference
    search over K, or over a subfield `over` of K that holds K n M_E,
    capped by the 2-exponent of the reductions at the primes over K."""
    A, B = ellcurve.short_model(model.elliptic())
    cap = reduction_bound_per_field(model, K, primes).ell_part(2).exponent
    expect = two_primary_over_tower_affine(A, B, K if over is None else over, cap)[0]
    assert mwtors._genus1_torsion(model, K).ell_part(2) == expect, (model.label, K)


def every_subfield(M) -> set:
    """Every subfield of M, each the span of a subset of its square classes."""
    out = {QQ_FIELD}
    for d in M.signature()[1:]:
        out |= {MultiQuadField([*K.gens, d]) for K in out}
    return out


def check_twists(model, K):
    """The twist classes of K n Q(zeta_m) against the classes of K filtered
    by their primes."""
    expect = twists_by_filter(K, mwtors._twist_primes(model))
    assert list(mwtors._twist_classes(model, K)) == expect, (model.label, K)


def check_weierstrass_orbits(F, K):
    expect = weierstrass_orbits_per_call(F, K)
    assert weierstrass_orbits(F, K) == expect, (F, K)


class TestOnTheMatrix:
    """All 52 fields of the acceptance matrix."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label)
    def test_reduction_bound(self, model):
        for K in MATRIX:
            check_reduction_bound(model, K)
        assert mwtors._reduction_meet.cache_info().misses < len(MATRIX)

    @pytest.mark.parametrize("model", GENUS1, ids=lambda m: m.label)
    def test_genus1_odd_part(self, model):
        for K in MATRIX:
            if admits(model, K):
                check_genus1_odd_part(model, K)

    @pytest.mark.parametrize("model", GENUS1, ids=lambda m: m.label)
    def test_genus1_two_part(self, model):
        for K in MATRIX:
            if admits(model, K):
                check_genus1_two_part(model, K)

    @pytest.mark.parametrize("model", GENUS1, ids=lambda m: m.label)
    def test_genus1_two_part_read_from_the_largest_field(self, model):
        """Every subfield of M_E, the largest field that the 2-part needs
        (168 fields over the 8 models), read from the one search against
        the affine search over the subfield.  The search grows its field
        inside M_E."""
        M = search_field(model)
        subfields = every_subfield(M)
        assert len(subfields) == {4: 5, 8: 16, 16: 67}[M.degree]
        with counted("two_primary_over_tower") as searches:
            for K in subfields:
                check_read(model, K, model.primes)
        assert len(searches) == 1
        check_search_field(model, M)

    def test_one_search_per_model_in_either_order(self):
        """The 52 fields derived for every genus-1 model in signature order,
        and again, the memos cleared, in reverse: each order searches once
        per model and gives the same results."""

        def derive_all(fields) -> dict:
            return {
                (model.label, K): mwtors.derive_torsion(model, K)
                for model in GENUS1 for K in fields if admits(model, K)
            }

        curves = sorted(ellcurve.short_model(model.elliptic()) for model in GENUS1)
        with counted("two_primary_over_tower") as searches:
            forward = derive_all(MATRIX)
        assert sorted(searches) == curves
        for memo in MEMOS:
            memo.cache_clear()
        with counted("two_primary_over_tower") as searches:
            assert derive_all(MATRIX[::-1]) == forward
        assert sorted(searches) == curves

    @pytest.mark.parametrize("model", GENUS2, ids=lambda m: m.label)
    def test_genus2_twists(self, model):
        for K in MATRIX:
            check_twists(model, K)

    @pytest.mark.parametrize("model", GENUS2, ids=lambda m: m.label)
    def test_weierstrass_orbits(self, model):
        for K in MATRIX:
            check_weierstrass_orbits(model.f_coeffs, K)
        assert hyperjac._weierstrass_factors.cache_info().misses == 1

    def test_from_summands(self):
        """The summands of every reduction bound and table row of the matrix."""
        for model in MODELS:
            for K in MATRIX:
                if not admits(model, K):
                    continue
                tabled = mwtors.table_lookup(model.label, K) or ()
                reductions = tuple(
                    n for p in model.primes for n in mwtors.jac_structure(model, p, K.residue_degree(p)[0]).factors
                )
                for ns in (tabled, reductions, reductions + tabled):
                    got = AbGroupStructure.from_summands(ns)
                    assert got == from_summands_uncached(ns), ns
                    assert AbGroupStructure.from_summands(list(ns)) is got


class TestOnRandomFields:
    """Fields of up to 6 generators from +-{-1, 2, 3, 5, ..., 29}."""

    @PROPERTY
    @given(K=fields)
    def test_reduction_bound(self, K):
        for model in MODELS:
            check_reduction_bound(model, K)

    @PROPERTY
    @given(K=fields)
    def test_genus1_odd_part(self, K):
        for model in GENUS1:
            if admits(model, K):
                check_genus1_odd_part(model, K)

    @PROPERTY
    @given(K=fields)
    def test_genus1_two_part(self, K):
        for model in GENUS1:
            if admits(model, K):
                check_genus1_two_part(model, K)

    @PROPERTY
    @given(r=st.integers(-20, 20), quadratic=QUADRATICS, data=st.data())
    def test_genus1_two_part_read_from_a_superfield(self, r, quadratic, data):
        """Random curves y^2 = (x - r)(x^2 + sx + t), with as many bad
        primes as they have: the search raises nothing and grows its field
        inside M_E, and the 2-part of random subfields of M_E read from it
        equals the affine search over each, capped by the reductions at
        three good odd primes."""
        s, t = quadratic
        assume(s * s != 4 * t and r * r + s * r + t != 0)  # a squarefree cubic
        ainvs = (0, s - r, 0, t - r * s, -r * t)
        model = mwtors.CurveModel(f"({r}, {s}, {t})", (1, 1), 1, None, ainvs, None, "test")
        M = search_field(model)
        for memo in MEMOS:
            memo.cache_clear()
        disc = ellcurve.minimal_disc(model.elliptic())
        primes = [p for p in range(3, 64) if is_prime(p) and disc % p][:3]
        with counted("two_primary_over_tower") as searches:
            check_search_field(model, M)
            for _ in range(3):
                check_read(model, MultiQuadField(data.draw(st.lists(st.sampled_from(M.signature()[1:]), max_size=4))), primes)
        assert len(searches) == 1

    @PROPERTY
    @given(K=fields)
    def test_genus2_twists(self, K):
        for model in GENUS2:
            check_twists(model, K)

    @PROPERTY
    @given(K=fields, primes=st.lists(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)), min_size=1, max_size=3))
    def test_genus2_twists_do_not_depend_on_the_primes(self, K, primes):
        """Every twist d that a genus-2 derive bounds or searches for a
        witness is a class of K with primes in S, or d = 1 when S is empty,
        whatever the primes of the call, a lone prime outside S included."""
        for model, call in product(GENUS2, (primes, primes[:1])):
            allowed = twists_by_filter(K, mwtors._twist_primes(model)) or [1]
            with counted("twist_ell_upper", mwtors) as bounds, counted("genus2_twist_witness", mwtors) as witnesses:
                try:
                    mwtors.derive_torsion(model, K, call)
                except (mwtors.ModelError, ellcurve.BadReduction):
                    continue  # a bad prime, or a part no prime of the call bounds
            assert {d for _, d, *_ in bounds + witnesses} <= set(allowed), (model.label, K, call)

    @PROPERTY
    @given(
        coeffs=st.lists(st.integers(-6, 6), min_size=6, max_size=7).filter(lambda c: c[-1] != 0),
        K=fields,
    )
    def test_weierstrass_orbits(self, coeffs, K):
        F = tuple(coeffs)
        try:
            expect = weierstrass_orbits_per_call(F, K)
        except JacError:
            for _ in range(2):  # raised on every call, never cached
                with pytest.raises(JacError):
                    weierstrass_orbits(F, K)
            return
        assert weierstrass_orbits(F, K) == expect

    @PROPERTY
    @given(ns=st.lists(st.integers(1, 720), max_size=6))
    def test_from_summands(self, ns):
        got = AbGroupStructure.from_summands(ns)
        assert got == from_summands_uncached(ns)
        assert AbGroupStructure.from_summands(tuple(ns)) is got
        assert AbGroupStructure.from_summands(got.factors) is got
        assert AbGroupStructure.from_prime_exponents(got.prime_exponents()) is got


@pytest.mark.parametrize("k", [4, 8, 12])
def test_many_bad_primes_search_a_field_of_degree_8(k):
    """y^2 = x^3 - n^2 x, n the product of the first k odd primes, has k
    odd bad primes and M_E of degree 2^(k + 2).  The search grows its field
    only to Q(sqrt(-1), sqrt(2), sqrt(n)), over which
    E(Q(2^oo))[2^oo] = Z/4 x Z/4 lies, and the read over each subfield of
    it equals the affine search at the cap 16 that any curve over Q
    allows."""
    n = math.prod([p for p in range(3, 42) if is_prime(p)][:k])
    model = mwtors.CurveModel(f"n = {n}", (1, 1), 1, None, (0, 0, 0, -n * n, 0), None, "test")
    assert len(search_field(model).gens) == k + 2
    A, B = ellcurve.short_model(model.elliptic())
    with counted("two_primary_over_tower") as searches:
        F, basis = mwtors._genus1_two_primary(model)
        assert F == MultiQuadField([-1, 2, n]) and [o for _, o in basis] == [4, 4]
        for K in every_subfield(MultiQuadField([-1, 2, n])):
            expect = two_primary_over_tower_affine(A, B, K, 16)[0]
            assert mwtors._genus1_torsion(model, K).ell_part(2) == expect, K
    assert len(searches) == 1


def level_field(model) -> MultiQuadField:
    """The largest multi-quadratic subfield of Q(zeta_N), N = level[1]."""
    N = model.level[1]
    return MultiQuadField([-1, 2, *(p for p in factorize(N) if p > 2)]).cyclotomic_intersection(N)


def odd_twists(model) -> list:
    """D: (d, factors of E^d(Q)[odd]) for each +- product d of the primes
    of `_twist_primes` whose twist has odd torsion, every other d
    having none.  Production tries only the classes of each K."""
    S = mwtors._twist_primes(model)
    classes = MultiQuadField([-1, *S]).twist_classes() if S else ()
    return [(d, group.factors) for d in classes if (group := mwtors.genus1_twist_torsion(model, d)).order > 1]


class TestGenus1Theorem:
    """J(K)_tors of a genus-1 model is T = G + sum over d in D of E^d(Q)[odd]
    read over K, so the theorem for every multi-quadratic K is a finite
    check on T."""

    def test_the_table_equals_t_on_every_subfield_of_the_level_field(self):
        """Every class that T reads lies in Q(zeta_N), N = level[1]: each d
        of D, and each generator of the search field F, which holds the
        support of every point of G.  So T read over K is T read over
        K n Q(zeta_N), on which the table is keyed, and the table equals T
        on every K once it does on each multi-quadratic subfield of
        Q(zeta_N) that admits the model: 20 fields over the 8 models."""
        checked = 0
        for model in GENUS1:
            C = level_field(model)
            F, _ = mwtors._genus1_two_primary(model)
            assert all(C.contains_sqrt(d) for d, _ in odd_twists(model)), model.label
            assert all(C.contains_sqrt(d) for d in F.gens), model.label
            for K in every_subfield(C):
                if admits(model, K):
                    tabled = AbGroupStructure.from_summands(mwtors.table_lookup(model.label, K))
                    assert mwtors._genus1_torsion(model, K) == tabled, (model.label, K)
                    checked += 1
        assert checked == 20

    def test_the_twists_of_the_builtin_models(self):
        D = {model.label: odd_twists(model) for model in GENUS1}
        assert D == {
            "X1(11)": [(1, (5,))], "X1(14)": [(1, (3,))], "X1(2,10)": [(1, (3,))], "X1(6,6)": [(1, (3,))],
            "X1(3,9)": [(1, (3,)), (-3, (3,))], "X1(15)": [], "X1(2,12)": [], "X1(4,8)": [],
        }

    @pytest.mark.parametrize("label", ["X1(15)", "X1(2,12)", "X1(4,8)", "n = 3 * 5 * ... * 41"])
    def test_no_twist_is_tried_when_no_odd_prime_bounds_the_reductions(self, label):
        """No odd prime divides every p * #E(F_{p^2}) at the screen primes:
        S is empty, and no twist is tried over any K, for 12 odd bad primes
        too."""
        if label.startswith("n"):
            n = math.prod([p for p in range(3, 42) if is_prime(p)])
            model = mwtors.CurveModel(label, (1, 1), 1, None, (0, 0, 0, -n * n, 0), None, "test")
        else:
            model = mwtors.get_model(label)
        with counted("twist_odd_torsion_q") as twists:
            assert mwtors._twist_primes(model) == frozenset()
            assert mwtors._genus1_torsion(model, MultiQuadField([-1, 2, 3, 5, 7])).odd_part().order == 1
        assert twists == []

    def test_the_twists_tried_are_those_of_k(self):
        """y^2 + xy + a3*y = x^3 has a point of order 3, and with
        a3 = 7 * 13 * 19 * 31 * 37 * 43 the screen keeps 3 while S holds
        nine primes.  A derive tries only the classes of K with primes in S:
        d = 1 over Q, the four classes of Q(sqrt 7, sqrt 13) over
        Q(sqrt 5, sqrt 7, sqrt 13), each twist once per model."""
        a3 = 7 * 13 * 19 * 31 * 37 * 43
        model = mwtors.CurveModel("a3", (1, 3), 1, None, (1, 0, a3, 0, 0), None, "test", primes=(5, 11))
        assert {3, 7, 13, 19, 31, 37, 43} < mwtors._twist_primes(model)
        with counted("twist_odd_torsion_q") as twists:
            assert mwtors.derive_torsion(model, QQ_FIELD).lower == AbGroupStructure.cyclic(3)
            assert [d for _, d in twists] == [1]
            K = MultiQuadField([5, 7, 13])
            assert mwtors.derive_torsion(model, K).lower.odd_part() == AbGroupStructure.cyclic(3)
            mwtors.derive_torsion(model, K)
        assert sorted(d for _, d in twists) == [1, 7, 13, 91]

    @PROPERTY
    @given(
        q=st.sampled_from([s * p for p in (5, 11, 13, 17, 19, 23, 29) for s in (1, -1)]),
        gens=st.lists(st.sampled_from(POOL), max_size=3),
        with_q=st.booleans(),
    )
    def test_the_twists_of_x1_14_by_a_prime(self, q, gens, with_q):
        """E^q for E = X1(14) and q a prime outside {2, 3, 7}: D is {q}, a
        prime of N, with E^q(Q(sqrt q))[3] from E(Q)[3].  T read over random
        K, with and without sqrt(q), against the sum over the twist classes
        of K and against the torsion over K by the descent."""
        A, B = ellcurve.short_model(ellcurve.quadratic_twist(mwtors.get_model("X1(14)").elliptic(), q))
        model = mwtors.CurveModel(f"X1(14)^({q})", (1, 1), 1, None, (0, 0, 0, A, B), None, "test")
        assert odd_twists(model) == [(q, (3,))]
        K = MultiQuadField(gens + [q] * with_q)
        T = mwtors._genus1_torsion(model, K)
        assert T.odd_part() == genus1_odd_part_per_field(model, K)
        assert T == torsion_over_tower(model.elliptic(), K)

    def test_derive_builds_no_support_field(self):
        """Both genera take their twists from `_twist_classes` over K
        itself, with no support field of their own: every genus-1 derive
        lists them once, and so does every genus-2 derive that enters its
        twist loops, and each gives the table on every matrix field."""
        with counted("_twist_classes", mwtors) as calls:
            for model in MODELS:
                for K in MATRIX:
                    if admits(model, K):
                        calls.clear()
                        result = mwtors.derive_torsion(model, K)
                        assert result.closed and result.lower.factors == mwtors.table_lookup(model.label, K)
                        assert calls == [(model, K)] or model.genus == 2 and calls == [], (model.label, K)


def test_an_unbounded_part_is_refused_on_every_call():
    """A ModelError of the meet is never cached: a lone prime leaves its own
    part without a bound, on the first call and on the next."""
    model = mwtors.get_model("X1(11)")
    for _ in range(2):
        with pytest.raises(mwtors.ModelError, match="no reduction prime bounds the 5-part"):
            mwtors.reduction_bound(model, MultiQuadField([-1]), (5,))


TWELVE = (-1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("label", ["X1(11)", "X1(18)"])
def test_derive_builds_no_span_but_the_signature_of_k(label, monkeypatch):
    """Over 12 generators: residue degrees, membership and cyclotomic
    intersections build no span; a derive builds the span of K once, for
    its signature, and no other span of more than 2^8 classes."""
    built = []
    span_tables = qfield._span_tables
    monkeypatch.setattr(qfield, "_span_tables", lambda gens: built.append(gens) or span_tables(gens))
    qfield._field.cache_clear()
    K = MultiQuadField(TWELVE)
    for p in (3, 5, 7, 13, 37, 41):
        K.residue_degree(p)
    for d in (-1, 6, -31, 37, 2 * 41):
        K.contains_sqrt(d)
    for n in (8, 3 * 4 * 11, 8 * 3 * 5 * 7 * 13 * 31 * 37):
        K.cyclotomic_intersection(n)
    assert built == []
    result = mwtors.derive_torsion(mwtors.get_model(label), K)
    assert result.field_signature == K.signature()
    assert [gens for gens in built if gens == K.gens] == [K.gens]
    assert all(len(gens) <= 8 for gens in built if gens != K.gens), built
