"""Each per-field stage of derive is computed once per distinct input it
reads, and each such key is checked here against the per-field path of
`tests/reference.py` that it replaced: on all 52 fields of the acceptance
matrix, for every model the stage applies to, and on random fields of up to
6 generators.  The memos under test are cleared first, and no reference
reads them.  The genus-1 2-part, keyed on K_2 = K_S n Q(zeta_(8 prod odd
p | N)), is checked against the search over K_S.  A derive over 12
generators builds the span of K only for its signature."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqtorsion import ellcurve, groups, hyperjac, mwtors, qfield
from mqtorsion.groups import AbGroupStructure
from mqtorsion.hyperjac import JacError, weierstrass_orbits
from mqtorsion.qfield import MultiQuadField, all_subfields
from reference import (
    from_summands_uncached,
    genus1_odd_part_per_field,
    genus2_twists_by_filter,
    reduction_bound_per_field,
    weierstrass_orbits_per_call,
)

# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

MATRIX = all_subfields((-1, 2, -2, 3, -3, 5, -7))
MODELS = [mwtors.get_model(label) for label in sorted(mwtors.model_registry())]
GENUS1 = [m for m in MODELS if m.genus == 1]
GENUS2 = [m for m in MODELS if m.genus == 2]
MEMOS = (
    mwtors._reduction_meet, mwtors._genus1_odd_part, mwtors._genus1_two_primary,
    hyperjac._weierstrass_factors, groups._from_summands,
)

POOL = sorted({s * d for d in (-1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29) for s in (1, -1)} - {1})
fields = st.lists(st.sampled_from(POOL), max_size=6).map(MultiQuadField)


@pytest.fixture(autouse=True)
def cleared_memos():
    for memo in MEMOS:
        memo.cache_clear()


def admits(model, K) -> bool:
    return model.zeta_gen is None or K.contains_sqrt(model.zeta_gen)


def support_field(model, K):
    upper = reduction_bound_per_field(model, K, model.primes)
    return mwtors.torsion_support_field(model, K, model.primes, upper)


def check_reduction_bound(model, K):
    expect = reduction_bound_per_field(model, K, model.primes)
    assert mwtors.reduction_bound(model, K, model.primes) == expect, (model.label, K)
    assert mwtors.reduction_bound(model, K, model.primes) == expect  # from the memo


def check_genus1_odd_part(model, K):
    for L in (K, support_field(model, K)):
        expect = genus1_odd_part_per_field(model, L)
        assert mwtors._genus1_odd_part(model, L) == expect, (model.label, L)


def check_genus1_two_part(model, K):
    """The 2-part searched over K_2 = K_S n Q(zeta_(8 prod odd p | N))
    against the search over K_S, under the same cap."""
    upper = reduction_bound_per_field(model, K, model.primes)
    K_S = mwtors.torsion_support_field(model, K, model.primes, upper)
    cap = upper.ell_part(2).exponent
    A, B = ellcurve.short_model(model.elliptic())
    expect = ellcurve.two_primary_over_tower(A, B, K_S, cap)[0]
    assert mwtors._genus1_torsion(model, K_S, cap).ell_part(2) == expect, (model.label, K)


def check_genus2_twists(model, K):
    K_S = support_field(model, K)
    assert K_S.twist_classes() == genus2_twists_by_filter(K, K_S), (model.label, K)


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

    @pytest.mark.parametrize("model", GENUS2, ids=lambda m: m.label)
    def test_genus2_twists(self, model):
        for K in MATRIX:
            check_genus2_twists(model, K)

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
    @given(K=fields)
    def test_genus2_twists(self, K):
        for model in GENUS2:
            check_genus2_twists(model, K)

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
