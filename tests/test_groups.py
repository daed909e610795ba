import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqtorsion.groups import (
    AbGroupStructure,
    GroupError,
    scalar_mul,
    structure_from_elements,
    subgroup_span,
    sylow_subgroups,
)
from mqtorsion.intutil import factorize
from mqtorsion.mwtors import meet_many
from reference import layer_census

# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


class TestAbGroupStructure:
    def test_divisibility_enforced(self):
        with pytest.raises(GroupError):
            AbGroupStructure((4, 6))

    def test_from_summands_canonicalizes(self):
        assert AbGroupStructure.from_summands([3, 19]) == AbGroupStructure((57,))
        assert AbGroupStructure.from_summands([2, 6]) == AbGroupStructure((2, 6))
        assert AbGroupStructure.from_summands([6, 2]) == AbGroupStructure((2, 6))
        assert AbGroupStructure.from_summands([2, 2, 4, 40]) == AbGroupStructure((2, 2, 4, 40))
        assert AbGroupStructure.from_summands([12, 1092]) == AbGroupStructure((12, 1092))

    def test_order_exponent(self):
        g = AbGroupStructure((2, 6))
        assert g.order == 12 and g.exponent == 6

    def test_parts(self):
        g = AbGroupStructure.from_summands([2, 90])
        assert g.odd_part() == AbGroupStructure((45,))
        assert g.ell_part(2) == AbGroupStructure((2, 2))
        assert g.ell_part(3) == AbGroupStructure((9,))

    def test_embeds_in(self):
        a = AbGroupStructure.from_summands([2, 6])
        b = AbGroupStructure.from_summands([2, 30])
        assert a.embeds_in(b)
        assert not b.embeds_in(a)
        assert not AbGroupStructure.from_summands([4]).embeds_in(AbGroupStructure.from_summands([2, 2]))

    def test_direct_sum(self):
        a = AbGroupStructure((2, 2))
        b = AbGroupStructure((5,))
        assert a.direct_sum(b) == AbGroupStructure((2, 10))

    def test_prime_exponents_returns_fresh_containers(self):
        g = AbGroupStructure((2, 12))
        first = g.prime_exponents()
        assert first == {2: [1, 2], 3: [1]}
        first[2].append(5)
        first[3].clear()
        first[7] = [1]
        assert g.prime_exponents() == {2: [1, 2], 3: [1]}
        assert g.ell_part(2) == AbGroupStructure((2, 4))


def cyclic_product_elements(ns):
    """Model group: tuples mod ns."""
    els = list(product(*[range(n) for n in ns]))
    add = lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, ns))
    zero = tuple(0 for _ in ns)
    return els, add, zero


class TestCensus:
    @pytest.mark.parametrize(
        "ns,expect",
        [
            ((12,), (12,)),
            ((2, 6), (2, 6)),
            ((4, 4), (4, 4)),
            ((2, 2, 4, 40), (2, 2, 4, 40)),
            ((3, 19), (57,)),
            ((8, 2, 3), (2, 24)),
        ],
    )
    def test_recovers_structure(self, ns, expect):
        els, add, zero = cyclic_product_elements(ns)
        st = structure_from_elements(els, add, zero)
        assert st == AbGroupStructure(expect)

    def test_random_groups(self):
        rng = random.Random(3)
        for _ in range(15):
            ns = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
            els, add, zero = cyclic_product_elements(ns)
            st = structure_from_elements(els, add, zero)
            assert st == AbGroupStructure.from_summands(ns)
            assert st.order == len(els)

    def test_subgroup_span(self):
        els, add, zero = cyclic_product_elements((4, 6))
        span = subgroup_span([(2, 0), (0, 3)], add, zero)
        assert span == {(0, 0), (2, 0), (0, 3), (2, 3)}
        assert subgroup_span([(1, 1)], add, zero, cap=3) is None

    def test_subgroup_span_cap_counts_generators(self):
        # the span of 1 and 2 in Z/5 is all 5 elements, over a cap of 4
        els, add, zero = cyclic_product_elements((5,))
        assert subgroup_span([(1,), (2,)], add, zero, cap=4) is None
        assert len(subgroup_span([(1,), (2,)], add, zero, cap=5)) == 5

    def test_two_group_census_adds_once_per_element(self):
        # the span of the whole 2-group makes the only additions: one per
        # element but 0, and its relation rows give the structure
        els, add, zero = cyclic_product_elements((2, 4, 8))
        calls = []
        counted = lambda a, b: calls.append(1) or add(a, b)
        assert structure_from_elements(els, counted, zero) == AbGroupStructure((2, 4, 8))
        assert len(calls) == len(els) - 1

    def test_sylow_subgroups_of_z12_x_z2(self):
        els, add, zero = cyclic_product_elements((12, 2))
        sylow = sylow_subgroups(els, add, zero)
        assert set(sylow[2]) == {(a, b) for a in (0, 3, 6, 9) for b in (0, 1)}
        assert set(sylow[3]) == {(0, 0), (4, 0), (8, 0)}
        assert list(sylow_subgroups(els, add, zero, primes=[3])) == [3]

    def test_sylow_of_a_non_group_raises(self):
        # six elements of Z/12: 3 times them spans {0, 3, 6, 9}, past order 2
        z12 = lambda a, b: (a + b) % 12
        with pytest.raises(GroupError):
            sylow_subgroups(list(range(6)), z12, 0)
        # Z/3 listed twice: 3 times them is 0, short of order 2
        z3 = lambda a, b: (a + b) % 3
        with pytest.raises(GroupError):
            sylow_subgroups([0, 1, 2] * 2, z3, 0)


def brute_span(generators, add, zero):
    """Closure of {zero} under adding generators, one pass at a time."""
    out = {zero}
    while True:
        grown = out | {add(x, g) for x in out for g in generators}
        if grown == out:
            return out
        out = grown


@st.composite
def group_elements(draw, max_elements=4, max_n=16):
    """(ns, elements, add, zero, some elements) for a product of up to three Z/n, n <= max_n."""
    ns = tuple(draw(st.lists(st.integers(1, max_n), min_size=1, max_size=3)))
    els, add, zero = cyclic_product_elements(ns)
    picks = draw(st.lists(st.sampled_from(els), max_size=max_elements))
    return ns, els, add, zero, picks


class TestCensusProperties:
    @PROPERTY
    @given(group_elements(), st.one_of(st.none(), st.integers(1, 300)))
    def test_span_matches_brute_closure(self, group, cap):
        ns, els, add, zero, gens = group
        calls = []
        counted = lambda a, b: calls.append(1) or add(a, b)
        expect = brute_span(gens, add, zero)
        span = subgroup_span(gens, counted, zero, cap=cap)
        if cap is not None and len(expect) > cap:
            assert span is None
        else:
            assert span == expect
            assert len(calls) == len(span) - 1  # one addition per new element
            assert len(span.rows) == len(span.gens)
            assert math.prod(row[-1] for row in span.rows) == len(span)
            for row in span.rows:  # each relation sums to 0 on its generators
                total = tuple(sum(c * g[i] for c, g in zip(row, span.gens)) % n for i, n in enumerate(ns))
                assert total == zero, (row, span.gens)

    @PROPERTY
    @given(group_elements(max_elements=0), st.randoms(use_true_random=False))
    def test_structure_matches_summands(self, group, rng):
        # shuffled, so that the spans draw their generators, and record
        # their relation rows, in arbitrary orders
        ns, els, add, zero, _ = group
        rng.shuffle(els)
        expect = AbGroupStructure.from_summands(ns)
        assert structure_from_elements(els, add, zero) == layer_census(els, add, zero) == expect

    @PROPERTY
    @given(group_elements(max_elements=0, max_n=30))
    def test_sylow_census_matches_brute_force(self, group):
        ns, els, add, zero, _ = group
        double = lambda x: add(x, x)
        n = len(els)
        sylow = sylow_subgroups(els, add, zero)
        assert set(sylow) == set(factorize(n))
        for ell, S in sylow.items():
            q = ell ** factorize(n)[ell]
            assert set(S) == {x for x in els if scalar_mul(q, x, add, double, zero) == zero}
        expect = AbGroupStructure.from_summands(ns)
        assert structure_from_elements(els, add, zero) == expect
        for ell, S in sylow.items():  # each Sylow span reads its own structure
            assert S.structure() == expect.ell_part(ell)

    @PROPERTY
    @given(group_elements(max_elements=1), st.integers(0, 200))
    def test_table_scalar_matches_repeated_addition(self, group, n):
        ns, els, add, zero, picks = group
        x = picks[0] if picks else els[-1]
        double = {y: add(y, y) for y in els}.__getitem__
        expect = zero
        for _ in range(n):
            expect = add(expect, x)
        assert scalar_mul(n, x, add, double, zero) == expect


# finite abelian groups as sums of a few small cyclic groups, from a pool
# small enough that embeddings between two draws are common
STRUCTURES = st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), max_size=4).map(AbGroupStructure.from_summands)


def embeds_by_factors(A, B):
    """A embeds in B iff, right-aligned, each invariant factor of A divides
    the corresponding one of B: the oracle for `embeds_in`."""
    a, b = A.factors, B.factors
    return len(a) <= len(b) and all(y % x == 0 for x, y in zip(reversed(a), reversed(b)))


def meet(*groups):
    return meet_many([(g, frozenset()) for g in groups])


def increments(A, primes):
    """The structures one step above A: one ell-exponent raised by one, or
    one more Z/ell, for each ell in primes."""
    pe = A.prime_exponents()
    for ell in primes:
        es = pe.get(ell, [])
        for j in range(len(es) + 1):
            up = es[:j] + [es[j] + 1] + es[j + 1:] if j < len(es) else es + [1]
            yield AbGroupStructure.from_prime_exponents({**pe, ell: up})


class TestLatticeLaws:
    """`embeds_in` is the partial order of the subgroup lattice on
    isomorphism types, and `meet_many` its meet."""

    @PROPERTY
    @given(STRUCTURES, STRUCTURES, STRUCTURES)
    def test_embeds_in_is_a_partial_order(self, A, B, C):
        assert A.embeds_in(B) == embeds_by_factors(A, B)
        assert A.embeds_in(A)
        if A.embeds_in(B) and B.embeds_in(A):
            assert A == B
        if A.embeds_in(B) and B.embeds_in(C):
            assert A.embeds_in(C)
        AB = A.direct_sum(B)
        assert A.embeds_in(AB) and AB.embeds_in(AB.direct_sum(C))
        assert A.embeds_in(AB.direct_sum(C))

    @PROPERTY
    @given(STRUCTURES, STRUCTURES, STRUCTURES)
    def test_meet_is_the_greatest_lower_bound(self, A, B, X):
        M = meet(A, B)
        assert M == meet(B, A)
        assert meet(A, A) == A
        assert M.embeds_in(A) and M.embeds_in(B)
        if X.embeds_in(A) and X.embeds_in(B):
            assert X.embeds_in(M)
        primes = set(A.prime_exponents()) | set(B.prime_exponents())
        for Y in increments(M, primes):
            assert not (Y.embeds_in(A) and Y.embeds_in(B)), (A, B, Y)

    @PROPERTY
    @given(STRUCTURES, STRUCTURES, STRUCTURES)
    def test_meet_is_associative(self, A, B, C):
        assert meet(meet(A, B), C) == meet(A, meet(B, C)) == meet(A, B, C)

    @PROPERTY
    @given(STRUCTURES, STRUCTURES)
    def test_direct_sum_and_primary_parts(self, A, B):
        assert A.direct_sum(B).order == A.order * B.order
        assert A.direct_sum(B) == B.direct_sum(A)
        assert A.ell_part(2).direct_sum(A.odd_part()) == A
        total = AbGroupStructure.trivial()
        for ell, e in factorize(A.order).items() if A.order > 1 else ():
            part = A.ell_part(ell)
            assert part.order == ell**e
            total = total.direct_sum(part)
        assert total == A
        assert A.odd_part().order % 2 == 1


def test_factorize_returns_a_fresh_dict():
    first = factorize(360)
    first[2] = 99
    first[7] = 1
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
