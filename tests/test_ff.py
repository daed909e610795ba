import pytest

from mqtorsion.ff import MAX_TABLE_ORDER, FieldError, Tables, make_field, tables
from mqtorsion.intutil import is_prime
from reference import FqElem, elements, from_int, is_square, one, quadratic_extension, sqrt, tables_entry_by_entry, zero

SMALL_FIELDS = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (11, 2), (13, 1), (13, 2)]


def euler_nonresidue(r, p):
    return pow(r % p, (p - 1) // 2, p) == p - 1


class TestMakeField:
    def test_f9_nonresidue_is_minus_one(self):
        F = make_field(3, 2)
        assert F.r == -1
        assert euler_nonresidue(-1, 3)

    def test_f5_prime_field(self):
        F = make_field(5, 1)
        assert F.order == 5 and F.r is None

    def test_even_characteristic_rejected(self):
        with pytest.raises(FieldError):
            make_field(2, 1)

    def test_nonprime_rejected(self):
        with pytest.raises(FieldError):
            make_field(9, 1)

    def test_bad_degree_rejected(self):
        with pytest.raises(FieldError):
            make_field(5, 3)

    @pytest.mark.parametrize("p,k", [(p, 2) for p, k in SMALL_FIELDS if k == 2])
    def test_r_is_smallest_nonresidue(self, p, k):
        F = make_field(p, k)
        scan = [-1] + list(range(2, p))
        expected = next(r for r in scan if euler_nonresidue(r, p))
        assert F.r == expected


class TestArith:
    def test_t_squared_is_minus_one_in_f9(self):
        F = make_field(3, 2)
        t = FqElem(F, 0, 1)
        assert t * t == from_int(F, -1)

    def test_inverse_of_two_in_f5(self):
        F = make_field(5, 1)
        assert from_int(F, 2).inverse() == from_int(F, 3)

    def test_mixed_field_rejected(self):
        a = one(make_field(3, 1))
        b = one(make_field(5, 1))
        with pytest.raises(FieldError):
            a + b

    def test_division_by_zero(self):
        F = make_field(7, 1)
        with pytest.raises(FieldError):
            one(F) / zero(F)

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_field_axioms_sampled(self, p, k):
        F = make_field(p, k)
        els = list(elements(F))
        sample = els[:: max(1, len(els) // 7)]
        for a in sample:
            for b in sample:
                assert a + b == b + a
                assert a * b == b * a
                for c in sample[:3]:
                    assert (a + b) + c == a + (b + c)
                    assert a * (b + c) == a * b + a * c
                if not b.is_zero():
                    assert (a / b) * b == a


class TestSqrt:
    def test_sqrt_of_minus_one_in_f5(self):
        F = make_field(5, 1)
        got = sqrt(from_int(F, -1))
        assert got is not None and set(got) == {from_int(F, 2), from_int(F, 3)}

    def test_sqrt_of_minus_one_in_f9(self):
        F = make_field(3, 2)
        got = sqrt(from_int(F, -1))
        t = FqElem(F, 0, 1)
        assert got is not None and set(got) == {t, -t}

    def test_three_is_not_square_in_f7(self):
        # Euler: 3^3 = 27 = -1 mod 7
        assert pow(3, 3, 7) == 7 - 1
        F = make_field(7, 1)
        assert sqrt(from_int(F, 3)) is None
        assert not is_square(from_int(F, 3))

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_square_census(self, p, k):
        """Exactly (q-1)/2 nonzero squares; sqrt succeeds exactly on those."""
        F = make_field(p, k)
        squares = {a * a for a in elements(F) if not a.is_zero()}
        assert len(squares) == (F.order - 1) // 2
        for a in elements(F):
            got = sqrt(a)
            if a.is_zero():
                assert got == (zero(F), zero(F))
            elif a in squares:
                assert got is not None and got[0] * got[0] == a and got[1] * got[1] == a
            else:
                assert got is None and not is_square(a)


class TestEnumerate:
    @pytest.mark.parametrize(
        "p,k,n", [(5, 1, 5), (3, 2, 9), (13, 2, 169)]
    )
    def test_counts_and_distinctness(self, p, k, n):
        els = list(elements(make_field(p, k)))
        assert len(els) == n == len(set(els))


class TestProperties:
    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_fermat_exhaustive(self, p, k):
        F = make_field(p, k)
        q = F.order
        for a in elements(F):
            if not a.is_zero():
                assert a ** (q - 1) == one(F)


class TestTables:
    @pytest.mark.parametrize("p,k", [(3, 2), (5, 1), (7, 2), (13, 2)])
    def test_tables_agree_with_elements(self, p, k):
        F = make_field(p, k)
        T = tables(F)
        els = list(elements(F))
        step = max(1, len(els) // 11)
        for i in range(0, len(els), step):
            for j in range(0, len(els), step):
                assert els[T.add[i][j]] == els[i] + els[j]
                assert els[T.mul[i][j]] == els[i] * els[j]
            assert els[T.neg[i]] == -els[i]
            if i:
                assert els[T.inv[i]] == els[i].inverse()
            assert T.is_sq[i] == is_square(els[i])

    @pytest.mark.parametrize("p,k", [(1031, 1), (37, 2), (10000019, 2)])
    def test_order_above_the_bound_refused(self, p, k):
        F = make_field(p, k)
        assert F.order > MAX_TABLE_ORDER
        with pytest.raises(FieldError, match="too large"):
            tables(F)


def fq_reference_tables(F):
    """Every table of `Tables`, computed with FqElem arithmetic."""
    els = list(elements(F))
    return {
        "add": [[(a + b).code for b in els] for a in els],
        "mul": [[(a * b).code for b in els] for a in els],
        "neg": [(-a).code for a in els],
        "inv": [0] + [a.inverse().code for a in els[1:]],
        "sqrt": [tuple(sorted({r.code for r in sqrt(a) or ()})) for a in els],
        "is_sq": [is_square(a) for a in els],
    }


ODD_PRIMES_BELOW_40 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@pytest.mark.parametrize(
    "p,k", [(p, 1) for p in ODD_PRIMES_BELOW_40] + [(p, 2) for p in (3, 5, 7, 11, 13)]
)
def test_integer_built_tables_match_fq_arithmetic(p, k):
    F = make_field(p, k)
    T = Tables(F)
    for name, expect in fq_reference_tables(F).items():
        assert getattr(T, name) == expect, name


# every field with tables whose order is at most 400, and the two largest
# fields of the shipped reductions
GATHERED_FIELDS = [(p, 1) for p in range(3, 401) if is_prime(p)] + [
    (p, 2) for p in range(3, 20) if is_prime(p)
] + [(31, 2), (1009, 1)]


@pytest.mark.parametrize("p,k", GATHERED_FIELDS)
def test_gathered_tables_match_entry_by_entry(p, k):
    """`add` from digit blocks and `mul` from discrete-log gathers equal
    the tables computed one entry at a time."""
    F = make_field(p, k)
    T = Tables(F)
    assert (T.add, T.mul) == tables_entry_by_entry(F)


def test_mul_rows_share_their_entries():
    # a gathered row holds the int objects of the exp list, not q fresh
    # ints per row: a*b and b*a are one object
    T = Tables(make_field(31, 2))
    assert all(T.mul[a][b] is T.mul[b][a] for a in range(1, 961, 37) for b in range(1, 961, 41))


class TestQuadraticExtension:
    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2)])
    def test_is_a_field_of_square_order(self, p, k):
        base = make_field(p, k)
        E = quadratic_extension(base)
        assert E.order == base.order ** 2
        els = list(E.elements())
        assert len(els) == E.order == len(set(els))
        one = E.one
        # nonzero squares count, Frobenius fixes exactly the base copy
        sq = {E.mul(x, x) for x in els if x != E.zero}
        assert len(sq) == (E.order - 1) // 2
        fixed = [x for x in els if E.conj(x) == x]
        assert len(fixed) == base.order
        for s in list(sq)[:: max(1, len(sq) // 23)]:
            r = E.sqrt(s)
            assert r is not None and E.mul(r, r) == s

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
    def test_norm_square_test_matches_the_root_table(self, p, k):
        # x = a + b*u is a square in F_{q^2} iff its norm a^2 - r b^2 is a
        # square in F_q, the identity behind the genus-2 count of N2
        E = quadratic_extension(make_field(p, k))
        T = E.base
        els = list(E.elements())
        squares = {E.mul(y, y) for y in els}
        for a, b in els:
            norm = T.add[T.mul[a][a]][T.neg[T.mul[E.r][T.mul[b][b]]]]
            assert T.is_sq[norm] == ((a, b) in squares) == (E.sqrt((a, b)) is not None), (a, b)
