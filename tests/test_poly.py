import math
import random
from fractions import Fraction as Fr
from functools import partial, reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mqtorsion import poly
from mqtorsion.ellcurve import INF, CurveError, EllipticCurve, points_over_code_domain
import reference
from reference import (
    curve_b_invariants,
    curve_mul,
    divpoly_f,
    kill_poly,
    low_degree_factors_monic_associate,
    low_degree_rational_factors,
    primitive_ints,
    primitive_kernel_poly_b,
    squarefree_parts,
    two_torsion_cubic,
)
from mqtorsion.ff import make_field
from mqtorsion.intutil import is_prime
from mqtorsion.qfield import MultiQuadField
from mqtorsion.poly import (
    QQ,
    PolyError,
    ResidueDomain,
    TowerDomain,
    code_domain,
    kernels,
    low_degree_factors,
    mp_factor_squarefree,
    padd,
    pdegree,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pmonic,
    pmul,
    pnormalize,
    psub,
    splitting_quadratic_field,
)


def b_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return tuple(Fr(x) for x in (b2, b4, b6, b8))


# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _codes(pk):
    dom = code_domain(make_field(*pk))
    return dom, lambda rng: rng.randrange(dom.q)


def _residues(m):
    return reference.ResidueRing(m), lambda rng: rng.randrange(m)


def _rationals(_):
    return QQ, lambda rng: Fr(rng.randint(-4, 4), rng.randint(1, 3))


def _tower(gens):
    dom = TowerDomain(MultiQuadField(gens))
    draw = lambda rng: reference.tower_elem(dom.K, [Fr(rng.randint(-2, 2)) for _ in range(dom.K.degree)])
    return dom, lambda rng: dom.zero if rng.random() < 0.2 else draw(rng)


# (domain factory, its argument, rounds) for the kernel kit checks
KIT_CASES = [
    *(pytest.param(_codes, (p, k), 300, id=f"{p}-{k}") for p, k in [(3, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2)]),
    *(pytest.param(_residues, m, 300, id=f"Z{m}") for m in (13, 3**4, 1000)),
    pytest.param(_rationals, None, 100, id="QQ"),
    pytest.param(_tower, (-1, 3), 30, id="tower"),
]


def _random_poly(rng, coeff, lead=None):
    """A normalised tuple of up to 7 coefficients drawn by coeff; nonzero
    with a leading coefficient that passes lead, when lead is given."""
    while True:
        f = poly.pnormalize([coeff(rng) for _ in range(rng.randint(0, 7))])
        if lead is None or (f and lead(f[-1])):
            return f


def _q(*cs):
    """The rational polynomial with these coefficients, constant first."""
    return pnormalize([Fr(c) for c in cs])


def _mul(*fs):
    return reduce(partial(pmul, QQ), fs)


def _zmul(*fs):
    """The product of integer polynomials, as an integer tuple."""
    return tuple(map(int, _mul(*fs)))


X15_B = b_invariants(0, 0, 0, -27, 8694)  # y^2 = (x+21)(x^2-21x+414)
X14_CUBIC = _q(13662, -675, 0, 1)  # (x+33)(x^2-33x+414)


class TestArith:
    def test_gcd_over_q(self):
        assert pgcd(QQ, _q(-1, 0, 1), _q(1, -2, 1)) == _q(-1, 1)

    def test_discriminant_integer_oracle(self):
        assert poly.discriminant((-531, -66, 1)) == 66 * 66 + 4 * 531 == 6480

    def test_x14_model_root(self):
        assert peval(QQ, X14_CUBIC, Fr(-33)) == 0

    def test_divmod_random_round_trip(self):
        rng = random.Random(5)
        for _ in range(60):
            f = _q(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
            g = _q(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 5))))
            if not g:
                continue
            q, r = pdivmod(QQ, f, g)
            assert padd(QQ, pmul(QQ, q, g), r) == f
            assert pdegree(r) < pdegree(g)

    @pytest.mark.parametrize("make,arg,rounds", KIT_CASES)
    def test_code_kit_agrees_with_generic_kernels(self, make, arg, rounds):
        """The kernel kit over each domain computes what the generic kernels
        of `reference` compute with one domain call per coefficient, on
        random tuples over F_p and F_{p^2} codes, Z/m for m prime, a prime
        power and composite, Q and a tower.  Divisors have a unit leading
        coefficient, and gcdext runs only over fields."""
        dom, coeff = make(arg)
        kit = kernels(dom)
        rng = random.Random(repr(dom))
        field = not isinstance(dom, ResidueDomain) or is_prime(dom.m)
        unit = lambda c: c and (field or math.gcd(c, dom.m) == 1)
        for _ in range(rounds):
            f, g = _random_poly(rng, coeff), _random_poly(rng, coeff)
            h = _random_poly(rng, coeff, unit)
            assert kit.add(f, g) == reference.generic_padd(dom, dom.add, f, g)
            assert kit.sub(f, g) == reference.generic_padd(dom, dom.sub, f, g)
            assert kit.neg(f) == tuple(dom.neg(c) for c in f)
            assert kit.mul(f, g) == reference.generic_pmul(dom, f, g)
            assert kit.divmod(f, h) == reference.generic_pdivmod(dom, f, h)
            assert kit.monic(h) == reference.generic_pmonic(dom, h)
            if field:
                assert kit.gcdext(f, h) == reference.generic_pgcdext(dom, f, h)
                assert kit.gcdext(h, f) == reference.generic_pgcdext(dom, h, f)

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_fp_codes_are_residues(self, p):
        """F_p codes are the residues 0..p-1 (`ff.Tables`), so the kernels
        over CodeDomain(F_p) and over ResidueDomain(p) agree on the same
        int tuples."""
        code, residue = kernels(code_domain(make_field(p, 1))), kernels(ResidueDomain(p))
        rng = random.Random(p)
        coeff = lambda rng: rng.randrange(p)
        for _ in range(200):
            f, g = _random_poly(rng, coeff), _random_poly(rng, coeff)
            h = _random_poly(rng, coeff, bool)
            assert code.add(f, g) == residue.add(f, g)
            assert code.sub(f, g) == residue.sub(f, g)
            assert code.neg(f) == residue.neg(f)
            assert code.mul(f, g) == residue.mul(f, g)
            assert code.divmod(f, h) == residue.divmod(f, h)
            assert code.gcdext(f, h) == residue.gcdext(f, h)
            assert code.gcdext(h, f) == residue.gcdext(h, f)
            assert code.monic(h) == residue.monic(h)

    def test_finite_field_domain_roots(self):
        dom = code_domain(make_field(13, 2))
        # x^2 + 1 over F_169 has two roots
        f = (dom.one, dom.zero, dom.one)
        roots = [x for x in range(dom.q) if not peval(dom, f, x)]
        assert len(roots) == 2

    def test_resultant_sylvester_small_oracle(self):
        # res(x-a, x-b) = a - b... check res(f,g) = prod f(roots of g) * lc(g)^deg f
        f = _q(-2, 1)  # x - 2
        g = _q(-12, 7, -1)  # -(x-3)(x-4)
        # res(f, g) = lc(f)^2 * f-eval... use res(f,g) = lc(g)^deg f * prod f(beta)
        val = poly.resultant(f, g)
        assert val == (-1) ** 1 * (3 - 2) * (4 - 2) * (-1) ** 0 or val == -2 or val == 2
        # definitive: swap formula res(f,g) = (-1)^(mn) res(g,f), res(g,f)=lc(f)^2*g(2)
        assert abs(val) == abs(peval(QQ, g, Fr(2)))

    @PROPERTY
    @given(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=8),
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=8),
    )
    def test_resultant_matches_the_sylvester_determinant(self, f, g):
        """The Euclidean recurrence against the Sylvester determinant of
        `reference.resultant_sylvester`, zero and constant inputs included."""
        f, g = pnormalize(f), pnormalize(g)
        assert poly.resultant(f, g) == reference.resultant_sylvester(f, g)


class TestDivisionPolynomials:
    def test_n1_is_one(self):
        assert kill_poly(X15_B, 1) == _q(1)

    def test_n2_is_two_torsion_cubic(self):
        b = X15_B
        assert kill_poly(b, 2) == two_torsion_cubic(b)
        b2, b4, b6, _ = b
        assert two_torsion_cubic(b) == (b6, 2 * b4, b2, Fr(4))

    def test_three_torsion_of_j0_curve(self):
        # y^2 = x^3 + 1: tripling (0,1) by the group law gives O, so x=0 must
        # be a root; the classical polynomial is 3x^4 + 12x.
        b = b_invariants(0, 0, 0, 0, 1)
        psi3 = kill_poly(b, 3)
        assert psi3 == _q(0, 12, 0, 0, 3)
        assert peval(QQ, psi3, Fr(0)) == 0

    @pytest.mark.parametrize(
        "b",
        [X15_B, b_invariants(0, 0, 0, 0, 1), b_invariants(0, -1, 0, 1, 0)],
    )
    def test_psi_product_identity(self, b):
        """psi_{m+n} psi_{m-n} = psi_{m+1} psi_{m-1} psi_n^2 - psi_{n+1} psi_{n-1} psi_m^2
        checked as an exact polynomial identity (x-only form, even parts
        carrying T = psi_2^2)."""
        T = two_torsion_cubic(b)
        f = [divpoly_f(QQ, b, n) for n in range(25)]

        def psi_sq(n):  # psi_n^2 as x-polynomial
            sq = _mul(f[n], f[n])
            return _mul(sq, T) if n % 2 == 0 else sq

        def psi_pair(m, n):  # psi_m * psi_n as x-poly; requires m+n even
            assert (m + n) % 2 == 0
            out = _mul(f[m], f[n])
            return _mul(out, T) if m % 2 == 0 else out

        for m in range(2, 13):
            for n in range(1, m):
                lhs = psi_pair(m + n, m - n)
                rhs = psub(QQ, _mul(psi_pair(m + 1, m - 1), psi_sq(n)), _mul(psi_pair(n + 1, n - 1), psi_sq(m)))
                assert lhs == rhs, (m, n)

    def test_kill_poly_degrees(self):
        for n in range(1, 13):
            expect = (n * n - 1) // 2 if n % 2 else (n * n + 2) // 2
            assert pdegree(kill_poly(X15_B, n)) == expect

    @pytest.mark.parametrize("d", [-3, 5])
    def test_tower_recursion_embeds_the_rational_one(self, d):
        """Over Q(sqrt(d)), the recursion on the embedded b-invariants gives
        the embedded rational division polynomials."""
        K = MultiQuadField([d])
        dom = TowerDomain(K)
        for b in (X15_B, b_invariants(1, -1, 1, -2, 3)):
            bK = tuple(K.from_rational(c) for c in b)
            for n in range(1, 13):
                embedded = tuple(K.from_rational(c) for c in divpoly_f(QQ, b, n))
                assert divpoly_f(dom, bK, n) == embedded, (b, n)
                kill = tuple(K.from_rational(c) for c in kill_poly(b, n))
                assert kill_poly(bK, n, dom) == kill, (b, n)

    def test_primitive_kernel_two(self):
        assert primitive_kernel_poly_b(X15_B, 2) == two_torsion_cubic(X15_B)

    def test_primitive_kernel_eight_degree(self):
        # 8^2 - 4^2 = 48 points of exact order 8, paired by negation
        assert pdegree(primitive_kernel_poly_b(X15_B, 8)) == 48 // 2

    def test_kill_factors_into_primitives(self):
        for n in (4, 6, 8, 12):
            prod = _mul(*(primitive_kernel_poly_b(X15_B, d) for d in range(2, n + 1) if n % d == 0))
            assert pmonic(QQ, prod) == pmonic(QQ, kill_poly(X15_B, n))

    def test_x15_paper_factors_divide_prim8(self):
        p8 = primitive_kernel_poly_b(X15_B, 8)
        assert not pdivmod(QQ, p8, _q(-531, -66, 1))[1]
        assert not pdivmod(QQ, p8, _q(981, 6, 1))[1]


@st.composite
def curves_over_small_fields(draw):
    """A curve with coefficients in F_p, p <= 13, over F_{p^2}, where every
    x in F_p is the x-coordinate of a point, and its points."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    dom = code_domain(make_field(p, 2))  # F_p is the codes 0 .. p - 1
    ainvs = draw(st.lists(st.integers(0, p - 1), min_size=5, max_size=5))
    try:
        E = EllipticCurve(dom, ainvs)
    except CurveError:
        assume(False)
    return E, points_over_code_domain(E)


class TestDivisionPolynomialProperties:
    """The x-only division polynomials over F_q against the group law."""

    @PROPERTY
    @given(curves_over_small_fields(), st.integers(1, 9))
    def test_kill_poly_roots_are_the_n_torsion(self, curve, n):
        """The roots in F_p of kill_poly are the x-coordinates in F_p of the
        nonzero points killed by n, whose y lies in F_{p^2}."""
        E, points = curve
        dom, p = E.domain, E.domain.tables.p
        kill = kill_poly(curve_b_invariants(E), n, dom)
        roots = {x for x in range(p) if not peval(dom, kill, x)}
        assert roots == {P[0] for P in points if P is not INF and P[0] < p and curve_mul(E, n, P) is INF}

    @PROPERTY
    @given(curves_over_small_fields(), st.integers(2, 9))
    def test_multiplication_formula(self, curve, n):
        """x(nP) psi_n^2 = x psi_n^2 - psi_{n-1} psi_{n+1} at every P with
        nP != O, the recursion's f_m carrying T = psi_2^2 for even m."""
        E, points = curve
        dom = E.domain
        b = curve_b_invariants(E)
        T = two_torsion_cubic(b, dom)
        f = {m: divpoly_f(dom, b, m) for m in (n - 1, n, n + 1)}
        psi_sq = poly.pmul(dom, f[n], f[n])
        pair = poly.pmul(dom, f[n - 1], f[n + 1])
        if n % 2:
            pair = poly.pmul(dom, pair, T)
        else:
            psi_sq = poly.pmul(dom, psi_sq, T)
        for P in points:
            nP = INF if P is INF else curve_mul(E, n, P)
            if nP is INF:
                continue
            x = P[0]
            lhs = dom.mul(nP[0], peval(dom, psi_sq, x))
            rhs = dom.sub(dom.mul(x, peval(dom, psi_sq, x)), peval(dom, pair, x))
            assert lhs == rhs


class TestFactorExtraction:
    def test_x4_minus_1(self):
        assert low_degree_factors((-1, 0, 0, 0, 1)) == [_q(-1, 1), _q(1, 1), _q(1, 0, 1)]

    def test_irreducible_quadratic_returned(self):
        assert low_degree_factors((1, 1, 1)) == [_q(1, 1, 1)]

    def test_x15_prim8_extraction(self):
        got = low_degree_factors(primitive_ints(primitive_kernel_poly_b(X15_B, 8)))
        assert got == [_q(-531, -66, 1), _q(981, 6, 1)]

    def test_idempotence_cofactor_has_no_more(self):
        f = primitive_kernel_poly_b(X15_B, 8)
        cof = pdivmod(QQ, f, _mul(*low_degree_factors(primitive_ints(f))))[0]
        assert low_degree_factors(primitive_ints(cof)) == []

    def test_nonmonic_denominators(self):
        # 4x^2 - 1 = 4(x - 1/2)(x + 1/2)
        assert low_degree_factors((-1, 0, 4)) == [(Fr(-1, 2), Fr(1)), (Fr(1, 2), Fr(1))]

    def test_random_planted_factors(self):
        """Distinct planted linear and quadratic factors of a product with an
        irreducible quartic, which no combination of them can stand for."""
        rng = random.Random(99)
        for _ in range(20):
            lin = sorted({(rng.randint(-6, 6), 1) for _ in range(rng.randint(0, 2))})
            quad = []
            while len(quad) < 2:
                cand = (rng.randint(1, 30), rng.randint(-6, 6), 1)
                if splitting_quadratic_field(cand) != 1 and cand not in quad:
                    quad.append(cand)
            hard = (2, 0, 0, 1, 1)  # no rational roots, deg 4
            f = _zmul(hard, *lin, *quad)
            assert sorted(low_degree_factors(f)) == sorted(lin + quad)

    def test_cubic_extraction(self):
        f = _q(-2, 0, 0, 1)  # x^3 - 2, irreducible
        got = low_degree_factors(_zmul((1, 1), (-2, 0, 0, 1)))
        assert got == [_q(1, 1), f]

    def test_scalar_multiples_have_the_same_factors(self):
        f = _zmul((1, 0, 1), (-2, 3), (5, 1, 0, 1))
        assert low_degree_factors(tuple(-7 * a for a in f)) == low_degree_factors(f)
        assert (Fr(-2, 3), Fr(1)) in low_degree_factors(f)

    def test_memo_returns_a_fresh_list(self):
        f = (6, -5, 1)
        got = low_degree_factors(f)
        got.clear()
        assert low_degree_factors(f) == [_q(-3, 1), _q(-2, 1)]


class TestLeadingCoefficients:
    """Factors come out exact however large the leading coefficient: the
    primitive polynomial is factored and lifted, with no monic associate."""

    @pytest.mark.parametrize("lead", [49, 3**40, 10**400])
    def test_square_leading_coefficient(self, lead):
        # lead = r^2 with r an integer: lead x^2 - 1 = lead (x - 1/r)(x + 1/r)
        r = 7 if lead == 49 else (3**20 if lead == 3**40 else 10**200)
        assert low_degree_factors((-1, 0, lead)) == [(Fr(-1, r), Fr(1)), (Fr(1, r), Fr(1))]

    def test_irreducible_with_huge_leading_coefficient(self):
        f = (1, 0, 10**400)
        assert low_degree_factors(f) == [pmonic(QQ, _q(*f))]


# integer polynomials of degree 1 to 3 whose leading coefficient need not be
# a unit
_INT_POLYS = st.tuples(
    st.lists(st.integers(-9, 9), min_size=1, max_size=3),
    st.integers(-12, 12).filter(bool),
).map(lambda t: (*t[0], t[1]))

# the odd primes below 128
_SMALL_PRIMES = [p for p in range(3, 128, 2) if is_prime(p)]


def _certified(F) -> bool:
    """Whether F stays squarefree of its degree mod some odd prime below
    128: then F is squarefree over Q (Gauss's lemma: a repeated factor
    H^2 | F in Z[x] keeps its degree mod p and stays repeated)."""
    for p in _SMALL_PRIMES:
        if F[-1] % p:
            dom = ResidueDomain(p)
            fp = pnormalize([c % p for c in F])
            if len(pgcd(dom, fp, pderiv(dom, fp))) == 1:
                return True
    return False


class TestSquarefreeCertificate:
    """The certificate mod a good prime against Euclid over Q
    (`reference.squarefree_parts`), and the search for the Hensel prime."""

    @PROPERTY
    @given(A=_INT_POLYS, B=_INT_POLYS)
    def test_certified_means_euclid_finds_one_part(self, A, B):
        F = primitive_ints(_zmul(A, B))
        if _certified(F):
            assert squarefree_parts(F) == [(F, 1)]

    @PROPERTY
    @given(A=_INT_POLYS, B=_INT_POLYS)
    def test_repeated_factor_never_certified(self, A, B):
        assert not _certified(primitive_ints(_zmul(A, A, B)))

    def test_kill_polynomial_norms_are_certified(self):
        G = primitive_ints(primitive_kernel_poly_b(X15_B, 8))
        assert poly._find_good_prime(G) in _SMALL_PRIMES

    def test_uncapped_search_for_a_squarefree_part(self):
        # x^2 - 3 * 5 * 7 * ... * 127 is squarefree mod no odd prime below
        # 128, but is squarefree over Q
        S = (-math.prod(_SMALL_PRIMES), 0, 1)
        assert not _certified(S)
        assert poly._find_good_prime(S) == 131
        assert low_degree_factors(S) == [_q(*S)]


# integer polynomials of degree 1 to 3 with leading coefficients of either
# sign up to 10^30
_WIDE_POLYS = st.tuples(
    st.lists(st.integers(-50, 50), min_size=1, max_size=3),
    st.integers(-(10**30), 10**30).filter(bool),
).map(lambda t: (*t[0], t[1]))

# x^2 - N, N the product of the odd primes below 128, is x^2 mod each of
# them: the search for the Hensel prime of a multiple of it passes them all
_UNCERTIFIABLE = (-math.prod(_SMALL_PRIMES), 0, 1)


class TestPrimitiveLift:
    """Extraction on the primitive F against the monic-associate path it
    replaces, on each squarefree part of F."""

    def test_exceptional_curve_norms(self):
        from mqtorsion import classify

        norms = 0
        for c in classify.exceptional_registry():
            E, K = c.curve(), c.field()
            for n in (2,) if c.target == 14 else (3, 5):
                kill = kill_poly(curve_b_invariants(E), n, E.domain)
                F = primitive_ints(reference.tower_poly_norm(kill, K))
                assert low_degree_rational_factors(F, 2) == low_degree_factors_monic_associate(F, 2), (c.name, n)
                norms += 1
        assert norms == 6

    @PROPERTY
    @given(
        factors=st.lists(_WIDE_POLYS, min_size=1, max_size=4),
        max_degree=st.integers(1, 3),
        square=st.booleans(),
        uncertifiable=st.booleans(),
    )
    def test_random_products_with_large_leading_coefficients(self, factors, max_degree, square, uncertifiable):
        """Non-monic products, with a repeated factor that Euclid over Q
        splits off, or a factor that no prime below 128 certifies."""
        extra = factors[:1] * square + [_UNCERTIFIABLE] * uncertifiable
        F = primitive_ints(_zmul(*factors, *extra))
        fast = low_degree_rational_factors(F, max_degree)
        assert fast == low_degree_factors_monic_associate(F, max_degree)


class TestSplittingField:
    def test_examples(self):
        assert splitting_quadratic_field((-531, -66, 1)) == 5
        assert splitting_quadratic_field((981, 6, 1)) == -3
        assert splitting_quadratic_field((1, -2, 1)) == 1
        assert splitting_quadratic_field((414, -33, 1)) == -7


class TestModP:
    def test_factor_squarefree(self):
        p = 7
        dom = ResidueDomain(p)
        f = (1, 0, 0, 0, 0, 0, 1)  # x^6 + 1 mod 7
        facs = mp_factor_squarefree(f, p)
        prod = (1,)
        for g in facs:
            prod = poly.pmul(dom, prod, g)
        assert prod == f
        assert all(len(g) - 1 in (1, 2) for g in facs)

    @pytest.mark.parametrize("f", [(1, 0, 2), (), (3,)])
    def test_factor_squarefree_rejects_a_non_monic_input(self, f):
        with pytest.raises(PolyError, match="not a monic polynomial mod 7"):
            mp_factor_squarefree(f, 7)

    @pytest.mark.parametrize("m", [7, 9, 11**2, 3**8, 1000])
    def test_kernels_agree_with_integer_arithmetic(self, m):
        """Over Z/m the kernels compute the integer results reduced mod m,
        dividing by monic polynomials whatever m is."""
        dom = ResidueDomain(m)
        rng = random.Random(m)
        red = lambda f: pnormalize([c % m for c in f])
        for _ in range(100):
            f = [rng.randint(-m, m) for _ in range(rng.randint(0, 7))]
            g = [rng.randint(-m, m) for _ in range(rng.randint(0, 4))] + [1]
            fg = poly.pmul(QQ, [Fr(c) for c in f], [Fr(c) for c in g])
            assert poly.pmul(dom, red(f), red(g)) == red([int(c) for c in fg])
            assert poly.psub(dom, red(f), red(g)) == red(poly.psub(QQ, f, g))
            q, r = poly.pdivmod(dom, red(f), red(g))
            assert poly.padd(dom, poly.pmul(dom, q, red(g)), r) == red(f)
            assert len(r) < len(g)

    def test_gcdext_over_a_prime(self):
        dom = ResidueDomain(13)
        rng = random.Random(13)
        for _ in range(100):
            f, g = ([rng.randrange(13) for _ in range(rng.randint(1, 6))] + [1] for _ in range(2))
            d, s, t = poly.pgcdext(dom, tuple(f), tuple(g))
            assert poly.padd(dom, poly.pmul(dom, s, tuple(f)), poly.pmul(dom, t, tuple(g))) == d
            assert d == poly.pgcd(dom, tuple(f), tuple(g)) and d[-1] == 1

    def test_hensel_lift_to_a_prime_power(self):
        # x^4 + 1 = (x^2 + 4)(x^2 + 13) mod 17, lifted to 17^8
        p, k = 17, 5
        F = (1, 0, 0, 0, 1)
        G, H = poly._lift_factors(F, [(4, 0, 1), (13, 0, 1)], p, k)
        M = p**8
        ZM = ResidueDomain(M)
        assert poly.pmul(ZM, G, H) == F
        assert G[-1] == H[-1] == 1 and all(0 <= c < M for c in G + H)


def is_qq_value(x) -> bool:
    """An element of the integer-first `QQ`: an int, or a Fraction whose
    denominator is not 1 (so never a float)."""
    return type(x) is int or (type(x) is Fr and x.denominator != 1)


# ints, small and large, and Fractions with and without a denominator, as
# `QQ` holds them
QQ_VALUES = st.one_of(
    st.integers(-10**3, 10**3),
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=60).map(poly.integral),
)


class TestIntegerFirstRationals:
    """`QQ` against the Fraction-only domain `reference.FRACTIONS`."""

    def test_constants(self):
        assert (QQ.zero, QQ.one, QQ.from_int(-7)) == (0, 1, -7)
        assert all(type(c) is int for c in (QQ.zero, QQ.one, QQ.from_int(-7)))

    @PROPERTY
    @given(QQ_VALUES, QQ_VALUES)
    def test_operations_match_fractions(self, a, b):
        F = reference.FRACTIONS
        fa, fb = Fr(a), Fr(b)
        results = [
            (QQ.add(a, b), F.add(fa, fb)),
            (QQ.sub(a, b), F.sub(fa, fb)),
            (QQ.neg(a), F.neg(fa)),
            (QQ.mul(a, b), F.mul(fa, fb)),
        ]
        if b:
            results.append((QQ.div(a, b), F.div(fa, fb)))
        for got, want in results:
            assert is_qq_value(got) and got == want, (a, b, got, want)

    @PROPERTY
    @given(st.lists(QQ_VALUES, max_size=6), st.integers(0, 3), QQ_VALUES, st.lists(QQ_VALUES, max_size=5))
    def test_axpy_matches_fractions(self, out, k, c, g):
        out += [QQ.zero] * (k + len(g) - len(out))
        want = [Fr(x) for x in out]
        reference.FRACTIONS.axpy(want, k, Fr(c), [Fr(b) for b in g])
        QQ.axpy(out, k, c, g)
        assert all(map(is_qq_value, out)) and out == want

    @PROPERTY
    @given(st.lists(QQ_VALUES, min_size=1, max_size=6), st.lists(QQ_VALUES, min_size=1, max_size=4))
    def test_kernels_match_fractions(self, f, g):
        """Products, quotients, remainders and Bezout cofactors."""
        f, g = pnormalize(f), pnormalize(g)
        assume(g)
        F = reference.FRACTIONS
        fF, gF = tuple(map(Fr, f)), tuple(map(Fr, g))
        for got, want in (
            ((pmul(QQ, f, g),), (pmul(F, fF, gF),)),
            (pdivmod(QQ, f, g), pdivmod(F, fF, gF)),
            (poly.pgcdext(QQ, f, g), poly.pgcdext(F, fF, gF)),
        ):
            assert got == want and all(is_qq_value(c) for p in got for c in p)
