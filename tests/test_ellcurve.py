import random
from fractions import Fraction as Fr
from functools import lru_cache
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqtorsion import ellcurve, ff, qfield
from mqtorsion.ellcurve import (
    INF,
    BadReduction,
    CurveError,
    EllipticCurve,
    exhaustive_small_field_scan,
    group_structure,
    minimal_disc,
    minimal_model,
    points_over_code_domain,
    quadratic_twist,
    reduce_mod_p,
    short_curve,
    short_model,
    torsion_structure_q,
    twist_odd_torsion_q,
    two_primary_over_tower,
)
from mqtorsion.groups import AbGroupStructure, structure_from_elements, subgroup_span
from mqtorsion.intutil import factorize, is_prime, is_squarefree
from mqtorsion.mwtors import model_registry
from mqtorsion.poly import QQ, TowerDomain, code_domain, peval, splitting_quadratic_field
from mqtorsion.qfield import MultiQuadField, QQ_FIELD, all_subfields
from reference import (
    cubic_factors_by_extraction,
    curve_mul,
    order_reps_span,
    point_order,
    primitive_kernel_poly,
    quadratic_reduction_counts,
    reduce_quadratic_curve,
    roots_in_tower_by_tower_sqrt,
    torsion_over_tower,
    torsion_points_short_by_fractions,
    tower_curve_affine,
    two_primary_by_descent,
    two_primary_over_tower_affine,
    two_torsion_roots_in_tower,
)

X11 = (0, -1, -1, 0, 0)  # y^2 - y = x^3 - x^2
X14 = (0, 0, 0, -675, 13662)
X15 = (0, 0, 0, -27, 8694)
M210 = (0, 1, 0, -1, 0)
M212 = (0, -1, 0, 1, 0)
M39 = (0, 0, 1, 0, 0)
M48 = (0, 0, 0, 4, 0)
M66 = (0, 0, 0, 0, 1)
C15A1 = (1, 1, 1, -10, -10)  # 15a1: Z/8 x Z/8 over Q(sqrt(-1), sqrt(2), sqrt(3), sqrt(5), sqrt(7))


# derandomized, so that every run draws the same examples
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def E(ainvs, label=None):
    return EllipticCurve.from_ints(QQ, ainvs, label)


def good_odd_primes(E: EllipticCurve, limit: int) -> list[int]:
    """The odd primes below limit at which E has good reduction."""
    disc = minimal_disc(E)
    return [p for p in range(3, limit) if is_prime(p) and disc % p != 0]


def j_invariant(c: EllipticCurve) -> Fr:
    c4, _, disc = ellcurve.c4c6_disc(ellcurve._int_ainvs(c))
    return Fr(c4**3, disc)


def two_adic_cap(c: EllipticCurve, K) -> int:
    """A proven bound on the exponent of c(K)[2^oo]: the least 2-exponent of
    the reductions at the first two good odd primes, each over its residue
    field in K (the cap of `reference.two_primary_over_tower_affine`)."""
    return min(
        group_structure(reduce_mod_p(c, p, K.residue_degree(p)[0])).ell_part(2).exponent
        for p in good_odd_primes(c, 100)[:2]
    )


class TestGroupLaw:
    def test_identity_and_negation(self):
        c = E(X11)
        P = (Fr(0), Fr(0))
        assert c.add(P, INF) == P
        assert c.add(P, c.neg(P)) is INF
        x, y = c.neg(P)
        # -(x, y) = (x, -y - a1 x - a3)
        assert (x, y) == (Fr(0), Fr(1))

    def test_x11_point_order_five(self):
        c = E(X11)
        assert point_order(c, (Fr(0), Fr(0))) == 5

    def test_on_curve(self):
        c = E(X11)
        assert c.on_curve((Fr(0), Fr(0)))
        assert not c.on_curve((Fr(2), Fr(1)))

    def test_associativity_random(self):
        c = E((1, -1, 1, -3, 3))
        cf = reduce_mod_p(c, 11)
        pts = points_over_code_domain(cf)
        rng = random.Random(4)
        for _ in range(150):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert cf.add(cf.add(P, Q), R) == cf.add(P, cf.add(Q, R))

    def test_singular_rejected(self):
        with pytest.raises(CurveError):
            E((0, 0, 0, 0, 0))


class TestGroupStructure:
    @pytest.mark.parametrize(
        "ainvs,p,f,expect",
        [
            (X11, 3, 2, [15]),
            (X11, 5, 2, [35]),
            (M212, 7, 2, [8, 8]),
            (M212, 5, 2, [2, 16]),
            (X14, 3, 2, [2, 6]),
            (X14, 13, 2, [2, 90]),
            (X15, 7, 2, [8, 8]),
            (X15, 13, 2, [2, 96]),
            (M210, 3, 2, [2, 6]),
            (M210, 7, 2, [2, 30]),
            (M39, 5, 2, [6, 6]),
            (M39, 7, 2, [3, 21]),
            (M48, 3, 2, [4, 4]),
            (M48, 5, 2, [4, 8]),
            (M66, 5, 2, [6, 6]),
            (M66, 7, 2, [4, 12]),
        ],
    )
    def test_reductions_match_known_structures(self, ainvs, p, f, expect):
        st = group_structure(reduce_mod_p(E(ainvs), p, f))
        assert st == AbGroupStructure.from_summands(expect)

    def test_hasse_bound_exhaustive_f3(self):
        dom = code_domain(ff.make_field(3, 1))
        q = 3
        count = 0
        for a1 in range(q):
            for a2 in range(q):
                for a3 in range(q):
                    for a4 in range(q):
                        for a6 in range(q):
                            try:
                                c = EllipticCurve(dom, (a1, a2, a3, a4, a6))
                            except CurveError:
                                continue
                            n = len(points_over_code_domain(c))
                            assert (n - q - 1) ** 2 <= 4 * q
                            count += 1
        assert count > 0

    def test_weil_divisibility_property(self):
        for p, f in [(5, 1), (7, 1), (3, 2), (5, 2)]:
            st = group_structure(reduce_mod_p(E(M48), p, f))
            if len(st.factors) == 2:
                import math

                assert st.factors[0] % math.gcd(st.factors[0], p**f - 1) == 0
                assert (p**f - 1) % st.factors[0] == 0


class TestMinimalModels:
    def test_x14_good_at_three(self):
        # the cubic model has a non-minimal factor at 3; the minimal model
        # must have discriminant supported on {2, 7}
        d = minimal_disc(E(X14))
        assert d == -28

    def test_invariants_preserved(self):
        for ainvs in (X11, X14, X15, M210, M212, M39, M48, M66):
            c = E(ainvs)
            m = minimal_model(c)
            assert j_invariant(m) == j_invariant(c)

    def test_minimal_disc_divides(self):
        from mqtorsion.ellcurve import c4c6_disc, _int_ainvs

        for ainvs in (X14, X15):
            c = E(ainvs)
            big = c4c6_disc(_int_ainvs(c))[2]
            small = minimal_disc(c)
            assert big % small == 0

    def test_c4c6_disc_rejects_inexact_invariants(self):
        """Floats break c4^3 - c6^2 = 1728 disc by rounding."""
        with pytest.raises(CurveError, match="exact integers"):
            ellcurve.c4c6_disc((0.1, 0.2, 0.3, 0.4, 0.5))

    @pytest.mark.parametrize("c4, c6, step", [(2, 0, "b4"), (24, 36, "b6"), (1, 1, "a-invariants")])
    def test_model_from_c4c6_rejects_invalid_invariants(self, c4, c6, step):
        """(c4, c6) that satisfy no Kraus condition: a step of Connell's
        reconstruction is not exact."""
        with pytest.raises(CurveError, match=f"gives no integral {step}"):
            ellcurve.model_from_c4c6(c4, c6)

    def test_minimal_model_rejects_a_scaling_that_fails_kraus(self, monkeypatch):
        """A Kraus test that accepts no (c4, c6) leaves minimal_model no
        valid scaling."""
        monkeypatch.setattr(ellcurve, "_kraus_ok", lambda c4, c6: False)
        with pytest.raises(CurveError, match="no Kraus-valid scaling"):
            minimal_model(E(X11))


class TestReduction:
    def test_bad_prime_raises(self):
        with pytest.raises(BadReduction):
            reduce_mod_p(E(X11), 11)

    def test_even_prime_rejected(self):
        with pytest.raises(CurveError):
            reduce_mod_p(E(X11), 2)

    def test_quadratic_coefficients(self):
        # a curve over Q(sqrt 5): y^2 = x^3 + sqrt(5) x
        K = MultiQuadField([5])
        from mqtorsion.poly import TowerDomain

        dom = TowerDomain(K)
        s5 = K.sqrt_gen(5)
        c = EllipticCurve(dom, (K.zero(), K.zero(), K.zero(), s5, K.one()))
        reds = reduce_quadratic_curve(c, 5, 11, 1)
        assert len(reds) == 2  # split prime: two embeddings
        for r in reds:
            assert len(points_over_code_domain(r)) > 0
        inert = reduce_quadratic_curve(c, 5, 3, 2)  # sqrt(5) exists in F_9
        assert len(inert) >= 1
        with pytest.raises(BadReduction):
            reduce_quadratic_curve(c, 5, 5, 1)  # ramified


def _reference_counts(E, d, p):
    """#E(F_p) over the table-built reductions, or None at bad reduction."""
    try:
        return [len(points_over_code_domain(r)) for r in reduce_quadratic_curve(E, d, p, 1)]
    except BadReduction:
        return None


def _counts(ainvs, d, p):
    try:
        return quadratic_reduction_counts(ainvs, d, p)
    except BadReduction:
        return None


_QUADRATIC_FIELDS = (-15, -7, -3, -1, 2, 3, 5, 13)
_SMALL_FRACTIONS = st.builds(Fr, st.integers(-12, 12), st.sampled_from([1, 1, 1, 2, 3, 5, 7]))


class TestQuadraticReductionCounts:
    """The character-sum counts of `reference.quadratic_reduction_counts`
    against the F_p-table reductions."""

    def test_exceptional_curves_at_every_odd_prime_below_200(self):
        from mqtorsion.classify import exceptional_registry

        pairs = bad = 0
        for c in exceptional_registry():
            curve = c.curve()
            for p in range(3, 200, 2):
                if is_prime(p):
                    expect = _reference_counts(curve, c.base_d, p)
                    assert _counts(c.ainvs, c.base_d, p) == expect, (c.name, p)
                    pairs += 1
                    bad += expect is None
        assert pairs == 180 and 0 < bad < pairs

    @PROPERTY
    @given(
        d=st.sampled_from(_QUADRATIC_FIELDS),
        ainvs=st.lists(st.tuples(_SMALL_FRACTIONS, _SMALL_FRACTIONS), min_size=5, max_size=5),
        p=st.sampled_from([p for p in range(3, 60, 2) if is_prime(p)]),
    )
    def test_random_curves_over_quadratic_fields(self, d, ainvs, p):
        K = MultiQuadField([d])
        s = K.sqrt_gen(d)
        try:
            curve = EllipticCurve(TowerDomain(K), [K.from_rational(x) + K.from_rational(y) * s for x, y in ainvs])
        except CurveError:
            return  # singular over Q(sqrt d)
        assert _counts(ainvs, d, p) == _reference_counts(curve, d, p)


class TestAffineCount:
    @PROPERTY
    @given(
        b=st.tuples(*[st.integers(-10**6, 10**6)] * 3),
        p=st.sampled_from([p for p in range(3, 51, 2) if is_prime(p)]),
    )
    def test_matches_a_brute_force_count(self, b, p):
        """The count read from the shared table of squares mod p is the
        number of (x, Y) in F_p^2 on Y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""
        b2, b4, b6 = b
        brute = sum(
            1 for x in range(p) for y in range(p) if (y * y - (4 * x**3 + b2 * x * x + 2 * b4 * x + b6)) % p == 0
        )
        assert ellcurve.affine_count(b2, b4, b6, p) == brute
        assert ellcurve.affine_count(b2, b4, b6, p) == brute  # again, on the cached table


class TestTwists:
    def test_trivial_twist(self):
        c = E(M48)
        assert short_model(quadratic_twist(c, 1)) == short_model(c)

    def test_j_invariant_preserved(self):
        c = E(X15)
        for d in (-1, 2, -3, 5, -15):
            assert j_invariant(quadratic_twist(c, d)) == j_invariant(c)

    def test_twist_involution(self):
        c = E(M210)
        for d in (-1, 2, -7):
            assert short_model(quadratic_twist(quadratic_twist(c, d), d)) == short_model(c)

    def test_trace_flip(self):
        """#E(F_p) + #E^(d)(F_p) = 2p + 2 for (d/p) = -1."""
        from mqtorsion.intutil import kronecker

        for ainvs in (X11, X14, M210, M48):
            c = E(ainvs)
            for d in (-1, 2, 5, -7):
                for p in good_odd_primes(c, 14):
                    if d % p == 0 or kronecker(d, p) != -1:
                        continue
                    ct = quadratic_twist(c, d)
                    if p in good_odd_primes(ct, p + 1):
                        n1 = len(points_over_code_domain(reduce_mod_p(c, p)))
                        n2 = len(points_over_code_domain(reduce_mod_p(ct, p)))
                        assert n1 + n2 == 2 * p + 2


class TestTorsionQ:
    @pytest.mark.parametrize(
        "ainvs,expect",
        [
            (X11, [5]),
            (X14, [6]),
            (X15, [4]),
            (M210, [6]),
            (M212, [4]),
            (M39, [3]),
            (M48, [4]),
            (M66, [6]),
        ],
    )
    def test_rational_torsion(self, ainvs, expect):
        assert torsion_structure_q(E(ainvs)) == AbGroupStructure.from_summands(expect)

    def test_two_independent_paths_agree(self):
        for ainvs in (X11, X14, X15, M210, M212, M39, M48, M66):
            c = E(ainvs)
            assert torsion_structure_q(c) == torsion_over_tower(c, QQ_FIELD)

    @PROPERTY
    @given(st.integers(-300, 300), st.integers(-300, 300))
    @example(-43, 166)  # Z/7
    @example(0, 1)  # Z/6
    @example(-1, 0)  # Z/2 x Z/2
    @example(-675, 13662)  # X14, Z/6
    def test_integer_candidates_match_fraction_candidates(self, A, B):
        """The Nagell-Lutz candidates as ints, iterated over the
        integer-first `QQ`, give the points that Fraction candidates on the
        curve over `reference.FRACTIONS` give, with int coordinates."""
        if 4 * A**3 + 27 * B**2 == 0:
            return  # singular
        points = ellcurve.torsion_points_short(A, B)
        assert points == torsion_points_short_by_fractions(A, B)
        assert all(type(c) is int for P in points[1:] for c in P)


GENUS1_LABELS = sorted(label for label, m in model_registry().items() if m.genus == 1)


class TestReductionScreen:
    """The reduction screen of twist_odd_torsion_q against Nagell-Lutz, the
    slow path it replaces."""

    TWISTS = [d for d in range(-100, 101) if d and is_squarefree(d)]

    @pytest.mark.parametrize("label", GENUS1_LABELS)
    def test_screen_agrees_with_nagell_lutz(self, label):
        E = model_registry()[label].elliptic()
        A, B = short_model(E)
        hint = tuple(factorize(minimal_disc(E)))
        screened = 0
        for d in self.TWISTS:
            slow = torsion_structure_q(quadratic_twist(E, d), hint + tuple(factorize(d))).odd_part()
            assert twist_odd_torsion_q(E, d) == slow, d
            if ellcurve._screen_kills_odd(A, B, d):
                screened += 1
                assert slow.order == 1, d
        # the screen decides nearly every twist, so Nagell-Lutz seldom runs
        assert screened >= len(self.TWISTS) - 5

    def test_twist_with_odd_torsion_is_not_screened(self):
        A, B = short_model(E(X11))
        assert not ellcurve._screen_kills_odd(A, B, 1)
        assert twist_odd_torsion_q(E(X11), 1) == AbGroupStructure.cyclic(5)

    def test_traces_match_point_counts(self):
        A, B = short_model(E(X15))
        for p, ap in ellcurve._screen_traces(A, B):
            Ep = reduce_mod_p(short_curve(A, B), p)
            assert len(points_over_code_domain(Ep)) == p + 1 - ap


SIGNED_GENS = [-1] + [s * p for p in (2, 3, 5, 7, 11, 13) for s in (1, -1)]


@PROPERTY
@given(
    gens=st.lists(st.sampled_from(SIGNED_GENS), max_size=5),
    b=st.fractions(min_value=-30, max_value=30, max_denominator=6),
    r=st.fractions(min_value=0, max_value=30, max_denominator=6).filter(bool),
    data=st.data(),
)
def test_quadratic_roots_from_the_basis_match_the_tower_square_root(gens, b, r, data):
    """x^2 + b*x + c with discriminant d * r^2, d a class of K other than 1
    or one of the signed generators: the irreducible quadratics, the only
    ones that `_cubic_factors` gives."""
    K = MultiQuadField(gens)
    d = data.draw(st.sampled_from([c for c in K.signature() if c != 1] + SIGNED_GENS))
    g = ((b * b - d * r * r) / 4, b, Fr(1))
    assert ellcurve._roots_in_tower(g, splitting_quadratic_field(g), K) == roots_in_tower_by_tower_sqrt(g, K)


def _three_roots(r1, r2):
    """(A, B) of (x - r1)(x - r2)(x + r1 + r2)."""
    r3 = -r1 - r2
    return r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


def _one_root(r, c):
    """(A, B) of (x - r)(x^2 + rx + c)."""
    return c - r * r, -r * c


_CUBICS = st.one_of(
    st.tuples(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4)),
    st.builds(_three_roots, st.integers(-300, 300), st.integers(-300, 300)),
    st.builds(_one_root, st.integers(-300, 300), st.integers(-10**4, 10**4)),
)


@PROPERTY
@given(AB=_CUBICS)
@example(AB=(0, -2))  # x^3 - 2, irreducible
@example(AB=(1, 1))  # x^3 + x + 1, irreducible
@example(AB=_three_roots(1, 2))
@example(AB=_one_root(3, 5))
def test_cubic_factors_match_factor_extraction(AB):
    """The factors of x^3 + Ax + B read from its integer roots, each with
    its splitting class d, against factor extraction, on random, planted
    one-root and three-root, and irreducible squarefree cubics."""
    A, B = AB
    if 4 * A**3 + 27 * B**2 == 0:
        return  # a repeated root: not a curve
    assert ellcurve._cubic_factors.__wrapped__(A, B) == cubic_factors_by_extraction(A, B)


class TestTowerTorsion:
    @pytest.mark.parametrize(
        "ainvs,gens,expect",
        [
            (M210, (5,), [2, 6]),
            (M210, (), [6]),
            (M48, (-1, 2), [4, 4]),
            (M48, (-1,), [2, 4]),
            (X15, (-3, 5), [2, 8]),
            (X15, (-3,), [8]),
            (X15, (5,), [8]),
            (X15, (-15,), [2, 4]),
            (X15, (2,), [4]),
            (M212, (-1,), [8]),
            (M212, (3,), [8]),
            (M212, (-3,), [2, 4]),
            (M212, (-1, 3), [2, 8]),
            (X14, (-7,), [2, 6]),
            (X14, (-1, 7), [2, 6]),
            (X14, (5,), [6]),
            (X11, (2, 3), [5]),
            (M39, (-3,), [3, 3]),
            (M66, (-3,), [2, 6]),
        ],
    )
    def test_matches_known_tables(self, ainvs, gens, expect):
        K = MultiQuadField(gens) if gens else QQ_FIELD
        c = E(ainvs)
        assert torsion_over_tower(c, K) == AbGroupStructure.from_summands(expect)

    def test_halving_witness_order(self):
        """The four halves of (0, 0) on y^2 = x^3 + 4x over Q(sqrt(-1)),
        each of order 4."""
        from mqtorsion.ellcurve import _halves_over_tower, tower_short_curve

        K = MultiQuadField([-1])
        c = tower_short_curve(4, 0, K)
        halves = _halves_over_tower(c, two_torsion_roots_in_tower(4, 0, K), (K.zero(), K.zero()))
        assert len(halves) == 4
        assert all(point_order(c, P, 16) == 4 for P in halves)

    def test_a_half_that_fails_its_check_raises(self, monkeypatch):
        """`_halves_over_tower` raises, with no assert, when a half does not
        double to the point it halves."""
        from mqtorsion.ellcurve import _halves_over_tower, tower_short_curve

        K = MultiQuadField([-1])
        c = tower_short_curve(4, 0, K)
        monkeypatch.setattr(ellcurve, "_doubles_to", lambda E, Q, P: False)
        with pytest.raises(ellcurve.CrossCheckError, match="does not double to"):
            _halves_over_tower(c, two_torsion_roots_in_tower(4, 0, K), (K.zero(), K.zero()))

    def test_witnesses_verified(self):
        """The basis of the search for X1(15), over the field it grew to,
        Q(sqrt(-3), sqrt(5)): points of the orders it gives, 2 and 8,
        spanning a group of order 16."""
        from mqtorsion.ellcurve import tower_short_curve

        K, basis = two_primary_over_tower(-27, 8694)
        assert K == MultiQuadField([-3, 5]) and [n for _, n in basis] == [2, 8]
        c = tower_short_curve(-27, 8694, K)
        assert all(point_order(c, P, 64) == n for P, n in basis)
        assert len(subgroup_span([P for P, _ in basis], c.add, INF)) == 16

    def test_order_reps_match_point_order(self, monkeypatch):
        """At each step of the search, lifted into its last field, the
        candidates of `_order_reps` against the span H of the basis.  H
        starts as E[2] and doubles at each step but those that grow the
        field, and the basis spans it as a direct sum of points of the
        recorded orders; the candidates are one point of least order in
        each class of H/2H but 0, of the order given; and the points of top
        order, one per +-pair as the affine span search lists them
        (`order_reps_span`), fill exactly the classes of the candidates of
        top order.  The last step finds no half and returns its basis."""
        from mqtorsion.ellcurve import _order_reps

        steps = []

        def recording(E, basis):
            steps.append((E, list(basis)))
            return _order_reps(E, basis)

        monkeypatch.setattr(ellcurve, "_order_reps", recording)
        cases = [
            (X15, (-3, 5)),  # Z/2 x Z/8: bases of orders (2, 2), (2, 4), (2, 8)
            (M48, (-1, 2)),  # Z/4 x Z/4: (2, 2), (2, 4), (4, 4)
            (C15A1, (-1, 2, 3, 5)),  # Z/8 x Z/8: ..., (4, 4), (4, 8), (8, 8)
        ]
        for ainvs, gens in cases:
            steps.clear()
            K, final = two_primary_over_tower(*short_model(E(ainvs)))
            c = steps[-1][0]
            assert K == MultiQuadField(gens) and c.a[3].field == K
            bases = []
            for _, basis in steps:
                lifted = [((qfield.lift(K, x), qfield.lift(K, y)), n) for (x, y), n in basis]
                bases += [lifted] if lifted not in bases else []
            assert bases[-1] == final and [n for _, n in bases[0]] == [2, 2]
            spans = [subgroup_span([P for P, _ in basis], c.add, INF) for basis in bases]
            for step, (basis, span) in enumerate(zip(bases, spans)):
                top = basis[-1][1]
                assert len(span) == prod(n for _, n in basis) == 4 << step
                assert step == 0 or spans[step - 1] <= span
                assert all(point_order(c, P, 64) == n for P, n in basis)
                doubles = {c.add(P, P) for P in span}

                def coset(P):
                    return frozenset(c.add(P, D) for D in doubles)

                reps = [(P, n) for P, n, _ in _order_reps(c, basis)]
                assert len({coset(P) for P, _ in reps}) == len(reps) == len(span) // len(doubles) - 1
                for P, n in reps:
                    assert P in span and point_order(c, P, 64) == n
                    assert n == min(point_order(c, R, 64) for R in coset(P))
                top_classes = {coset(P) for P, n in reps if n == top}
                assert {coset(P) for P in order_reps_span(c, list(span), top)} == top_classes


# generators of the fields of degree <= 16 below
FIELD_GENS = [-1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 13, -15, 17]


def small_curves():
    """Nonsingular rational curves with small integral coefficients: any
    short model y^2 = x^3 + Ax + B; one with a rational 2-torsion point
    (e, 0), x^3 + Ax + B = (x - e)(x^2 + ex + c); or the Tate normal form
    y^2 + xy - by = x^3 - bx^2, whose point (0, 0) has order 4."""
    general = st.tuples(st.integers(-60, 60), st.integers(-60, 60))
    two_torsion = st.tuples(st.integers(-9, 9), st.integers(-40, 40)).map(
        lambda ec: (ec[1] - ec[0] ** 2, -ec[0] * ec[1])
    )
    short = st.one_of(general, two_torsion).filter(lambda ab: 4 * ab[0] ** 3 + 27 * ab[1] ** 2 != 0)
    four_torsion = st.integers(-40, 40).filter(bool).map(lambda b: E((1, -b, -b, 0, 0)))
    return st.one_of(short.map(lambda ab: short_curve(*ab)), four_torsion)


MATRIX_FIELDS = all_subfields((-1, 2, -2, 3, -3, 5, -7))


class TestInverseFreeTwoPrimary:
    """The 2-primary search and its halving check against the affine
    group law over the tower (`reference`)."""

    @pytest.mark.parametrize("label", GENUS1_LABELS)
    def test_matrix_fields_match_the_affine_search(self, label):
        """Over each of the 52 matrix fields K, the search descended to K
        against the affine search over K, at the cap 16 that any curve over
        Q allows; and the basis of the search a direct-sum basis of the
        group over its field: two points of the orders it gives under
        E.mul, ascending, whose product is the order of their span.  A
        curve with no rational 2-torsion point has no 2-power torsion over
        any K, and its search returns no basis, over Q."""
        A, B = short_model(model_registry()[label].elliptic())
        assert len(MATRIX_FIELDS) == 52
        for K in MATRIX_FIELDS:
            assert two_primary_by_descent(A, B, K) == two_primary_over_tower_affine(A, B, K, 16)[0]
        L, basis = two_primary_over_tower(A, B)
        if not two_torsion_roots_in_tower(A, B, QQ_FIELD):
            assert (L, basis) == (QQ_FIELD, [])
            return
        c = tower_curve_affine(A, B, L)
        for P, n in basis:
            assert curve_mul(c, n // 2, P) is not INF and curve_mul(c, n, P) is INF
        orders = [n for _, n in basis]
        assert orders == sorted(orders) and len(orders) == 2
        assert len(subgroup_span([P for P, _ in basis], c.add, INF)) == prod(orders)

    @staticmethod
    def check_points(c, points):
        """`_doubles_to` against E.mul on the given affine points of c."""
        from mqtorsion.ellcurve import _doubles_to

        for Q in points:
            double = curve_mul(c, 2, Q)
            for P in {double, c.neg(double), points[0]} - {INF}:
                assert _doubles_to(c, Q, P) == (double == P)

    @PROPERTY
    @given(st.one_of(small_curves(), st.sampled_from(GENUS1_LABELS).map(lambda l: model_registry()[l].elliptic())))
    @example(E(X15))
    @example(E(M212))
    @example(E(M48))
    def test_checks_match_affine_law_on_torsion(self, curve):
        """On E(Q(2^oo))[2^oo], spanned by the basis of the search over
        its field L, with the builtin curves, whose points of order 8 lie
        over the level fields.  A curve whose cubic is irreducible has no
        such point."""
        A, B = short_model(curve)
        L, basis = two_primary_over_tower(A, B)
        points = [P for P, _ in basis]
        c = tower_curve_affine(A, B, L)
        self.check_points(c, [P for P in subgroup_span(points, c.add, INF) if P is not INF])

    @PROPERTY
    @given(
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.lists(st.sampled_from(FIELD_GENS), max_size=4),
    )
    def test_checks_match_affine_law_on_a_rational_point(self, A, x, y, gens):
        """On the curve through the integral point (x, y): that point,
        mostly of infinite order, its double and its triple."""
        B = y * y - x**3 - A * x
        if 4 * A**3 + 27 * B**2 == 0:
            return
        K = MultiQuadField(gens)
        c = tower_curve_affine(A, B, K)
        P = (K.from_rational(x), K.from_rational(y))
        self.check_points(c, [Q for Q in (P, curve_mul(c, 2, P), curve_mul(c, 3, P)) if Q is not INF])

    def test_both_factors_of_order_eight(self):
        """15a1 over K = Q(sqrt(-1), sqrt(2), sqrt(3), sqrt(5), sqrt(7)) has
        E(K)[2^oo] = Z/8 x Z/8: its reduction at 13, of residue degree 2,
        has that 2-part, and the search reaches it, over the subfield
        Q(sqrt(-1), sqrt(2), sqrt(3), sqrt(5)), by halving the point of
        order 4 left in its basis once the first point of order 8 is found.
        A search that halves only points of the top order stops at
        Z/4 x Z/8."""
        c, K = E(C15A1), MultiQuadField([-1, 2, 3, 5, 7])
        assert group_structure(reduce_mod_p(c, 13, K.residue_degree(13)[0])).ell_part(2) == AbGroupStructure((8, 8))
        A, B = short_model(c)
        L, basis = two_primary_over_tower(A, B)
        assert L == MultiQuadField([-1, 2, 3, 5]) and [n for _, n in basis] == [8, 8]
        assert two_primary_by_descent(A, B, K) == AbGroupStructure((8, 8))
        curve = tower_curve_affine(A, B, L)
        for P, n in basis:
            assert curve_mul(curve, n // 2, P) is not INF and curve_mul(curve, n, P) is INF

    @pytest.mark.parametrize("A, B", [(0, 0), (-3, 2), (-27, 54), (-12, 16)])
    def test_singular_model_is_refused_over_the_tower(self, A, B):
        from mqtorsion.ellcurve import tower_short_curve

        assert 4 * A**3 + 27 * B**2 == 0
        with pytest.raises(CurveError):
            tower_short_curve(A, B, MultiQuadField([-1, 2]))


@lru_cache(maxsize=None)
def tower_torsion_points() -> tuple:
    """(E, P, n): affine points P of order n on curves over towers, every n
    from 2 to 16, with the multiples kP of each (of order n/k)."""
    from mqtorsion import classify
    from mqtorsion.ellcurve import _halves_over_tower, tower_short_curve

    def tate(K, b, c):
        """E(b, c): y^2 + (1 - c)xy - by = x^3 - bx^2 and its point (0, 0)."""
        curve = EllipticCurve(TowerDomain(K), [K.one() - c, -b, -b, K.zero(), K.zero()])
        return curve, (K.zero(), K.zero())

    # Kubert's Tate normal forms of orders 4 to 10 and 12, at t = 1 + sqrt(5)
    K = MultiQuadField([5])
    one, t = K.one(), K.one() + K.sqrt_gen(5)
    d10 = t * t / (t - (t - one) * (t - one))
    c10 = t * d10 - t
    m12 = (t.scale(3) - (t * t).scale(3) - one) / (t - one)
    d12 = m12 + t
    c12 = m12 / (one - t) * (d12 - one)
    forms = [
        (4, t, K.zero()),
        (5, t, t),
        (6, t + t * t, t),
        (7, t * t * t - t * t, t * t - t),
        (8, (t.scale(2) - one) * (t - one), (t.scale(2) - one) * (t - one) / t),
        (9, t * t * (t - one) * (t * t - t + one), t * t * (t - one)),
        (10, c10 * d10, c10),
        (12, c12 * d12, c12),
    ]
    base = [(*tate(K, b, c), n) for n, b, c in forms]
    # order 11 over Q(sqrt(2)): b = rc, c = s(r - 1) at (r, s) = (2 + sqrt(2), 2)
    K = MultiQuadField([2])
    c = (K.one() + K.sqrt_gen(2)).scale(2)
    base.append((*tate(K, (K.from_rational(2) + K.sqrt_gen(2)) * c, c), 11))
    # order 13 over Q(sqrt(17)): (x, y) = (-2, (3 + sqrt(17))/2) on
    # y^2 + (x^3 + x^2 + 1)y - x^2 - x = 0, r = 1 - xy, s = 1 - xy/(y + 1)
    K = MultiQuadField([17])
    x, y = K.from_rational(-2), (K.from_rational(3) + K.sqrt_gen(17)).scale(1, 2)
    r, s = K.one() - x * y, K.one() - x * y / (y + K.one())
    c = s * (r - K.one())
    base.append((*tate(K, r * c, c), 13))
    # order 16 over Q(sqrt(6), sqrt(70)): a half of the point of order 8 of
    # 210e2, whose 2-torsion is rational
    A, B = short_model(E((1, 0, 0, -1070, 7812)))
    K = MultiQuadField([6, 70])
    curve = tower_short_curve(A, B, K)
    P8 = (K.from_rational(8787), K.from_rational(816480))
    base.append((curve, _halves_over_tower(curve, two_torsion_roots_in_tower(A, B, K), P8)[0], 16))
    # the exceptional curves and their shipped points of order 14 and 15
    for c in classify.exceptional_registry():
        base.append((c.curve(), c.certificate(), c.target))
    out = []
    for curve, P, n in base:
        out += [(curve, curve_mul(curve, k, P), n // k) for k in range(1, n) if n % k == 0]
    return tuple(out)


class TestHasOrder:
    """`has_order` against the order by repeated affine addition
    (`reference.point_order`) on tower points of every order from 2 to 16."""

    def test_orders(self):
        points = tower_torsion_points()
        assert {n for _, _, n in points} == set(range(2, 17))
        for curve, P, n in points:
            assert point_order(curve, P, 20) == n, (curve, n)

    def test_has_order_matches_point_order(self):
        from mqtorsion.ellcurve import has_order

        for curve, P, n in tower_torsion_points():
            assert [m for m in range(1, 21) if has_order(curve, P, m)] == [n], (curve, n)


class TestCappedTwoPrimary:
    """The search, which takes no cap, descended from its field to K,
    against the affine reference search capped by the 2-exponent of two
    reductions, a proven bound on the exponent of E(K)[2^oo]."""

    @staticmethod
    def check(c, K):
        A, B = short_model(c)
        assert two_primary_by_descent(A, B, K) == two_primary_over_tower_affine(A, B, K, two_adic_cap(c, K))[0]

    @pytest.mark.parametrize("label", GENUS1_LABELS)
    @PROPERTY
    @given(gens=st.lists(st.sampled_from(FIELD_GENS), max_size=4))
    def test_builtin_curves(self, label, gens):
        self.check(model_registry()[label].elliptic(), MultiQuadField(gens))

    @PROPERTY
    @given(small_curves(), st.lists(st.sampled_from(FIELD_GENS), max_size=4))
    def test_random_curves(self, c, gens):
        self.check(c, MultiQuadField(gens))

    def test_cap_equal_to_the_true_exponent(self):
        c, K = E(X15), MultiQuadField([-3, 5])
        assert two_adic_cap(c, K) == 8
        assert torsion_over_tower(c, K) == AbGroupStructure((2, 8))
        assert two_primary_over_tower_affine(-27, 8694, K, 8)[0] == AbGroupStructure((2, 8))
        # the reference stops at its cap: a cap below the truth cuts the 2-part
        assert two_primary_over_tower_affine(-27, 8694, K, 4)[0] == AbGroupStructure((2, 4))
        assert two_primary_over_tower_affine(-27, 8694, K, 2)[0] == AbGroupStructure((2, 2))
        assert two_primary_over_tower_affine(-27, 8694, K, 1)[0] == AbGroupStructure.trivial()


class TestDivisionPolynomialSurface:
    def test_kill_and_primitive_wrappers(self):
        c = E(X15)
        assert len(primitive_kernel_poly(c, 2)) - 1 == 3
        assert len(primitive_kernel_poly(c, 8)) - 1 == 24

    def test_found_torsion_x_kills_kernel_poly(self):
        """x(P) of every rational point of exact order n is a root of the
        exact-order-n kernel polynomial."""
        from mqtorsion.ellcurve import short_curve, short_model, torsion_points_short

        for ainvs in (X11, X14, X15, M210, M212, M39, M48, M66):
            c = E(ainvs)
            A, B = short_model(c)
            cs = short_curve(A, B)
            for P in torsion_points_short(A, B):
                if P is INF:
                    continue
                n = point_order(cs, P, 20)
                assert peval(QQ, primitive_kernel_poly(c, n), P[0]) == 0


def long_model_scan(field: ff.FieldDesc, n: int):
    """The slow path of exhaustive_small_field_scan: every long model
    (a1, a2, a3, a4, a6) over F_q, its discriminant from the b-invariants and
    its points counted through the completed square.  Returns (first witness
    with a point of order n or None, nonsingular models scanned)."""
    dom = code_domain(field)
    t = dom.tables
    q = t.q
    add, mul, neg = t.add, t.mul, t.neg
    four, eight, nine, twenty7 = (t.from_int(k) for k in (4, 8, 9, 27))
    inv2 = t.inv[t.from_int(2)]
    sqrt_t = t.sqrt
    scanned = 0
    for a1 in range(q):
        a1a1 = mul[a1][a1]
        for a2 in range(q):
            b2 = add[a1a1][mul[four][a2]]
            for a3 in range(q):
                a3a3 = mul[a3][a3]
                a1a3 = mul[a1][a3]
                for a4 in range(q):
                    b4 = add[add[a4][a4]][a1a3]
                    for a6 in range(q):
                        b6 = add[a3a3][mul[four][a6]]
                        b8 = add[add[mul[a1a1][a6]][mul[mul[four][a2]][a6]]][
                            add[neg[mul[a1a3][a4]]][mul[a2][a3a3]]
                        ]
                        b8 = add[b8][neg[mul[a4][a4]]]
                        t1 = add[neg[mul[mul[b2][b2]][b8]]][neg[mul[eight][mul[b4][mul[b4][b4]]]]]
                        t2 = add[neg[mul[twenty7][mul[b6][b6]]]][mul[nine][mul[b2][mul[b4][b6]]]]
                        if add[t1][t2] == 0:
                            continue
                        scanned += 1
                        count = 1
                        for x in range(q):
                            x2 = mul[x][x]
                            g = add[add[mul[x2][x]][mul[a2][x2]]][add[mul[a4][x]][a6]]
                            hh = mul[add[mul[a1][x]][a3]][inv2]
                            val = add[g][mul[hh][hh]]
                            count += 1 if val == 0 else len(sqrt_t[val])
                        if count % n:
                            continue
                        c = EllipticCurve(dom, (a1, a2, a3, a4, a6))
                        st_c = structure_from_elements(points_over_code_domain(c), c.add, INF, max_rank=2)
                        if st_c.exponent % n == 0:
                            return c, scanned
    return None, scanned


class TestScan:
    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_reduced_models_match_long_models(self, p, k):
        """The same witness existence for every n in 2..20; the same count
        when no witness ends the scan early (with a witness the long scan
        counts only the long models before it in its own order)."""
        field = ff.make_field(p, k)
        q = p**k
        for n in range(2, 21):
            slow_witness, slow_scanned = long_model_scan(field, n)
            witness, scanned = exhaustive_small_field_scan(field, n)
            assert (witness is None) == (slow_witness is None), n
            if witness is None:
                assert scanned == slow_scanned, n
            else:
                assert witness.a[0] == witness.a[2] == 0 and scanned % (q * q) == 0
                assert group_structure(witness).exponent % n == 0

    def test_no_order_16_over_f9(self):
        witness, scanned = exhaustive_small_field_scan(ff.make_field(3, 2), 16)
        assert witness is None
        assert scanned > 50000

    def test_no_order_17_over_f9(self):
        witness, _ = exhaustive_small_field_scan(ff.make_field(3, 2), 17)
        assert witness is None

    def test_order_15_witness_over_f9(self):
        witness, _ = exhaustive_small_field_scan(ff.make_field(3, 2), 15)
        assert witness is not None and witness.a[0] == witness.a[2] == 0
        st = group_structure(witness)
        assert st.exponent % 15 == 0

    def test_hasse_sampled_f25_f49(self):
        rng = random.Random(17)
        for p, f in ((5, 2), (7, 2)):
            dom = code_domain(ff.make_field(p, f))
            q = p**f
            done = 0
            while done < 120:
                ainvs = tuple(rng.randrange(q) for _ in range(5))
                try:
                    c = EllipticCurve(dom, ainvs)
                except CurveError:
                    continue
                n = len(points_over_code_domain(c))
                assert (n - q - 1) ** 2 <= 4 * q
                done += 1
