"""Elliptic curves over every coefficient domain in the package.

Long Weierstrass models y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with a
complete chord-tangent group law, finite-field group structure by full
enumeration + census, global minimal models over Q (Laska-Kraus-Connell),
quadratic twists, reduction at good odd primes, point counts by one
character sum over F_p, exact rational torsion via Nagell-Lutz
(for the odd part of a twist, behind a screen by point counts mod p),
exact 2-primary torsion over multi-quadratic towers, and exhaustive scans of
all curves over a small field.

Points are None (infinity) or (x, y) pairs of domain elements.  All curve
objects are immutable; scans are embarrassingly parallel over the coefficient
space if a caller wants to partition them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import ff, qfield
from .groups import AbGroupStructure, GroupError, structure_from_elements
from .intutil import (
    factorize,
    integer_cubic_roots,
    is_prime,
    kronecker,
    rational_sqrt,
    squarefree_part,
)
from .poly import QQ, TowerDomain, code_domain


class CurveError(ValueError):
    pass


class BadReduction(CurveError):
    def __init__(self, p):
        super().__init__(f"bad reduction at {p}")
        self.p = p


INF = None


class EllipticCurve:
    """A long Weierstrass model over a coefficient domain."""

    __slots__ = ("domain", "a", "label")

    def __init__(self, domain, ainvs, label: str | None = None):
        self._set(domain, ainvs, label)
        if len(self.a) != 5:
            raise CurveError("need (a1, a2, a3, a4, a6)")
        if not self.discriminant():
            raise CurveError("singular model")

    def _set(self, domain, ainvs, label) -> None:
        for name, value in zip(self.__slots__, (domain, tuple(ainvs), label)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("immutable")

    @classmethod
    def from_ints(cls, domain, ainvs, label=None):
        return cls(domain, [domain.from_int(n) for n in ainvs], label)

    def b_invariants(self):
        d = self.domain
        a1, a2, a3, a4, a6 = self.a
        m, add, sub = d.mul, d.add, d.sub
        b2 = add(m(a1, a1), m(d.from_int(4), a2))
        b4 = add(add(a4, a4), m(a1, a3))
        b6 = add(m(a3, a3), m(d.from_int(4), a6))
        b8 = sub(
            add(add(m(m(a1, a1), a6), m(m(d.from_int(4), a2), a6)),
                sub(m(a2, m(a3, a3)), m(m(a1, a3), a4))),
            m(a4, a4),
        )
        return b2, b4, b6, b8

    def discriminant(self):
        d = self.domain
        b2, b4, b6, b8 = self.b_invariants()
        m = d.mul
        t1 = d.neg(m(m(b2, b2), b8))
        t2 = d.neg(m(d.from_int(8), m(b4, m(b4, b4))))
        t3 = d.neg(m(d.from_int(27), m(b6, b6)))
        t4 = m(d.from_int(9), m(b2, m(b4, b6)))
        return d.add(d.add(t1, t2), d.add(t3, t4))

    # -- group law --------------------------------------------------------

    def on_curve(self, P) -> bool:
        if P is INF:
            return True
        d = self.domain
        x, y = P
        a1, a2, a3, a4, a6 = self.a
        lhs = d.add(d.mul(y, y), d.add(d.mul(d.mul(a1, x), y), d.mul(a3, y)))
        x2 = d.mul(x, x)
        rhs = d.add(d.add(d.mul(x2, x), d.mul(a2, x2)), d.add(d.mul(a4, x), a6))
        return not d.sub(lhs, rhs)

    def neg(self, P):
        if P is INF:
            return INF
        d = self.domain
        x, y = P
        a1, _, a3, _, _ = self.a
        return (x, d.sub(d.neg(y), d.add(d.mul(a1, x), a3)))

    def add(self, P, Q):
        if P is INF:
            return Q
        if Q is INF:
            return P
        d = self.domain
        a1, a2, a3, a4, _ = self.a
        x1, y1 = P
        x2, y2 = Q
        if not d.sub(x1, x2):
            if not d.sub(y2, self.neg(P)[1]):
                return INF
            denom = d.add(d.add(y1, y1), d.add(d.mul(a1, x1), a3))
            num = d.add(
                d.sub(
                    d.add(d.mul(d.from_int(3), d.mul(x1, x1)),
                          d.mul(d.from_int(2), d.mul(a2, x1))),
                    d.mul(a1, y1),
                ),
                a4,
            )
            lam = d.div(num, denom)
        else:
            lam = d.div(d.sub(y2, y1), d.sub(x2, x1))
        nu = d.sub(y1, d.mul(lam, x1))
        x3 = d.sub(d.sub(d.sub(d.add(d.mul(lam, lam), d.mul(a1, lam)), a2), x1), x2)
        y3 = d.sub(d.neg(d.add(d.mul(d.add(lam, a1), x3), nu)), a3)
        return (x3, y3)

    def __repr__(self):
        return f"EllipticCurve({self.label or list(self.a)})"


# ---------------------------------------------------------------------------
# Finite fields: point enumeration and group structure
# ---------------------------------------------------------------------------


def points_over_code_domain(E: EllipticCurve) -> list:
    dom = E.domain
    t = dom.tables
    a1, a2, a3, a4, a6 = E.a
    add, mul, neg = t.add, t.mul, t.neg
    inv2 = t.inv[t.from_int(2)]
    pts = [INF]
    for x in range(t.q):
        x2 = mul[x][x]
        g = add[add[mul[x2][x]][mul[a2][x2]]][add[mul[a4][x]][a6]]
        hh = mul[add[mul[a1][x]][a3]][inv2]
        val = add[g][mul[hh][hh]]
        if val == 0:
            pts.append((x, neg[hh]))
        else:
            for ysh in t.sqrt[val]:
                pts.append((x, add[ysh][neg[hh]]))
    return pts


def group_structure(E: EllipticCurve) -> AbGroupStructure:
    """Invariant factors of E(F_q) by full enumeration + order census."""
    pts = points_over_code_domain(E)
    st = structure_from_elements(pts, E.add, INF, max_rank=2)
    q = E.domain.q
    if len(st.factors) == 2 and (q - 1) % st.factors[0] != 0:
        raise GroupError(f"Weil pairing violated: {st} over F_{q}")
    return st


# ---------------------------------------------------------------------------
# Integral models over Q: invariants, minimal models, reduction, twists
# ---------------------------------------------------------------------------


def _int_ainvs(E: EllipticCurve) -> tuple[int, ...]:
    out = []
    for c in E.a:
        f = Fraction(c)
        if f.denominator != 1:
            raise CurveError("model is not integral")
        out.append(int(f))
    return tuple(out)


def c4c6_disc(ainvs) -> tuple[int, int, int]:
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2) * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assert c4**3 - c6**2 == 1728 * disc
    return c4, c6, disc


def _valuation(n: int, p: int) -> int:
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _kraus_ok(c4: int, c6: int) -> bool:
    if c6 != 0 and _valuation(c6, 3) == 2:
        return False
    if c6 % 4 == 3:
        return True
    return (c4 == 0 or _valuation(c4, 2) >= 4) and c6 % 32 in (0, 8)


def model_from_c4c6(c4: int, c6: int, label=None) -> EllipticCurve:
    """Connell's reconstruction of an integral model from Kraus-valid (c4, c6)."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    assert (b2 * b2 - c4) % 24 == 0
    b4 = (b2 * b2 - c4) // 24
    assert (-(b2**3) + 36 * b2 * b4 - c6) % 216 == 0
    b6 = (-(b2**3) + 36 * b2 * b4 - c6) // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a6 = (b6 - a3) // 4
    a4 = (b4 - a1 * a3) // 2
    assert (b2 - a1) % 4 == 0 and (b6 - a3) % 4 == 0 and (b4 - a1 * a3) % 2 == 0
    E = EllipticCurve.from_ints(QQ, (a1, a2, a3, a4, a6), label)
    assert c4c6_disc((a1, a2, a3, a4, a6))[:2] == (c4, c6)
    return E


def minimal_model(E: EllipticCurve) -> EllipticCurve:
    """Global minimal model over Q (Laska-Kraus-Connell)."""
    c4, c6, disc = c4c6_disc(_int_ainvs(E))
    u = 1
    for p in factorize(disc):
        m = min(_valuation(c4, p) // 4, _valuation(c6, p) // 6, _valuation(disc, p) // 12)
        u *= p**m
    while u > 1 and not _kraus_ok(c4 // u**4, c6 // u**6):
        if u % 2 == 0 and not _kraus_ok(c4 // u**4, c6 // u**6):
            if _kraus2_fails(c4 // u**4, c6 // u**6):
                u //= 2
                continue
        if u % 3 == 0:
            u //= 3
            continue
        break
    assert _kraus_ok(c4 // u**4, c6 // u**6)
    return model_from_c4c6(c4 // u**4, c6 // u**6, E.label)


def _kraus2_fails(c4: int, c6: int) -> bool:
    if c6 % 4 == 3:
        return False
    return not ((c4 == 0 or _valuation(c4, 2) >= 4) and c6 % 32 in (0, 8))


@lru_cache(maxsize=256)
def _minimal_cached(ainvs: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    E = EllipticCurve.from_ints(QQ, ainvs)
    return _int_ainvs(minimal_model(E))


def minimal_disc(E: EllipticCurve) -> int:
    return c4c6_disc(_minimal_cached(_int_ainvs(E)))[2]


def reduce_mod_p(E: EllipticCurve, p: int, f: int = 1) -> EllipticCurve:
    """Reduction of a rational curve at an odd prime of good reduction,
    over the residue field F_{p^f}."""
    if p == 2:
        raise CurveError("even residue characteristic unsupported")
    amin = _minimal_cached(_int_ainvs(E))
    if c4c6_disc(amin)[2] % p == 0:
        raise BadReduction(p)
    dom = code_domain(ff.make_field(p, f))
    return EllipticCurve.from_ints(dom, amin, label=E.label)


def affine_count(b2: int, b4: int, b6: int, p: int) -> int:
    """#{(x, Y) in F_p^2 : Y^2 = 4x^3 + b2 x^2 + 2 b4 x + b6} for an odd
    prime p, one character sum over x.

    For a long model with b-invariants b2 = a1^2 + 4a2, b4 = 2a4 + a1a3 and
    b6 = a3^2 + 4a6, this is the number of affine points of E(F_p): four
    times y^2 + a1xy + a3y - (x^3 + a2x^2 + a4x + a6) is
    (2y + a1x + a3)^2 - (4x^3 + b2x^2 + 2b4x + b6), and for odd p the map
    (x, y) -> (x, 2y + a1x + a3) is a bijection.  So #E(F_p) is one more
    than this count.  For a short model y^2 = f(x), (b2, b4, b6) =
    (0, 2A, 4B) gives Y^2 = 4f(x), and Y -> 2Y shows that it has as many
    solutions as y^2 = f(x)."""
    squares = _square_counts(p)
    return sum(squares[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p))


@lru_cache(maxsize=64)
def _square_counts(p: int) -> bytes:
    """squares[v] = #{Y in F_p : Y^2 = v}, which is 0, 1 or 2, built once
    per prime p for `affine_count` and so for the twist screen
    (`_screen_traces`); one byte per residue."""
    squares = bytearray(p)
    for y in range(p):
        squares[y * y % p] += 1
    return bytes(squares)


def short_model(E: EllipticCurve) -> tuple[int, int]:
    """Integral (A, B) with E isomorphic over Q to y^2 = x^3 + Ax + B,
    normalized by removing common u^4 | A, u^6 | B."""
    c4, c6, _ = c4c6_disc(_int_ainvs(E))
    return _normalize_short(-27 * c4, -54 * c6)


def _normalize_short(A: int, B: int) -> tuple[int, int]:
    if A == 0 and B == 0:
        raise CurveError("singular")
    base = factorize(math.gcd(abs(A), abs(B)) or abs(A + B))
    for p in base:
        while A % p**4 == 0 and B % p**6 == 0:
            A //= p**4
            B //= p**6
    return A, B


def short_curve(A: int, B: int, label=None) -> EllipticCurve:
    return EllipticCurve.from_ints(QQ, (0, 0, 0, A, B), label)


def quadratic_twist(E: EllipticCurve, d: int) -> EllipticCurve:
    """The quadratic twist by squarefree d, as a normalized short model."""
    if d == 0:
        raise CurveError("twist parameter must be nonzero")
    A, B = short_model(E)
    A2, B2 = _normalize_short(A * d * d, B * d**3)
    label = f"{E.label}^({d})" if E.label else None
    return short_curve(A2, B2, label)


# ---------------------------------------------------------------------------
# Rational torsion, exact, via Nagell-Lutz
# ---------------------------------------------------------------------------


def torsion_points_short(A: int, B: int, hint: tuple[int, ...] = ()) -> tuple:
    """All rational torsion points of y^2 = x^3 + Ax + B (integral).

    Torsion points on an integral short model are integral with y = 0 or
    y^2 | 16|4A^3 + 27B^2|; each candidate is certified or rejected by
    iteration (a non-torsion candidate must leave the finite candidate set)."""
    E = short_curve(A, B)
    D = 16 * abs(4 * A**3 + 27 * B**2)
    ys = [1]
    for p, e in factorize(D, hint=hint).items():
        ys = [y * p**i for y in ys for i in range(e // 2 + 1)]
    candidates: set = set()
    for x in integer_cubic_roots(0, A, B):
        candidates.add((Fraction(x), Fraction(0)))
    for y in ys:
        for x in integer_cubic_roots(0, A, B - y * y):
            candidates.add((Fraction(x), Fraction(y)))
            candidates.add((Fraction(x), Fraction(-y)))
    limit = len(candidates) + 1
    torsion = [INF]
    for P in candidates:
        acc = P
        for _ in range(limit):
            if acc is INF:
                torsion.append(P)
                break
            if acc not in candidates:
                break
            acc = E.add(acc, P)
    return tuple(sorted(torsion, key=lambda P: (0,) if P is INF else (1, P)))


def torsion_structure_q(E: EllipticCurve, hint=()) -> AbGroupStructure:
    A, B = short_model(E)
    pts = list(torsion_points_short(A, B, tuple(hint)))
    return structure_from_elements(pts, short_curve(A, B).add, INF, max_rank=2)


# Odd primes below this carry the reduction screen of twist_odd_torsion_q.
SCREEN_PRIME_CAP = 50


@lru_cache(maxsize=64)
def _screen_traces(A: int, B: int) -> tuple[tuple[int, int], ...]:
    """(p, a_p) for y^2 = x^3 + Ax + B at each odd prime p < SCREEN_PRIME_CAP
    not dividing 4A^3 + 27B^2, with a_p = p + 1 - #E(F_p) = p - the affine
    count of `affine_count` at (b2, b4, b6) = (0, 2A, 4B)."""
    D = 4 * A**3 + 27 * B**2
    out = []
    for p in range(3, SCREEN_PRIME_CAP, 2):
        if is_prime(p) and D % p:
            out.append((p, p - affine_count(0, 2 * A, 4 * B, p)))
    return tuple(out)


def twist_odd_torsion_q(E: EllipticCurve, d: int) -> AbGroupStructure:
    """Odd part of E^d(Q)_tors, E a rational curve and d squarefree (d = 1
    gives E itself): a reduction screen first, Nagell-Lutz when it fails.

    Screen.  Let y^2 = x^3 + Ax + B be the short model of E and p an odd
    prime dividing neither d nor 4A^3 + 27B^2.  The model
    y^2 = x^3 + A d^2 x + B d^3 of E^d then has good reduction at p, and
    reduction embeds E^d(Q)_tors in E^d(F_p): the prime-to-p part as at
    every good prime, the p-part because the formal group over Z_p has no
    torsion when the ramification index e = 1 < p - 1 (Silverman, AEC
    VII.3.1 and IV.6.1).  E^d mod p is the twist by d of E mod p, so
    #E^d(F_p) = p + 1 - (d/p) a_p(E).  The odd part of #E^d(Q)_tors thus
    divides the odd part of each such count; when their gcd is 1 the odd
    torsion is trivial."""
    if _screen_kills_odd(*short_model(E), d):
        return AbGroupStructure.trivial()
    hint = tuple(factorize(minimal_disc(E))) + tuple(factorize(d))
    return torsion_structure_q(quadratic_twist(E, d), hint=hint).odd_part()


def _screen_kills_odd(A: int, B: int, d: int) -> bool:
    """True when the odd parts of the counts #E^d(F_p), over the screen
    primes p not dividing d, have gcd 1 (see twist_odd_torsion_q)."""
    g = 0
    for p, ap in _screen_traces(A, B):
        if d % p:
            n = p + 1 - kronecker(d, p) * ap
            g = math.gcd(g, n // (n & -n))
            if g == 1:
                return True
    return False


# ---------------------------------------------------------------------------
# 2-primary torsion over a multi-quadratic tower
# ---------------------------------------------------------------------------


def tower_short_curve(A: int, B: int, K) -> EllipticCurve:
    """y^2 = x^3 + Ax + B over the tower K, for integers A and B.  Its
    discriminant is -16(4A^3 + 27B^2), an integer, so the model is checked
    over Z and not again in the tower."""
    if 4 * A**3 + 27 * B**2 == 0:
        raise CurveError("singular model")
    dom = TowerDomain(K)
    E = object.__new__(EllipticCurve)
    E._set(dom, [dom.from_int(n) for n in (0, 0, 0, A, B)], None)
    return E


def _roots_in_tower(g, d: int, K) -> list:
    """Roots in K of a monic rational polynomial g of degree <= 2 (a tuple),
    d the squarefree class of its splitting field (1 for a linear g).  The
    square root of the discriminant is read from the basis of K:
    sqrt(disc) = r * sqrt(d) for the rational r = sqrt(disc / d) > 0, a
    positive multiple of the basis element whose class is d, which is also
    the root that `qfield.sqrt_in_tower` gives."""
    if len(g) == 2:
        return [K.from_rational(-g[0])]
    disc = g[1] ** 2 - 4 * g[0]
    if d == 1:
        rs = rational_sqrt(Fraction(disc))
        if rs is None:
            return []
        s = K.from_rational(rs)
    elif K.contains_sqrt(d):
        r = rational_sqrt(Fraction(disc, d))
        s = K.sqrt_gen(d).scale(r.numerator, r.denominator)
    else:
        return []
    mb = K.from_rational(-g[1])
    roots = [(mb + s).scale(1, 2), (mb - s).scale(1, 2)]
    return roots if roots[0] != roots[1] else roots[:1]


@lru_cache(maxsize=64)
def _cubic_factors(A: int, B: int) -> tuple:
    """(g, d) for each monic rational factor g of degree <= 2 of the
    squarefree cubic x^3 + Ax + B (integer tuples), d the squarefree class
    of its splitting field (1 for a linear g): the cubic factored once per
    curve, for every field K.  The linear factors x - r come first, r
    descending.

    A rational root of a monic integer cubic is an integer (rational root
    theorem), so `integer_cubic_roots` finds every one.  With no root the
    cubic is irreducible, and with three it splits.  With exactly one root
    r, x^3 + Ax + B = (x - r)(x^2 + rx + A + r^2), comparing coefficients
    with r^3 + Ar + B = 0; the cofactor has no rational root, and its
    discriminant r^2 - 4(A + r^2) = -3r^2 - 4A is not a square, so its
    class is its squarefree part."""
    roots = integer_cubic_roots(0, A, B)[::-1]
    linear = tuple(((-r, 1), 1) for r in roots)
    if len(roots) != 1:
        return linear
    r = roots[0]
    return (*linear, ((A + r * r, r, 1), squarefree_part(-3 * r * r - 4 * A)))


def two_torsion_roots_in_tower(A: int, B: int, K) -> list:
    """Roots of x^3 + Ax + B lying in K (complete: an irreducible cubic has
    no root in any multi-quadratic field)."""
    return [r for g, d in _cubic_factors(A, B) for r in _roots_in_tower(g, d, K)]


def _doubles_to(E: EllipticCurve, Q, P) -> bool:
    """True iff Q = (x, y) lies on E: y^2 = x^3 + Ax + B over a tower and
    2Q = P = (x0, y0), both affine, checked without an inverse.

    For y != 0 the tangent at Q has slope l = (3x^2 + A)/(2y), and
    2Q = (l^2 - 2x, l(x - x(2Q)) - y), where l^2 - 2x equals
    (x^4 - 2Ax^2 - 8Bx + A^2)/(4y^2) on E.  So 2Q = P iff
    4y^2 x0 = x^4 - 2Ax^2 - 8Bx + A^2 and 2y y0 = (3x^2 + A)(x - x0) - 2y^2.
    For y = 0, 2Q = O."""
    A, B = E.a[3], E.a[4]
    (x, y), (x0, y0) = Q, P
    x2, y2 = x * x, y * y
    return (
        bool(y)
        and y2 == x2 * x + A * x + B
        and y2.scale(4) * x0 == x2 * x2 - (A * x2).scale(2) - (B * x).scale(8) + A * A
        and (y * y0).scale(2) == (x2.scale(3) + A) * (x - x0) - y2.scale(2)
    )


# Points of y^2 = x^3 + Ax + B over a tower in Jacobian coordinates
# (X : Y : Z) = (X/Z^2, Y/Z^3), Z = 0 for O, added without an inverse
# (Cohen, Frey et al., Handbook of Elliptic and Hyperelliptic Curve
# Cryptography, 13.2.1).


def _jacobian_double(A, R):
    """2R for R = (X : Y : Z): (X' : M(S - X') - 8Y^4 : 2YZ) with
    M = 3X^2 + AZ^4, S = 4XY^2 and X' = M^2 - 2S.  The result has Z = 0
    exactly when R = O or Y = 0, that is when 2R = O."""
    X, Y, Z = R
    XX, YY, ZZ = X * X, Y * Y, Z * Z
    S = (X * YY).scale(4)
    M = XX.scale(3) + A * (ZZ * ZZ)
    X = M * M - S.scale(2)
    return X, M * (S - X) - (YY * YY).scale(8), (Y * Z).scale(2)


def _jacobian_add_affine(A, R, P):
    """R + P for R = (X : Y : Z) and an affine P = (x, y), by the mixed
    addition.  With U = xZ^2, H = U - X and r = yZ^3 - Y, the chord through
    (X/Z^2, Y/Z^3) and P has slope r/(ZH), and the sum is
    (r^2 - H^3 - 2XH^2 : r(XH^2 - X3) - YH^3 : ZH).  When H = 0 the two
    points have the same x: R = P if r = 0 (double it), else R = -P and
    the sum is O."""
    X, Y, Z = R
    x, y = P
    if not Z:
        return x, y, x.field.one()
    ZZ = Z * Z
    H = x * ZZ - X
    r = y * (ZZ * Z) - Y
    if not H:
        return _jacobian_double(A, R) if not r else (x.field.one(), x.field.one(), x.field.zero())
    HH = H * H
    HHH = HH * H
    V = X * HH
    X3 = r * r - HHH - V.scale(2)
    return X3, r * (V - X3) - Y * HHH, Z * H


def _jacobian_multiple(A, n: int, P):
    """n*P for n >= 1 and an affine P, by doubling and adding P from the
    top bit of n down."""
    x, y = P
    R = (x, y, x.field.one())
    for bit in bin(n)[3:]:
        R = _jacobian_double(A, R)
        if bit == "1":
            R = _jacobian_add_affine(A, R, P)
    return R


def _short_image(E: EllipticCurve, P):
    """(A, Q): E, a long model over a tower, is isomorphic over its field
    to y^2 = x^3 + Ax + B with A = -27 u^4 c4 and B = -54 u^6 c6, by
    (x, y) -> (u^2 (36x + 3b2), 108 u^3 (2y + a1 x + a3)) (Silverman,
    AEC III.1), and Q is the image of the affine point P.  u, the lcm of
    the denominators of the a_i, makes A integral, so that the denominators
    of the Jacobian multiples of Q come from Q alone: over Q(sqrt(-15))
    this makes 15Q three times faster."""
    b2, b4, _, _ = E.b_invariants()
    a1, _, a3, _, _ = E.a
    x, y = P
    u = math.lcm(*(a.den for a in E.a))
    A = (b2 * b2 - b4.scale(24)).scale(-27 * u**4)
    return A, ((x.scale(36) + b2.scale(3)).scale(u * u), (y.scale(2) + a1 * x + a3).scale(108 * u**3))


def has_order(E: EllipticCurve, P, n: int) -> bool:
    """True iff the affine point P of E, a long model over a tower, has
    exact order n >= 1, with no tower inverse.

    Proof.  ord(P) divides n iff nP = O.  A proper divisor m of n divides
    n/l for some prime l | n (take l | n/m).  So ord(P) = n iff nP = O and
    (n/l)P != O for each prime l | n; for n = 15 these are 15P = O,
    5P != O and 3P != O.  nP = l((n/l)P), so nP is read from the multiple
    already taken for the first l, by a ladder of l alone: one ladder per
    prime l | n.  The multiples are taken on the short model
    (`_short_image`) in Jacobian coordinates, where a point is O iff Z = 0.
    A point (X : Y : Z) with Z != 0 is the affine (X/Z^2, Y/Z^3), and
    (x, y) -> (Z^2 x, Z^3 y) maps y^2 = x^3 + Ax + B isomorphically onto
    y^2 = x^3 + A Z^4 x + B Z^6, taking it to the affine (X, Y); the ladder
    of l runs there, with no inverse."""
    if n == 1:
        return False  # an affine point is not O
    A, Q = _short_image(E, P)
    ells = list(factorize(n))
    multiples = [_jacobian_multiple(A, n // ell, Q) for ell in ells]
    if not all(Z for _, _, Z in multiples):
        return False
    X, Y, Z = multiples[0]
    ZZ = Z * Z
    return not _jacobian_multiple(A * ZZ * ZZ, ells[0], (X, Y))[2]


def _two_power_order(E: EllipticCurve, P) -> int:
    """The order of P, an affine point of 2-power order on
    E: y^2 = x^3 + Ax + B over a tower, by doubling in Jacobian coordinates
    without an inverse.  An affine point (Z != 0) with Y = 0 has order 2,
    and one with Y != 0 doubles to an affine point (2YZ != 0).  So
    2^j P = O exactly when the (j-1)-th double has Y = 0.  CurveError when
    the order exceeds 64."""
    A = E.a[3]
    R = (*P, E.domain.one)
    n = 2
    while R[1]:
        if n == 64:
            raise CurveError("point order exceeds bound 64")
        R = _jacobian_double(A, R)
        n *= 2
    return n


def halving_witness(E: EllipticCurve, t1):
    """A point P over K with 2P = (t1, 0) on E: y^2 = x^3 + Ax + B over the
    tower K (`tower_short_curve`), or None.

    With the cofactor q(x) = x^2 + t1 x + (t1^2 + A), the halves of (t1, 0)
    have x = t1 +- m where m^2 = q(t1); P exists in E(K) iff m lies in K and
    the cubic value at one such x is a square in K.  Both directions exact.
    """
    A, B = E.a[3], E.a[4]
    q_t1 = (t1 * t1).scale(3) + A  # 3 t1^2 + A
    m = qfield.sqrt_in_tower(q_t1)
    if m is None:
        return None
    for mm in (m, -m):
        x = t1 + mm
        val = x * x * x + A * x + B
        y = qfield.sqrt_in_tower(val)
        if y is not None:
            P = (x, y)
            assert _doubles_to(E, P, (t1, E.domain.zero))
            return P
    return None


def _halves_over_tower(E: EllipticCurve, e_roots: list, P) -> list:
    """The four points Q over L with 2Q = P on E: y^2 = x^3 + Ax + B over
    the tower L, given the three roots e_i of the cubic in L; [] when P has
    no half over L.

    Halving (Bekker and Zarhin, The divisibility by 2 of rational points on
    elliptic curves, 2017).  P = (x0, y0) has a half over L iff each
    x0 - e_i is a square in L: if 2Q = P with Q = (x, y), then x0 - e_i is
    the square of ((x - e_i)^2 - (e_i - e_j)(e_i - e_k))/(2y).  Take s_i
    with s_i^2 = x0 - e_i.  Since (s1 s2 s3)^2 = (x0 - e1)(x0 - e2)(x0 - e3)
    = y0^2, flipping s1 if need be gives s1 s2 s3 = -y0.  Then for each of
    the four sign triples t = (+-s1, +-s2, +-s3) with t1 t2 t3 = -y0,
        Q = (x0 + t1 t2 + t2 t3 + t3 t1, -(t1 + t2)(t2 + t3)(t3 + t1))
    is a half of P.  With s = t1 + t2 + t3 and q = t1 t2 + t2 t3 + t3 t1,
    (t1 + t2)(t2 + t3)(t3 + t1) = s q - t1 t2 t3, so Q = (x0 + q, -y0 - s q).
    When y0 = 0, P = (e_j, 0) and s_j = 0: every sign triple meets the
    condition, and the four triples are the four sign choices of the other
    two roots.  Each Q is checked by `_doubles_to`, and the four are
    checked to be distinct.  The halves of P form one coset of E[2], which
    lies in E(L), so there are four of them and these are all."""
    x0, y0 = P
    ss = []
    for e in e_roots:
        s = qfield.sqrt_in_tower(x0 - e)
        if s is None:
            return []
        ss.append(s)
    s1, s2, s3 = ss
    s12, s23, s31 = s1 * s2, s2 * s3, s3 * s1
    if s12 * s3 != -y0:
        s1, s12, s31 = -s1, -s12, -s31
    halves = []
    # (s, q) of the triples (s1, s2, s3), (s1, -s2, -s3), (-s1, s2, -s3), (-s1, -s2, s3)
    for s, q in (
        (s1 + s2 + s3, s12 + s23 + s31),
        (s1 - s2 - s3, s23 - s12 - s31),
        (s2 - s1 - s3, s31 - s12 - s23),
        (s3 - s1 - s2, s12 - s23 - s31),
    ):
        Q = (x0 + q, -y0 - s * q)
        assert _doubles_to(E, Q, P)
        halves.append(Q)
    assert all(Q != R for Q, R in itertools.combinations(halves, 2))
    return halves


def _two_torsion_field(A: int, B: int, K):
    """(L, e_roots): the compositum of K with the 2-torsion field, and the
    three cubic roots as elements of L (requires the cubic to have at least
    one rational root, which holds whenever E has a point of order 4 over a
    multi-quadratic field)."""
    factors = _cubic_factors(A, B)
    L = qfield.MultiQuadField([*K.gens, *(d for _, d in factors if d != 1 and not K.contains_sqrt(d))])
    e_roots = [r for g, d in factors for r in _roots_in_tower(g, d, L)]
    if len(e_roots) != 3:
        raise CurveError("2-torsion field is not multi-quadratic")
    return L, e_roots


def _k_rational(galois, v) -> bool:
    return all(v.conjugate(signs) == v for signs in galois)


def two_primary_over_tower(A: int, B: int, K, cap: int):
    """(structure, witnesses) for the 2-primary torsion of
    y^2 = x^3 + Ax + B over the multi-quadratic field K, given a proven
    bound `cap` on the exponent of E(K)[2^oo].  The witnesses are the
    points the search found, each with its order.

    2-torsion from the cubic roots in K (complete); order 4 by the halving
    iff-criterion.  Then H, the span of the witnesses, grows by a half over
    K of a point of some class of H/2H but 0 (`_order_reps`), found over
    the 2-torsion field and descended to K by Galois fixedness, until no
    class has a half of order at most `cap`.

    Exactness.  Let G be the points of E(K) of order dividing cap, a group
    that holds H.  While H != G, take R in G outside H; some Q = 2^i R lies
    outside H with 2Q in H.  2Q is not in 2H: else 2Q = 2R' with R' in H,
    and Q - R' lies in E(K)[2], which H holds, so Q would lie in H.  So the
    class of 2Q is not 0 and has a half over K of order at most cap, and
    then so does the point of least order in that class, which
    `_order_reps` yields.  The search stops exactly at H = G, and
    G = E(K)[2^oo] since cap bounds its exponent.

    H starts from a basis.  With one halvable root t_i and P4 its half,
    H = <T_j> + <P4> for another root T_j = (t_j, 0): T_i = 2 P4, the third
    root is T_i + T_j, and <P4> meets E[2] in T_i alone.  With three, and
    P4, P4' the halves of T_1, T_2, H = <P4> + <P4'>: a half of T_3 differs
    from P4 + P4' by a point of E[2] = <T_1, T_2>, and <P4>, <P4'> meet
    E[2] in T_1 and T_2.  With one root, H = <P4>; with none, H = E(K)[2].

    The cap.  At a prime v of K above an odd prime p of good reduction,
    reduction is injective on the torsion of order prime to p: its kernel,
    the points of the formal group over the maximal ideal of K_v, is pro-p
    (Silverman, AEC VII.3.1).  So E(K)[2^oo] embeds in E~(F_{p^f}), f the
    residue degree, and its exponent is at most the 2-exponent of every such
    reduction and of their meet, the reduction bound of `mwtors`.  A bound
    over K also holds over each subfield of K."""
    roots = two_torsion_roots_in_tower(A, B, K) if cap >= 2 else []
    if not roots:
        return AbGroupStructure.trivial(), []
    if len(roots) not in (1, 3):
        raise CurveError("impossible 2-torsion root count")  # pragma: no cover
    zero = K.zero()
    witnesses = [((r, zero), 2) for r in roots]
    halves = []
    if cap >= 4:
        EK = tower_short_curve(A, B, K)
        halves = [halving_witness(EK, t1) for t1 in roots]
    halvable = [P4 for P4 in halves if P4 is not None]
    if len(roots) == 3 and len(halvable) not in (0, 1, 3):
        raise CurveError("halvable 2-torsion is not a subgroup")  # pragma: no cover
    witnesses.extend((P4, 4) for P4 in halvable)
    # points with no half over K: the roots that have none, then each failed class point
    no_half = [(t, zero) for t, P4 in zip(roots, halves) if P4 is None]
    if halvable:
        basis = [(T, 2) for T in no_half[:1]] + [(P4, 4) for P4 in halvable[:2]]
    else:
        basis = witnesses[:2]
    if halvable and cap >= 8:
        L, e_roots = _two_torsion_field(A, B, K)
        galois = L.galois_over(K)
        EL = tower_short_curve(A, B, L)
        while True:
            for c, n, kept in _order_reps(EK, basis):
                if 2 * n > cap or c in no_half:
                    continue
                found = None
                for Q in _halves_over_tower(EL, e_roots, (L.lift(c[0]), L.lift(c[1]))):
                    if _k_rational(galois, Q[0]) and _k_rational(galois, Q[1]):
                        found = (K.project(Q[0]), K.project(Q[1]))
                        break
                if found:
                    break
                no_half.append(c)
            else:
                break
            assert EK.on_curve(found) and _two_power_order(EK, found) == 2 * n
            witnesses.append((found, 2 * n))
            basis = sorted(kept + [(found, 2 * n)], key=lambda pair: pair[1])
    return AbGroupStructure.from_prime_exponents({2: [n.bit_length() - 1 for _, n in basis]}), witnesses


def _order_reps(E: EllipticCurve, basis):
    """Yield (c, n, kept) for each class of H/2H but 0: a point c of least
    order n in the class, and the basis pairs that, with any Q such that
    2Q = c, give a basis of H + <Q>.  H = <g1> + <g2> is a direct sum,
    given by `basis`, its (point, order) pairs with orders o1 <= o2; a
    cyclic H has g2 alone.  The classes of order o2 come first.

    Proof.  Halving over K is a property of the class mod 2H: if
    c' = c + 2R with R in H, then c = 2Q iff c' = 2(Q + R); so is -c,
    which is c - 2c.  The classes are e1 g1 + e2 g2 + 2H, e_i in {0, 1}.
    A point a1 g1 + a2 g2 of a class with e2 = 1 has a2 odd, so order o2;
    one of g1 + 2H has a1 odd, so order at least o1.  So g2 and g1 + g2
    have order o2, g1 has o1, each the least in its class, read off its
    coordinates.  If 2Q = c = e g_k + g_m, with (g_k, o_k) the kept pair,
    then g_m = 2Q - e g_k lies in <g_k, Q>, so <g_k, Q> = H + <Q>.  Q lies
    outside H, as c is not in 2H, while 2Q lies in it, so
    |H + <Q>| = 2|H| = o_k * 2n = o_k ord(Q): the sum <g_k> + <Q> is
    direct."""
    *low, (g2, o2) = basis
    yield g2, o2, low
    if low:
        ((g1, o1),) = low
        yield E.add(g1, g2), o2, low
        yield g1, o1, [(g2, o2)]


# ---------------------------------------------------------------------------
# Exhaustive small-field scans
# ---------------------------------------------------------------------------


def exhaustive_small_field_scan(field: ff.FieldDesc, n: int):
    """Scan all nonsingular long Weierstrass curves over F_q for one with a
    point of order n.  Returns (witness curve or None, curves scanned); a
    witness is a reduced model y^2 = x^3 + a2 x^2 + a4 x + a6.

    Only the reduced models are visited.  F_q has odd characteristic
    (`ff.make_field`), so y -> y + (a1 x + a3)/2 maps the long model
    (a1, a2, a3, a4, a6) isomorphically onto the reduced model with
    a2' = a2 + a1^2/4, a4' = a4 + a1 a3/2 and a6' = a6 + a3^2/4, keeping the
    b-invariants and so the discriminant.  For fixed (a1, a3) the map
    (a2, a4, a6) -> (a2', a4', a6') is a translation of F_q^3, so each
    reduced model has exactly q^2 long preimages, one per (a1, a3), each
    isomorphic to it.  A long model with a point of order n thus exists iff
    a reduced one does, and each nonsingular reduced model visited counts
    q^2 curves scanned."""
    dom = code_domain(field)
    q = dom.tables.q
    scanned = 0
    for a2, a4, a6 in itertools.product(range(q), repeat=3):
        try:
            E = EllipticCurve(dom, (0, a2, 0, a4, a6))
        except CurveError:
            continue
        scanned += q * q
        pts = points_over_code_domain(E)
        if len(pts) % n:
            continue
        if structure_from_elements(pts, E.add, INF, max_rank=2).exponent % n == 0:
            return E, scanned
    return None, scanned
