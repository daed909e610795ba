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
from functools import lru_cache

from . import ff, qfield
from .groups import AbGroupStructure, CrossCheckError, GroupError, scalar_mul, structure_from_elements
from .intutil import (
    factorize,
    integer_cubic_roots,
    is_prime,
    kronecker,
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

    def discriminant(self):
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
        t1 = d.neg(m(m(b2, b2), b8))
        t2 = d.neg(m(d.from_int(8), m(b4, m(b4, b4))))
        t3 = d.neg(m(d.from_int(27), m(b6, b6)))
        t4 = m(d.from_int(9), m(b2, m(b4, b6)))
        return add(add(t1, t2), add(t3, t4))

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
    if any(c.denominator != 1 for c in E.a):
        raise CurveError("model is not integral")
    return tuple(c.numerator for c in E.a)


def c4c6_disc(ainvs) -> tuple[int, int, int]:
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2) * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if c4**3 - c6**2 != 1728 * disc:
        raise CurveError(f"c4^3 - c6^2 != 1728 disc for {ainvs}: the invariants need exact integers")
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
    """Connell's reconstruction of an integral model from Kraus-valid (c4, c6);
    CurveError when (c4, c6) is not Kraus-valid, so that a step of the
    reconstruction is not exact."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    if (b2 * b2 - c4) % 24:
        raise CurveError(f"(c4, c6) = ({c4}, {c6}) gives no integral b4")
    b4 = (b2 * b2 - c4) // 24
    if (-(b2**3) + 36 * b2 * b4 - c6) % 216:
        raise CurveError(f"(c4, c6) = ({c4}, {c6}) gives no integral b6")
    b6 = (-(b2**3) + 36 * b2 * b4 - c6) // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a6 = (b6 - a3) // 4
    a4 = (b4 - a1 * a3) // 2
    if (b2 - a1) % 4 or (b6 - a3) % 4 or (b4 - a1 * a3) % 2:
        raise CurveError(f"(c4, c6) = ({c4}, {c6}) gives no integral a-invariants")
    E = EllipticCurve.from_ints(QQ, (a1, a2, a3, a4, a6), label)
    if c4c6_disc((a1, a2, a3, a4, a6))[:2] != (c4, c6):
        raise CurveError(f"the model rebuilt from (c4, c6) = ({c4}, {c6}) has other invariants")
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
    if not _kraus_ok(c4 // u**4, c6 // u**6):
        raise CurveError(f"no Kraus-valid scaling of (c4, c6) = ({c4}, {c6}) for {E}")
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
        candidates.add((x, 0))
    for y in ys:
        for x in integer_cubic_roots(0, A, B - y * y):
            candidates.add((x, y))
            candidates.add((x, -y))
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


# Odd primes below this carry the reduction screens of both genera.
SCREEN_PRIME_CAP = 50


def screen_primes(good, limit: float = math.inf) -> tuple[int, ...]:
    """The screen primes of a curve whose odd primes of good reduction are
    the p with good(p): each such p below SCREEN_PRIME_CAP or, when there
    is none, the least one, so that a screen is empty only when no good odd
    prime lies up to `limit`."""
    out, p = [], 3
    while (p < SCREEN_PRIME_CAP or not out) and p <= limit:
        if is_prime(p) and good(p):
            out.append(p)
        p += 2
    return tuple(out)


@lru_cache(maxsize=64)
def _screen_traces(A: int, B: int) -> tuple[tuple[int, int], ...]:
    """(p, a_p) for y^2 = x^3 + Ax + B at each of its screen primes p
    (`screen_primes`: odd, not dividing 4A^3 + 27B^2), with
    a_p = p + 1 - #E(F_p) = p - the affine count of `affine_count` at
    (b2, b4, b6) = (0, 2A, 4B)."""
    D = 4 * A**3 + 27 * B**2
    return tuple((p, p - affine_count(0, 2 * A, 4 * B, p)) for p in screen_primes(lambda p: D % p))


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
    """Roots in K of a monic rational polynomial g (a tuple), linear or an
    irreducible quadratic, d the squarefree class of its splitting field
    (1 for a linear g).  The callers read g from `_cubic_factors`, which
    gives a quadratic only when it is irreducible, so its class d is not 1
    and its two roots differ.  The square root of the discriminant is read
    from the basis of K: sqrt(disc) = r * sqrt(d) for r = sqrt(disc / d) > 0,
    a positive multiple of the basis element whose class is d, which is
    also the root that `qfield.sqrt_in_tower` gives.  r^2 = disc / d is a
    rational square, so r is the quotient of the integer square roots of
    its numerator and denominator; for an integer g, as `_cubic_factors`
    gives, r^2 is an integer."""
    if len(g) == 2:
        return [K.from_rational(-g[0])]
    if not K.contains_sqrt(d):
        return []
    r2 = QQ.div(g[1] ** 2 - 4 * g[0], d)
    s = K.sqrt_gen(d).scale(math.isqrt(r2.numerator), math.isqrt(r2.denominator))
    mb = K.from_rational(-g[1])
    return [(mb + s).scale(1, 2), (mb - s).scale(1, 2)]


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


def has_order(E: EllipticCurve, P, n: int) -> bool:
    """True iff the affine point P of E, a long model over a field domain,
    has exact order n >= 1.

    Proof.  ord(P) divides n iff nP = O.  A proper divisor m of n divides
    n/l for some prime l | n (take l | n/m).  So ord(P) = n iff nP = O and
    (n/l)P != O for each prime l | n; for n = 15 these are 15P = O,
    5P != O and 3P != O.  nP = l((n/l)P), so nP is read from the multiple
    already taken for the first l, by a ladder of l alone: one ladder per
    prime l | n, each `groups.scalar_mul` on the affine law E.add."""
    if n == 1:
        return False  # an affine point is not O
    double = lambda Q: E.add(Q, Q)
    ells = list(factorize(n))
    multiples = [scalar_mul(n // ell, P, E.add, double, INF) for ell in ells]
    if any(R is INF for R in multiples):
        return False
    return scalar_mul(ells[0], multiples[0], E.add, double, INF) is INF


def _halves_over_tower(E: EllipticCurve, e_roots: list, P) -> list:
    """The four points Q over L with 2Q = P on E: y^2 = x^3 + Ax + B over
    the tower L, given the three roots e_i of the cubic in L; P must have
    them, and CrossCheckError is raised when it has no half over L.

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
    ss = [qfield.sqrt_in_tower(x0 - e) for e in e_roots]
    if None in ss:
        raise CrossCheckError(f"{P} has no half over {x0.field}")
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
        if not _doubles_to(E, Q, P):
            raise CrossCheckError(f"the half {Q} does not double to {P}")
        halves.append(Q)
    if len(set(halves)) != 4:
        raise CrossCheckError(f"the four halves of {P} are not distinct")
    return halves


def two_primary_over_tower(A: int, B: int) -> tuple:
    """(F, basis) for E: y^2 = x^3 + Ax + B: a direct-sum basis of
    G = E(Q(2^oo))[2^oo], the points of 2-power order over all
    multi-quadratic fields, as (point, order) pairs, orders ascending, and
    a multi-quadratic field F over which they lie; (Q, []) when G = 0.

    A root of an irreducible cubic has degree 3, not a power of 2, so G
    then has no point of order 2.  Otherwise F starts as Q(E[2])
    (`_cubic_factors`) and H as E[2] = <(e1, 0)> + <(e2, 0)>.  A point
    c = (x0, y0) has a half over a field L containing F iff each x0 - e_i
    is a square in L (`_halves_over_tower`).  A multi-quadratic L is
    F(sqrt q : q rational), and by Kummer theory the elements of F that are
    squares in L lie in classes q F^2.  So c has a half over some
    multi-quadratic field iff each x0 - e_i lies in a class c_i F^2
    (`qfield.rational_class`), and then over F(sqrt c_i).  For the point c
    of least order n in a class of H/2H but 0 (`_order_reps`) that has one,
    H grows by the half when each sqrt c_i lies in F; else F grows by them,
    and H, lifted into the larger F (`qfield.lift`), is the same group.

    The classes.  F(sqrt c_i) = F(sqrt(x0 - e_i)) lies in F(Q) for a half
    Q of c over the algebraic closure, as sqrt(x0 - e_i) is a rational
    function of Q, so in Q(E[2^oo]), as F does by induction.  Q(E[2^oo])
    is unramified outside 2N (Neron-Ogg-Shafarevich), N the conductor, and
    so is Q(sqrt c_i), whose odd primes then divide N: c_i, like the
    classes of F, has its primes among those of 6(4A^3 + 27B^2), which
    `rational_class` is given.

    Exactness.  While H != G, take R in G outside H; some Q = 2^i R lies
    outside H with 2Q in H.  2Q is not in 2H: else 2Q = 2R' with R' in H,
    and Q - R' lies in E[2], which H holds, so Q would lie in H.  So the
    class of 2Q is not 0 and has a half over a multi-quadratic field, and
    then so does the point of least order in that class (`_order_reps`).
    The search stops only at H = G.  A found half Q has order 2n with no
    order taken: `_halves_over_tower` checks 2Q = c (`_doubles_to`, whose
    failure raises), and c has order n >= 2, a power of 2, so 2nQ = nc = O
    and nQ = (n/2)c != O.

    Termination, with no cap on the exponent.  Over one F each step
    doubles |H| inside G, which is finite: G lies in E(M),
    M = Q(sqrt(-1), sqrt(2), sqrt(p) : odd p | N), as each Q(P), P in G,
    is multi-quadratic and unramified outside 2N; and at a prime of M above
    an odd prime p of good reduction, reduction is injective on the
    torsion of order prime to p, its kernel being pro-p (Silverman, AEC
    VII.3.1).  F grows inside Q(E[2]) Q(G), as each sqrt c_i lies in F(Q)
    for a half Q in G: a finite field, whatever the primes of N."""
    factors = _cubic_factors(A, B)
    if not factors:
        return qfield.QQ_FIELD, []
    F = qfield.MultiQuadField([d for _, d in factors if d != 1])
    E = tower_short_curve(A, B, F)
    roots = [r for g, d in factors for r in _roots_in_tower(g, d, F)]
    basis = [((e, F.zero()), 2) for e in roots[:2]]
    primes = tuple(factorize(6 * (4 * A**3 + 27 * B**2)))
    while True:
        for c, n, kept in _order_reps(E, basis):
            classes = [qfield.rational_class(c[0] - e, primes) for e in roots]
            if None not in classes:
                break
        else:
            return F, basis
        grow = [d for d in classes if not F.contains_sqrt(d)]
        if grow:
            F = qfield.MultiQuadField([*F.gens, *grow])
            E = tower_short_curve(A, B, F)
            roots = [r for g, d in factors for r in _roots_in_tower(g, d, F)]
            basis = [((qfield.lift(F, x), qfield.lift(F, y)), n) for (x, y), n in basis]
        else:
            basis = sorted([*kept, (_halves_over_tower(E, roots, c)[0], 2 * n)], key=lambda pair: pair[1])


def _order_reps(E: EllipticCurve, basis):
    """Yield (c, n, kept) for each class of H/2H but 0: a point c of least
    order n in the class, and the basis pairs that, with any Q such that
    2Q = c, give a basis of H + <Q>.  H = <g1> + <g2> is a direct sum,
    given by `basis`, its two (point, order) pairs with orders o1 <= o2.
    The classes of order o2 come first.

    Proof.  Halving over M is a property of the class mod 2H: if
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
    (g1, o1), (g2, o2) = basis
    yield g2, o2, [(g1, o1)]
    yield E.add(g1, g2), o2, [(g1, o1)]
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
    q^2 curves scanned.

    The discriminant of a reduced model is 16 times that of its cubic
    x^3 + a2 x^2 + a4 x + a6, which is k0 + k1 a6 - 27 a6^2 with
    k0 = a2^2 a4^2 - 4 a4^3 and k1 = 18 a2 a4 - 4 a2^3, and 16 is a unit.
    Its number of points is 1 + the sum over x of the number of square
    roots of g(x) + a6, g(x) = x^3 + a2 x^2 + a4 x, read from one row of g
    per (a2, a4).  A curve is built only when that count is divisible by n,
    as the order of any point divides it."""
    dom = code_domain(field)
    t = dom.tables
    q = t.q
    add, mul, neg = t.add, t.mul, t.neg
    four, eighteen, twenty7 = (t.from_int(k) for k in (4, 18, 27))
    roots = [len(r) for r in t.sqrt]
    scanned = 0
    for a2, a4 in itertools.product(range(q), repeat=2):
        a2a4 = mul[a2][a4]
        k0 = add[mul[a2a4][a2a4]][neg[mul[four][mul[a4][mul[a4][a4]]]]]
        k1 = add[mul[eighteen][a2a4]][neg[mul[four][mul[a2][mul[a2][a2]]]]]
        row = [mul[x][add[mul[x][add[x][a2]]][a4]] for x in range(q)]
        for a6 in range(q):
            if add[add[k0][mul[k1][a6]]][neg[mul[twenty7][mul[a6][a6]]]] == 0:
                continue
            scanned += q * q
            shifted = add[a6]
            if (1 + sum(roots[shifted[g]] for g in row)) % n:
                continue
            E = EllipticCurve(dom, (0, a2, 0, a4, a6))
            if structure_from_elements(points_over_code_domain(E), E.add, INF, max_rank=2).exponent % n == 0:
                return E, scanned
    return None, scanned
