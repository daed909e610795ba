"""Genus-2 hyperelliptic Jacobians: Mumford/Cantor arithmetic for degree-5
models, balanced degree-6 split models and degree-6 models inert at
infinity (a non-square leading coefficient, over F_q or Q: the inert
twists of the monic sextics over F_p, and the quadratic twists
y^2 = d*F(x) over Q), a zeta-function counting oracle, the enumeration of
every divisor class over a small field, the symmetric square with its P^1
of x-fibers, and Galois analysis of 2-torsion through Weierstrass points,
read from the rational factors of degree <= 3 of the integer polynomial F.

The group law (`jac_add`) is written once, over the polynomial kernel kit
(`poly.kernels`) that each `HyperCurve` binds to its domain: the same
kernels over F_q, over Q and over multi-quadratic towers, each running on
its domain's row operation `axpy`.  A model with integer coefficients is a
curve over any of them by `HyperCurve.from_ints`.  Multiples and orders are
taken with `groups.scalar_mul` and `groups.subgroup_span` on top of it.

Divisor classes are triples (u, v, n): u monic of degree <= 2, v of lower
degree with v^2 = F mod u, and n the number of copies of the +infinity place
in the balanced representation of a degree-6 split model (n = 0 throughout
for the models with one place at infinity: a quintic, whose infinite point
is Weierstrass, and an inert sextic).  Reduced triples are unique in their
class, so tuple equality is class equality.  The class [P + Q - canonical]
of two points is built in one place, `pair_class`, over any field domain:
the rational-point classes over Q, the pair stream over F_q and the
symmetric square all read it.

The census of a reduction (`mwtors.Census`) is built from the pieces here:
`ClassStream` is J(F_q) as a lazy collection, whose order the caller takes
from the zeta function and whose classes are drawn only as a Sylow span
needs them, for the inert twist over F_p too.  One walk over the monic
irreducible quadratics over F_q gives the count of N2 and the classes of
the conjugate pairs of quadratic points.  `two_rank_mod_p` gives the rank
of J[2] over F_p and F_{p^2} from one factorisation of F mod p, which fixes
many 2-parts without a span.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations_with_replacement

from . import poly
from .groups import AbGroupStructure, CrossCheckError
from .intutil import rational_is_square
from .poly import (
    pdegree,
    pderiv,
    pgcdext,
    pmod,
    pmul,
    pnormalize,
    psub,
    peval,
)


class JacError(ValueError):
    pass


class HyperCurve:
    """y^2 = F(x), F squarefree of degree 5 or 6 over a field domain.

    A sextic is monic, split at infinity, and its classes carry the
    balanced weight n; or it lies over F_q or Q with a non-square leading
    coefficient (the inert twist of a monic sextic over F_p, or its twist
    y^2 = d*F(x) over Q), inert at infinity: its two points there are
    conjugate, one place of degree 2.  `Vp` is None exactly when there is
    one place at infinity, on a quintic or an inert sextic, and then every
    class is one reduced (u, v, 0)."""

    __slots__ = ("domain", "F", "label", "Vp", "R", "kit")

    def __init__(self, domain, F, label=None):
        F = pnormalize(F)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kit", poly.kernels(domain))
        if pdegree(F) not in (5, 6):
            raise JacError("degree must be 5 or 6")
        # over Q disc(F), the resultant of F and F' with no Bezout cofactors, as in
        # `_weierstrass_factors`; over any other domain gcd(F, F')
        if poly.discriminant(F) == 0 if domain is poly.QQ else pdegree(pgcdext(domain, F, pderiv(domain, F))[0]) > 0:
            raise JacError("model is singular")
        if pdegree(F) == 6 and F[-1] != domain.one and _is_square(domain, F[-1]):
            raise JacError("degree-6 models must be monic, or have a non-square leading coefficient over F_q or Q")
        if pdegree(F) == 6 and F[-1] == domain.one:
            object.__setattr__(self, "Vp", _sqrt_series(domain, F))
            object.__setattr__(self, "R", psub(domain, F, pmul(domain, self.Vp, self.Vp)))
        else:
            object.__setattr__(self, "Vp", None)
            object.__setattr__(self, "R", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    @classmethod
    def from_ints(cls, domain, ints, label=None):
        return cls(domain, [domain.from_int(n) for n in ints], label)

    @property
    def degree(self):
        return pdegree(self.F)

    def identity(self):
        return ((self.domain.one,), (), 0 if self.Vp is None else 1)

    def __repr__(self):
        return f"HyperCurve({self.label or list(self.F)})"


def _is_square(dom, c) -> bool:
    """Whether c is a square of the domain; only the leading coefficient of
    a sextic asks, and a tower (`poly.TowerDomain`) answers True, so its
    sextics stay monic."""
    if hasattr(dom, "tables"):
        return dom.tables.is_sq[c]
    return hasattr(dom, "K") or rational_is_square(c)


def _sqrt_series(dom, F):
    """The monic cubic V with deg(F - V^2) <= 2 (char != 2)."""
    f5, f4, f3 = F[5], F[4], F[3]
    half = dom.div(dom.one, dom.from_int(2))
    c2 = dom.mul(f5, half)
    c1 = dom.mul(dom.sub(f4, dom.mul(c2, c2)), half)
    c0 = dom.mul(dom.sub(f3, dom.mul(dom.from_int(2), dom.mul(c1, c2))), half)
    return (c0, c1, c2, dom.one)


# ---------------------------------------------------------------------------
# The group law: Cantor composition, then reduction (Cantor, Math. Comp.
# 1987), balanced on split sextics (Galbraith-Harrison-Mireles Morales,
# ANTS 2008).  It runs on the curve's kernel kit, poly's dense kernels
# bound to its domain: over a CodeDomain each kernel row reads one row of
# the field's multiplication table.
# ---------------------------------------------------------------------------


def jac_add(C: HyperCurve, D1, D2):
    """Cantor composition + reduction; balanced weights on split sextics.

    On a sextic, Np counts the copies of +infinity in the running
    representation of total degree 4.  Each reduction step is the principal
    divisor of y - w with w = v (mod u), w steered toward +infinity (w close
    to V) or -infinity (w close to -V); it ends with 1 <= Np and
    1 <= 4 - deg u - Np, and the weight of the reduced class is Np - 1.

    With one place at infinity (`Vp` None) a step is Cantor's
    (u, v) -> (monic((F - v^2)/u), -v mod u) while deg u > 2.  On an inert
    sextic, over F_q or Q alike (the argument uses no finiteness), a class
    other than 0 is D - infinity, D affine of degree 2, so
    deg u3 = 4 - 2 deg d is 0, 2 or 4; from 4, F - v3^2 has degree 6 (no
    square is the non-square lc(F)), so one step, by the divisor of y - v3
    whose poles are 3*infinity, gives deg u = 2.

    Composition with gcd(u1, u2) = 1 makes no second gcdext.  Cantor's
    d = gcd(u1, u2, v1 + v2) divides gcd(u1, u2) = 1, so u3 = u1*u2, and
    for any s1*u1 + s2*u2 + s3*(v1 + v2) = 1 the numerator
    t = s1*u1*v2 + s2*u2*v1 + s3*(v1*v2 + F) is v1 mod u1: there
    F = v1^2, so t = v1*(s2*u2 + s3*(v1 + v2)) = v1*(1 - s1*u1); and
    likewise v2 mod u2.  By CRT, t mod u1*u2 is the one polynomial of
    degree < deg u3 with those residues, whatever the triple; the triple
    (e1, e2, 0) of e1*u1 + e2*u2 = 1 gives it with no division by d."""
    ident = C.identity()
    if D1 == ident:
        return D2
    if D2 == ident:
        return D1
    add, sub, neg, mul, divmod_, gcdext, monic = C.kit
    F = C.F
    u1, v1, n1 = D1
    u2, v2, n2 = D2
    e, e1, e2 = gcdext(u1, u2)
    if len(e) == 1:  # coprime: d = 1, and v3 by CRT alone
        d, u3 = e, mul(u1, u2)
        v3 = divmod_(add(mul(mul(e1, u1), v2), mul(mul(e2, u2), v1)), u3)[1]
    else:
        vsum = add(v1, v2)
        if vsum:
            d, c1, c2 = gcdext(e, vsum)
            s1 = mul(c1, e1)
            s2 = mul(c1, e2)
            s3 = c2
        else:
            d, s1, s2, s3 = e, e1, e2, ()
        u3 = divmod_(mul(u1, u2), mul(d, d))[0]
        t = add(
            add(mul(mul(s1, u1), v2), mul(mul(s2, u2), v1)),
            mul(s3, add(mul(v1, v2), F)),
        )
        v3 = divmod_(divmod_(t, d)[0], u3)[1]
    if C.Vp is None:
        while pdegree(u3) > 2:
            u3 = monic(divmod_(sub(F, mul(v3, v3)), u3)[0])
            v3 = divmod_(neg(v3), u3)[1]
        return (u3, v3, 0)
    Vp = C.Vp
    degR = pdegree(C.R)
    Np = n1 + n2 + pdegree(d)
    steps = 0
    while pdegree(u3) > 2 or not (Np >= 1 and 4 - pdegree(u3) - Np >= 1):
        Vdir = Vp if pdegree(u3) > 2 or Np >= 1 else neg(Vp)
        w = sub(Vdir, divmod_(sub(Vdir, v3), u3)[1])
        u3 = monic(divmod_(sub(F, mul(w, w)), u3)[0])
        v3 = divmod_(neg(w), u3)[1]
        tp = sub(Vp, w)  # y - w has order 3 - deg R at +infinity if w = V, else -deg(V - w)
        Np -= ((3 - degR) if not tp else -pdegree(tp)) + pdegree(u3)
        steps += 1
        if steps > 10:  # pragma: no cover
            raise JacError("balanced reduction failed to converge")
    return (u3, v3, Np - 1)


def is_valid_divisor(C: HyperCurve, D) -> bool:
    u, v, n = D
    dom = C.domain
    if not u or u[-1] != dom.one or pdegree(u) > 2:
        return False
    if v and pdegree(v) >= pdegree(u):
        return False
    if pmod(dom, psub(dom, pmul(dom, v, v), C.F), u):
        return False
    if C.Vp is not None:
        return 0 <= n <= 2 - pdegree(u)
    return n == 0 and (C.degree == 5 or pdegree(u) != 1)


# ---------------------------------------------------------------------------
# Point counting and the zeta oracle
# ---------------------------------------------------------------------------


def curve_count(C: HyperCurve) -> int:
    return len(rational_points_code(C))


def _irreducible_quadratics(dom, F):
    """(u, a, b, norm) for each monic irreducible quadratic
    u = x^2 - s*x + n over F_q, as the coefficient codes (n, -s, 1): s runs
    over F_q and, for each s, d = s^2 - 4n over the non-squares in code
    order.  a*t + b = F mod u is read by Horner's rule in F_q[t]/(u),
    t*(a*t + b) = (a*s + b)*t - a*n, on table codes, and
    norm = b^2 + a*b*s + a^2*n is the norm of a*t + b to F_q: the roots
    t, t^q of u have t + t^q = s and t * t^q = n."""
    t = dom.tables
    q, add, mul, neg, is_sq = t.q, t.add, t.mul, t.neg, t.is_sq
    top, rest = F[-1], F[-2::-1]
    quarter = t.inv[t.from_int(4)]
    minus_nonsquares = [neg[d] for d in range(1, q) if not is_sq[d]]
    for s in range(q):
        ms, s2, minus_s = mul[s], add[mul[s][s]], neg[s]
        for md in minus_nonsquares:
            n = mul[s2[md]][quarter]  # s^2 - 4n = d
            mn = mul[neg[n]]
            a, b = 0, top
            for c in rest:
                a, b = add[ms[a]][b], add[mn[a]][c]
            yield (n, minus_s, 1), a, b, add[mul[b][add[b][ms[a]]]][mul[mul[a][a]][n]]


def _count_over_quadratic_ext(C: HyperCurve) -> int:
    """N2 = #C(F_{q^2}), counted over F_q:
    N2 = (points at infinity) + sum_{x in F_q} (2 - [F(x) = 0])
         + sum_u 2 * (1 + chi(norm)),
    over the (u, a, b, norm) of `_irreducible_quadratics`, chi the quadratic
    character of F_q.  Proof: chi_{q^2} = chi_q o Norm, since for g a
    generator of F_{q^2}^*, Norm(g) = g^(q+1) generates F_q^* and both
    orders are even, so g^k and Norm(g)^k are squares exactly for even k.
    A sextic's leading coefficient and each F(x), x in F_q, lie in F_q, so
    they are squares in F_{q^2}.  The other x pair off as the roots x, x^q
    of one u, F(x) = a*x + b, whose norm is 0 iff F(x) = 0, so x and x^q
    each give 1 + chi(norm) points.
    """
    dom = C.domain
    F, is_sq = C.F, dom.tables.is_sq
    count = 2 if C.degree == 6 else 1
    count += sum(2 if peval(dom, F, x) else 1 for x in range(dom.q))
    for _, _, _, norm in _irreducible_quadratics(dom, F):
        if not norm:
            count += 2
        elif is_sq[norm]:
            count += 4
    return count


def zeta_order(C: HyperCurve):
    """(N1, N2, L-polynomial coefficients, #J(F_q), L(-1)) by point counts
    over F_q alone: N2 = #C(F_{q^2}) takes one character value per monic
    irreducible quadratic (`_count_over_quadratic_ext` has the proof).

    The degree-4 L-polynomial is pinned by N1, N2 and the functional
    equation; #J = L(1).  Counts that break the integrality of e2 or the
    Weil bounds e1^2 <= 16q and |e2| <= 6q raise CrossCheckError."""
    q = C.domain.q
    N1 = curve_count(C)
    N2 = _count_over_quadratic_ext(C)
    s1 = q + 1 - N1
    s2 = q * q + 1 - N2
    e1, e2 = s1, (s1 * s1 - s2) // 2
    if (s1 * s1 - s2) % 2 or e1 * e1 > 16 * q or abs(e2) > 6 * q:
        raise CrossCheckError(f"{C.label} over F_{q}: counts N1 = {N1}, N2 = {N2} break the Weil bounds")
    L = (1, -e1, e2, -q * e1, q * q)
    nJ = 1 - e1 + e2 - q * e1 + q * q
    twisted = 1 + e1 + e2 + q * e1 + q * q  # L(-1), the quadratic-twist order
    return N1, N2, L, nJ, twisted


# ---------------------------------------------------------------------------
# Class enumeration and group structure
# ---------------------------------------------------------------------------


def _points_at_infinity(C: HyperCurve) -> list:
    """The rational points at infinity of C as markers ("inf", s): s = 0
    for the one point of a quintic, s = +1 and -1 for the two of a split
    sextic, none on an inert sextic."""
    if C.degree == 5:
        return [("inf", 0)]
    return [("inf", 1), ("inf", -1)] if C.Vp is not None else []


def rational_points_code(C: HyperCurve) -> list:
    """The F_q-points of C: the affine points as (x, y) codes, then the
    markers of `_points_at_infinity`."""
    dom = C.domain
    t = dom.tables
    pts = []
    for x in range(t.q):
        val = peval(dom, C.F, x)
        if val == 0:
            pts.append((x, 0))
        else:
            for y in t.sqrt[val]:
                pts.append((x, y))
    return pts + _points_at_infinity(C)


def pair_class(C: HyperCurve, P, Q):
    """The class [P + Q - (canonical degree 2)] of two points of C over its
    domain, any field; None when P + Q is a fiber of x, which is the
    canonical class, so the class 0.  A point is (x, y), or ("inf", s) with
    s = +1 or -1 on a split sextic and s = 0 on a quintic.

    With two affine points, u = (x - x1)(x - x2) and v is the line through
    them, or the tangent v = y1 + F'(x1)/(2 y1) (x - x1) at a doubled point
    with y1 != 0, whose square is F mod (x - x1)^2; deg v < deg u, so
    (u, v) is reduced.  P + iota(P) and a doubled Weierstrass point are
    fibers.  With one point at infinity, the class is (x - x1, y1) of
    weight 1 for +infinity and 0 for -infinity (0 on a quintic), and the
    pairs at infinity are 0 on a quintic (2 * infinity is a fiber) and on
    infinity_+ + infinity_- of a sextic; 2 * infinity_+- has u = 1 and the
    weight 2 or 0."""
    dom = C.domain
    if P[0] == "inf" and Q[0] == "inf":
        return None if P[1] != Q[1] or not P[1] else ((dom.one,), (), 1 + P[1])
    if P[0] == "inf":
        P, Q = Q, P
    x1, y1 = P
    if Q[0] == "inf":
        return ((dom.neg(x1), dom.one), pnormalize((y1,)), (1 + Q[1]) // 2)
    x2, y2 = Q
    if x1 == x2:
        if y1 != y2 or not y1:
            return None
        lam = dom.div(peval(dom, pderiv(dom, C.F), x1), dom.add(y1, y1))
    else:
        lam = dom.div(dom.sub(y2, y1), dom.sub(x2, x1))
    u = pmul(dom, (dom.neg(x1), dom.one), (dom.neg(x2), dom.one))
    return (u, pnormalize((dom.sub(y1, dom.mul(lam, x1)), lam)), 0)


def _conjugate_pair_classes(dom, F):
    """Classes (u, v, 0) of the conjugate pairs of quadratic points, in the
    order of `_irreducible_quadratics`, from z = a*t + b = F mod u in
    F_q[t]/(u) = F_{q^2}: the point (t, y), y^2 = z, and its conjugate give
    (u, v) with v(t) = y, v = c1*x + c0.  If N(z) = 0, z = 0 and the class
    is (u, (), 0).  If N(z) is a non-square, so is z
    (`_count_over_quadratic_ext`): no class.  Else z = v^2 for two
    v = +-(c1*t + c0).  Let m = N(v) = v*v^q, a root of N(z), and T =
    Tr(v) in F_q: T^2 = v^2 + 2 v v^q + v^(2q) = Tr(z) + 2m and
    v*T = z + m, so v = (z + m)/T when T != 0.  For the other root -m,
    Tr(z) - 2m = (v - v^q)^2 = c1^2 (s^2 - 4n) is 0 or a non-square.  So
    m is the first root of N(z) with Tr(z) + 2m = a*s + 2b + 2m a nonzero
    square, and its two roots T give v and -v.  If no root qualifies,
    T = 0 and v = c*(t - s/2), whose square c^2 (s^2/4 - n) lies in F_q:
    a = 0 and c^2 = b/(s^2/4 - n)."""
    t = dom.tables
    add, mul, neg, inv, sqrt, is_sq = t.add, t.mul, t.neg, t.inv, t.sqrt, t.is_sq
    half, quarter = inv[t.from_int(2)], inv[t.from_int(4)]
    for u, a, b, norm in _irreducible_quadratics(dom, F):
        if not norm:
            yield (u, (), 0)
            continue
        if not is_sq[norm]:
            continue
        n, s = u[0], neg[u[1]]
        trace = add[mul[a][s]][add[b][b]]
        for m in sqrt[norm]:
            T2 = add[trace][add[m][m]]
            if T2 and is_sq[T2]:
                T_inv = inv[sqrt[T2][0]]
                c0, c1 = mul[add[b][m]][T_inv], mul[a][T_inv]
                break
        else:
            c1 = sqrt[mul[b][inv[add[mul[mul[s][s]][quarter]][neg[n]]]]][0]
            c0 = neg[mul[c1][mul[s][half]]]
        yield (u, pnormalize((c0, c1)), 0)
        yield (u, pnormalize((neg[c0], neg[c1])), 0)


def _pair_classes(C: HyperCurve):
    """The classes other than 0 of y^2 = F(x) over F_q, each once and in a
    fixed order: [P + Q - (canonical degree-2)] for the pairs of F_q-points,
    then for the conjugate pairs of quadratic points.  Lazy: nothing past
    the last class drawn is built.

    Over F_p the pairs come in the order of `rational_points_code`.  Over
    F_q, q = p^2, the pairs among the points with x outside F_p come first,
    then the other pairs in that order.  A pair of F_p-points is fixed by
    Frobenius, so its class lies in J(F_p), a subgroup of index L(-1) in
    J(F_q) (`mwtors.Census`), and a Sylow span drawn from it would mostly
    repeat what it has; so those pairs come late.

    Every class is there, and only once.  For a class D != 0 of a genus-2
    curve, deg(D + canonical) = 2 and h^0(D + canonical) = 1 by
    Riemann-Roch, so D + canonical holds exactly one effective divisor of
    degree 2; it is F_q-rational, so it is a pair of F_q-points or a
    conjugate pair.  The pairs that are fibers of x (the canonical system
    itself, which gives D = 0) are skipped, so distinct pairs give distinct
    classes; `symmetric_square_points` checks that injectivity."""
    pts = rational_points_code(C)
    p = C.domain.tables.p
    outside = lambda P: P[0] != "inf" and P[0] >= p  # the codes of F_p are 0..p-1
    late = (
        (P, Q) for i, P in enumerate(pts) for Q in pts[i:] if not (outside(P) and outside(Q))
    )
    for P, Q in chain(combinations_with_replacement(filter(outside, pts), 2), late):
        cl = pair_class(C, P, Q)
        if cl is not None:
            yield cl
    yield from _conjugate_pair_classes(C.domain, C.F)


class ClassStream:
    """J(F_q) as a lazy collection: `len` is the group order N, which the
    caller takes from the zeta function, and each pass over it yields 0 and
    then the classes of `_pair_classes`, each class of J(F_q) once, in the
    same fixed order on every pass and in every process (list order, never
    set order); over F_{p^2} the pairs of points with x outside F_p come
    first, since the classes of J(F_p) add little to a span.  A Sylow span
    (`groups.sylow_subgroups`) draws from the front of the stream and stops
    as soon as it is complete, so J(F_q) is never listed."""

    __slots__ = ("curve", "order")

    def __init__(self, C: HyperCurve, order: int):
        self.curve = C
        self.order = order

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        C = self.curve
        yield C.identity()
        yield from _pair_classes(C)


# ---------------------------------------------------------------------------
# Symmetric square and "the line"
# ---------------------------------------------------------------------------


def symmetric_square_points(C: HyperCurve):
    """(line, off_line, class_map): the F_q-points of the symmetric square,
    partitioned into the P^1 of x-fibers and the rest; off-line points are
    mapped to J(F_q) and checked injective, line points map to 0.

    Counts satisfy #line = q + 1 and
    #X^(2)(F_q) = N1(N1+1)/2 + (N2-N1)/2.  A failed check raises
    CrossCheckError."""
    dom = C.domain
    t = dom.tables
    q = t.q
    pts = rational_points_code(C)
    line = []
    off = []
    class_map = {}
    for i, P in enumerate(pts):
        for Q in pts[i:]:
            cl = pair_class(C, P, Q)
            if cl is None:
                line.append((P, Q))
            else:
                off.append((P, Q))
                class_map[(P, Q)] = cl
    # line points with non-rational y: fibers over x with F(x) a non-square
    for x in range(q):
        val = peval(dom, C.F, x)
        if val != 0 and not t.is_sq[val]:
            line.append(((x, "conj"), (x, "conj'")))
    if C.degree == 6 and C.Vp is None:  # pragma: no cover
        line.append((("inf", "conj"), ("inf", "conj'")))
    conj = list(_conjugate_pair_classes(dom, C.F))
    N1, N2, _, nJ, _ = zeta_order(C)
    total = len(line) + len(off) + len(conj)
    if len(line) != q + 1:
        raise CrossCheckError(f"{C.label} over F_{q}: {len(line)} points on the line, not {q + 1}")
    if total != N1 * (N1 + 1) // 2 + (N2 - N1) // 2:
        raise CrossCheckError(f"{C.label} over F_{q}: {total} points of the symmetric square, but N1 = {N1}, N2 = {N2}")
    # injectivity off the line
    images = set(class_map.values()) | set(conj)
    if len(images) != len(off) + len(conj) or C.identity() in images:
        raise CrossCheckError(f"{C.label} over F_{q}: the symmetric square off the line is not injective")
    # arithmetic spot-check: rational line pairs compose to the identity
    for P, Q in line:
        if P[1] in ("conj", "conj'"):
            continue
        _check_line_pair_is_zero(C, P, Q)
    return line, off + [("conj", cl) for cl in conj], class_map


def _check_line_pair_is_zero(C: HyperCurve, P, Q):
    """A fiber P + Q of x sums to 0 as [P + O_- - K] + [Q + O_+ - K], K the
    canonical divisor, O_+- the points infinity_+- of a split sextic
    (infinity_+ + infinity_- = K) or the point at infinity of a quintic
    (2 * infinity = K), each piece from `pair_class`; a point at infinity
    is paired with itself."""
    s = 0 if C.degree == 5 else 1
    partner = lambda R, sign: R if R[0] == "inf" else ("inf", sign)
    pieces = (pair_class(C, P, partner(P, -s)), pair_class(C, Q, partner(Q, s)))
    if jac_add(C, *(D or C.identity() for D in pieces)) != C.identity():
        raise CrossCheckError(f"{C.label}: the fiber {P} + {Q} does not sum to 0")


# ---------------------------------------------------------------------------
# 2-torsion via Weierstrass points over a multi-quadratic field
# ---------------------------------------------------------------------------


def weierstrass_orbits(F, K) -> tuple[list[int], bool]:
    """Galois orbit sizes of the Weierstrass points of y^2 = F(x) over K,
    plus an exactness flag, for the integer coefficients F (a tuple,
    constant first).

    The orbits over K are the orbits of Gal(Q-bar/K) on the roots of F (and
    the infinite point of a quintic, fixed).  The roots of an irreducible
    rational factor g form one orbit of Gal(Q-bar/Q).  Over K, g of odd
    degree n stays irreducible: for a root a, [K(a):Q] is divisible by n
    and by [K:Q], a power of 2, so it is n[K:Q] and [K(a):K] = n.  A
    quadratic g of discriminant class d splits into two fixed roots exactly
    when sqrt(d) lies in K.  So the orbits are read from the rational
    factors of F, which depend on F alone (`_weierstrass_factors`, factored
    once per F), and from which of their discriminant classes lie in K.
    The factors are complete through degree 3; a cofactor of degree >= 4 is
    kept whole, which can only undercount K-rational classes, never
    overcount, and clears the flag when its degree is 4 or 6."""
    F = pnormalize(F)
    factors, cofactor = _weierstrass_factors(F)
    orbits = []
    for g_degree, d in factors:
        if g_degree == 2 and K.contains_sqrt(d):
            orbits += [1, 1]
        else:
            orbits.append(g_degree)
    if cofactor:
        orbits.append(cofactor)
    if len(F) % 2 == 0:
        orbits.append(1)  # the infinite Weierstrass point is rational
    has_rational = any(s == 1 for s in orbits)
    return sorted(orbits), cofactor not in (4, 6) and has_rational


@lru_cache(maxsize=256)
def _weierstrass_factors(F: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], int]:
    """(((deg g, d), ...), deg of the cofactor) for the integer polynomial
    F: each monic irreducible rational factor g of degree <= 3, with the
    squarefree class d of its splitting field for a quadratic (1
    otherwise), and the degree of F over their product.  F is checked
    squarefree, by disc(F) != 0 (the resultant of F and F' over Q, with no
    Bezout cofactors), before `poly.low_degree_factors`, whose search for a
    prime ends only for squarefree F.  A cache keeps no raised exception,
    so the JacError of a bad degree or of a non-squarefree F is raised
    again on every call."""
    degree = pdegree(F)
    if degree not in (3, 4, 5, 6):
        raise JacError("degree must be in 3..6")
    if poly.discriminant(F) == 0:
        raise JacError("F must be squarefree")
    factors = poly.low_degree_factors(F)
    data = tuple((pdegree(g), poly.splitting_quadratic_field(g) if len(g) == 3 else 1) for g in factors)
    return data, degree - sum(pdegree(g) for g in factors)


def two_torsion_galois(F, K) -> tuple[AbGroupStructure, bool]:
    """(subgroup of J(K)[2] generated by K-rational even Weierstrass subsets,
    exactness flag), for the integer coefficients F of y^2 = F(x).

    The group of 2-torsion classes is even-size subsets modulo complements;
    Galois-stable subsets are orbit unions, and the K-rational ones form an
    elementary 2-group whose rank is counted from the orbit sizes."""
    orbits, exact = weierstrass_orbits(F, K)
    return AbGroupStructure.from_prime_exponents({2: [1] * _two_rank(orbits)}), exact


def _two_rank(orbits) -> int:
    """The rank of the Frobenius- or Galois-fixed part of J[2] for a genus-2
    curve, from the orbit sizes on its six Weierstrass points W (the
    infinite one included on a quintic): m - 2 for m orbits if some orbit
    is odd, else m - 1.

    Proof (Cornelissen, "Two-torsion in the Jacobian of hyperelliptic
    curves over finite fields", 2001).  J[2] is the group of the even
    subsets of W under symmetric difference, modulo {empty, W}, and Galois
    acts on it through its permutation of W.  A class {T, W - T} is fixed
    when each s maps T onto T or onto W - T; the latter gives
    |T| = |W - T| = 3, which is odd.  So the fixed classes are the even
    unions of orbits, modulo W.  The parity of a union is the number of its
    odd orbits mod 2, so the even unions form a space of dimension m - 1 if
    some orbit is odd and m otherwise, and W is one of them.  The sizes sum
    to 6, so odd orbits come in pairs, and m - 2 >= 0."""
    return len(orbits) - (2 if any(s % 2 for s in orbits) else 1)


def two_rank_mod_p(coeffs, p: int, f: int) -> int:
    """The rank of J(F_{p^f})[2], f = 1 or 2, for y^2 = F(x) with the
    integer `coeffs` of F (degree 5 or 6, squarefree mod the odd prime p),
    from one factorisation of F mod p.  The inert quadratic twist over F_p
    has the rank of f = 1: its Weierstrass points are those of the curve,
    and they carry the same Frobenius action.

    The roots of an irreducible factor of degree d over F_p form one orbit
    of the p-th power Frobenius, a d-cycle; its f-th power, the Frobenius
    of F_{p^f}, splits a d-cycle into gcd(d, f) cycles of length
    d / gcd(d, f).  A quintic adds its infinite Weierstrass point, an
    orbit of size 1.  `_two_rank` reads the rank off the orbit sizes."""
    inv = pow(coeffs[-1], -1, p)
    monic = pnormalize([c * inv % p for c in coeffs])
    orbits = [1] if len(monic) % 2 == 0 else []
    for g in poly.mp_factor_squarefree(monic, p):
        d = len(g) - 1
        k = math.gcd(d, f)
        orbits += [d // k] * k
    return _two_rank(orbits)


# ---------------------------------------------------------------------------
# Rational and tower-level divisor utilities (lower bounds)
# ---------------------------------------------------------------------------


def search_rational_points(F, bound: int = 60) -> list:
    """Integer points (x, y) with y^2 = F(x), |x| <= bound, y >= 0, for the
    integer coefficients F (a tuple, constant first), as pairs of ints,
    elements of `poly.QQ`: F(x) by Horner's rule on integers, y its exact
    integer square root."""
    out = []
    for x in range(-bound, bound + 1):
        w = 0
        for c in reversed(F):
            w = w * x + c
        if w >= 0 and math.isqrt(w) ** 2 == w:
            out.append((x, math.isqrt(w)))
    return out


def classes_from_rational_points(C: HyperCurve, pts) -> list:
    """The classes `pair_class` of every pair, a point with itself
    included, of the affine rational points `pts` and the rational points
    at infinity, over any field domain; the fibers of x, class 0, are left
    out."""
    pts = [*pts, *_points_at_infinity(C)]
    return [cl for i, P in enumerate(pts) for Q in pts[i:] if (cl := pair_class(C, P, Q)) is not None]
