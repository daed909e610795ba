"""Univariate polynomials over every coefficient domain in the package.

One dense-tuple engine serves prime fields and their quadratic extensions
(int-coded elements), the rationals (ints, and a Fraction only where a
denominator appears: `RationalDomain`), multi-quadratic towers
(TowerElem) and the residues Z/m (ints, `ResidueDomain`).  Each domain
supplies one row operation, `axpy`, that every sum, product, scaling and
division runs on, and neg, mul and div; the field domains also add and
subtract, for the curve code.  Zero is the one falsy value of each
domain.  `kernels` binds the engine to one domain for the genus-2
group law.  On top of it: the discriminant over Q, exact extraction of
the rational factors of degree <= 3 of a squarefree integer polynomial
via modular factorization and Hensel lifting on the same kernels over Z/p
and Z/p^k, and splitting fields of quadratics.

Polynomials are tuples, constant term first, no trailing zeros, and the
kernels take their domain as the first argument.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial, reduce

from . import ff
from .groups import scalar_mul
from .intutil import (
    integer_cubic_roots,
    is_prime,
    rational_is_square,
    squarefree_part,
)


class PolyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------


def integral(x):
    """x, an int or a Fraction, as an int when its denominator is 1."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class RationalDomain:
    """The rationals, integer first: an integral value is a Python int, and
    only a value with a denominator is a Fraction (its denominator then is
    not 1).  So the Q-side arithmetic runs on ints, and a Fraction is built
    only where a denominator appears.

    Exactness.  int + - * int is an int.  Arithmetic with a Fraction
    operand and an int or Fraction other operand is Fraction arithmetic,
    exact, and `integral` turns an integral result back into an int.  `div`
    is the only operation that can leave Z: it divides two ints by divmod,
    and builds `Fraction(a, b)` when the remainder is not 0; with a Fraction
    operand it is Fraction division.  No operation here applies `/` to two
    ints, so no float ever arises.

    Nothing else changes.  An int and a Fraction of equal value compare
    equal and hash equal (Fraction.__hash__ is defined so), so tuple
    equality of classes, set and dict membership, and sorted orders are the
    same as with Fractions throughout; str gives the same digits too."""

    zero = 0
    one = 1

    @staticmethod
    def from_int(n):
        return n

    @staticmethod
    def add(a, b):
        return integral(a + b)

    @staticmethod
    def sub(a, b):
        return integral(a - b)

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return integral(a * b)

    @staticmethod
    def div(a, b):
        if a.__class__ is int and b.__class__ is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return integral(a / b)  # a Fraction operand: Fraction division

    @staticmethod
    def axpy(out, k, c, g):
        """out[k + j] += c * g[j] for each j."""
        for j, b in enumerate(g, k):
            if b:
                s = out[j] + c * b  # `integral(s)` inlined: this runs once per coefficient
                out[j] = s if s.__class__ is int or s.denominator != 1 else s.numerator

    def __repr__(self):
        return "QQ"


QQ = RationalDomain()


class CodeDomain:
    """A finite field F_{p^k} with int-coded elements and table arithmetic;
    the dense kernels over it, and so the genus-2 census, run on `axpy`,
    one row of the multiplication table per call."""

    def __init__(self, field: ff.FieldDesc):
        t = ff.tables(field)
        self.field = field
        self.tables = t
        self.q = t.q
        self.zero = 0
        self.one = 1
        self._add = t.add
        self._mul = t.mul
        self._neg = t.neg
        self._inv = t.inv

    def from_int(self, n):
        return n % self.tables.p

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return self._mul[a][self._inv[b]]

    def axpy(self, out, k, c, g):
        """out[k + j] += c * g[j] for each j, read from the table row of c."""
        add, row = self._add, self._mul[c]
        for j, b in enumerate(g, k):
            if b:
                out[j] = add[out[j]][row[b]]

    def __repr__(self):
        return f"Code({self.field!r})"


class ResidueDomain:
    """Z/m for an integer m >= 2, with ints in [0, m).

    `axpy` adds the integer product c * g[j] to out[k + j] and reduces the
    sum once, so a kernel row costs one `%` per coefficient.  `div` inverts
    with pow(b, -1, m), which exists exactly when b is prime to m.  So the
    dense kernels are exact over Z/m whenever every divisor they meet has an
    invertible leading coefficient: pdivmod, pgcd and pgcdext divide by
    leading coefficients, and pmonic scales by the inverse of its own.
    Factor extraction keeps to that: modulo a prime power p^k the Hensel
    steps divide only by monic polynomials, and the polynomial made monic
    there has a leading coefficient prime to p; every other division is
    modulo a prime, where each nonzero residue is a unit.  No curve lives
    over Z/m, so it has no add or sub: the kernels add through `axpy`."""

    zero = 0
    one = 1

    def __init__(self, m: int):
        self.m = m

    def from_int(self, n):
        return n % self.m

    def neg(self, a):
        return -a % self.m

    def mul(self, a, b):
        return a * b % self.m

    def div(self, a, b):
        return a * pow(b, -1, self.m) % self.m

    def axpy(self, out, k, c, g):
        """out[k + j] += c * g[j] for each j, reduced once per coefficient."""
        m = self.m
        for j, b in enumerate(g, k):
            out[j] = (out[j] + c * b) % m

    def __repr__(self):
        return f"Z/{self.m}"


@lru_cache(maxsize=256)
def code_domain(field: ff.FieldDesc) -> CodeDomain:
    return CodeDomain(field)


class TowerDomain:
    """A MultiQuadField acting as a coefficient domain (TowerElem values),
    with the arithmetic of TowerElem's operators."""

    def __init__(self, K):
        self.K = K
        self.zero = K.zero()
        self.one = K.one()

    def from_int(self, n):
        return self.K.from_rational(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def axpy(out, k, c, g):
        """out[k + j] += c * g[j] for each j."""
        for j, b in enumerate(g, k):
            if b:
                out[j] = out[j] + c * b

    def __repr__(self):
        return f"Tower({self.K!r})"


# ---------------------------------------------------------------------------
# Dense kernels (tuples, constant first)
# ---------------------------------------------------------------------------


def pnormalize(cs):
    return _trim(list(cs))


def _trim(out):
    """The list out, with its trailing zeros popped, as a tuple."""
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def pdegree(f):
    return len(f) - 1  # -1 for the zero polynomial


def _plus_multiple(dom, f, c, g):
    """f + c*g, by one `axpy` row."""
    out = list(f)
    out += [dom.zero] * (len(g) - len(f))
    dom.axpy(out, 0, c, g)
    return _trim(out)


def padd(dom, f, g):
    return _plus_multiple(dom, f, dom.one, g)


def psub(dom, f, g):
    return _plus_multiple(dom, f, dom.neg(dom.one), g)


def pneg(dom, f):
    return tuple(dom.neg(c) for c in f)


def pscale(dom, c, f):
    if not c:
        return ()
    return _plus_multiple(dom, (), c, f)


def pmul(dom, f, g):
    if not f or not g:
        return ()
    if len(f) > len(g):
        f, g = g, f  # fewer, longer rows
    out = [dom.zero] * (len(f) + len(g) - 1)
    axpy = dom.axpy
    for i, a in enumerate(f):
        if a:
            axpy(out, i, a, g)
    return _trim(out)


def pdivmod(dom, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    q = [dom.zero] * max(0, len(f) - dg)
    r = list(f)
    inv_lc = dom.div(dom.one, g[-1])
    axpy, mul, neg = dom.axpy, dom.mul, dom.neg
    for k in range(len(f) - 1 - dg, -1, -1):
        c = r[k + dg]
        if c:
            c = q[k] = mul(c, inv_lc)
            axpy(r, k, neg(c), g)  # cancels r[k + dg]
    return _trim(q), _trim(r[:dg])


def pmod(dom, f, g):
    return pdivmod(dom, f, g)[1]


def pmonic(dom, f):
    if not f:
        return f
    inv = dom.div(dom.one, f[-1])
    return pscale(dom, inv, f)


def pgcd(dom, f, g):
    while g:
        f, g = g, pmod(dom, f, g)
    return pmonic(dom, f)


def pgcdext(dom, f, g):
    """(d, s, t) with s*f + t*g = d, d monic."""
    r0, r1 = f, g
    s0, s1 = (dom.one,), ()
    t0, t1 = (), (dom.one,)
    while r1:
        q, r = pdivmod(dom, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(dom, s0, pmul(dom, q, s1))
        t0, t1 = t1, psub(dom, t0, pmul(dom, q, t1))
    if not r0:
        return (), s0, t0
    inv = dom.div(dom.one, r0[-1])
    return pscale(dom, inv, r0), pscale(dom, inv, s0), pscale(dom, inv, t0)


def pderiv(dom, f):
    return _trim([dom.mul(dom.from_int(i), f[i]) for i in range(1, len(f))])


def peval(dom, f, x):
    acc = dom.zero
    for c in reversed(f):
        acc = dom.add(dom.mul(acc, x), c)
    return acc


class Kernels(namedtuple("Kernels", "add sub neg mul divmod gcdext monic")):
    """The dense kernels bound to one domain, as `kernels` returns them."""

    __slots__ = ()


def kernels(dom) -> Kernels:
    """padd, psub, pneg, pmul, pdivmod, pgcdext and pmonic bound to dom.

    They are the same kernels over every domain: each row of a product, a
    division, a sum or a scaling is one call of the domain's `axpy`."""
    return Kernels(*(partial(fn, dom) for fn in (padd, psub, pneg, pmul, pdivmod, pgcdext, pmonic)))


def resultant(f, g):
    """res(f, g) of two polynomials over Q (tuples of rationals) by the
    Euclidean recurrence res(f, g) = (-1)^(mn) lc(g)^(m - deg r) res(g, r),
    m = deg f, n = deg g >= 1, r = f mod g; res(f, g) = g0^m when n = 0,
    and 0 when f or g is 0.  Proof: res(f, g) = (-1)^(mn) res(g, f), and
    res(g, f) = lc(g)^m prod f(beta) over the roots beta of g, where
    f(beta) = r(beta), so res(g, f) = lc(g)^(m - deg r) res(g, r)."""
    m, n = pdegree(f), pdegree(g)
    if m < 0 or n < 0:
        return 0
    if n == 0:
        return integral(g[0] ** m)
    r = pmod(QQ, f, g)
    return integral((-1) ** (m * n) * g[-1] ** (m - pdegree(r)) * resultant(g, r))


def discriminant(f):
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') / lc(f) of a polynomial over Q
    of degree n >= 1 (a tuple of rationals)."""
    n = pdegree(f)
    if n < 1:
        raise PolyError("discriminant needs degree >= 1")
    out = QQ.div(resultant(f, pderiv(QQ, f)), f[-1])
    return -out if (n * (n - 1) // 2) % 2 else out


# ---------------------------------------------------------------------------
# Factor extraction mod p and mod p^k, on the dense kernels over Z/m
# ---------------------------------------------------------------------------


def _powmod(dom, a, e, f):
    """a^e mod f over dom, e >= 1, by `groups.scalar_mul`."""
    mulmod = lambda u, v: pmod(dom, pmul(dom, u, v), f)
    return scalar_mul(e, pmod(dom, a, f), mulmod, lambda u: mulmod(u, u), (dom.one,))


def mp_factor_squarefree(f, p):
    """Irreducible monic factors of a squarefree monic f over F_p (odd p),
    f a tuple over `ResidueDomain(p)`; PolyError when f is not monic."""
    dom = ResidueDomain(p)
    if not f or f[-1] != 1:
        raise PolyError(f"{f} is not a monic polynomial mod {p}")
    out = []
    x = (0, 1)
    w = x
    d = 0
    rest = f
    while len(rest) - 1 > 0:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append(rest)
            break
        w = _powmod(dom, w, p, rest)
        diff = psub(dom, w, x)
        g = pgcd(dom, diff, rest) if diff else rest
        if len(g) > 1:
            out.extend(_equal_degree_split(g, d, p))
            rest = pdivmod(dom, rest, g)[0]
            w = pmod(dom, w, rest)
    out.sort()
    return out


def _equal_degree_split(f, d, p):
    """Cantor-Zassenhaus: split f (product of irreducibles of degree d) mod p.
    Seeded deterministically from the input, so output order is reproducible."""
    import random  # only here, so that importing the package does not load it

    n = len(f) - 1
    if n == d:
        return [f]
    dom = ResidueDomain(p)
    rng = random.Random(f"edf:{p}:{d}:{f}")
    while True:
        a = pnormalize([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = pgcd(dom, a, f)
        if not (1 <= len(g) - 1 < n):
            b = psub(dom, _powmod(dom, a, (p**d - 1) // 2, f), (1,))
            if not b:
                continue
            g = pgcd(dom, b, f)
            if not (1 <= len(g) - 1 < n):
                continue
        rest = pdivmod(dom, f, g)[0]
        return _equal_degree_split(g, d, p) + _equal_degree_split(rest, d, p)


# ---------------------------------------------------------------------------
# Hensel lifting and rational factor extraction (degrees 1..3 complete)
# ---------------------------------------------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = g*h, s*g + t*h = 1 (mod m) to mod m^2.
    All polynomials tuples of residues in [0, m^2); h monic, f monic."""
    dom = ResidueDomain(m * m)
    add, sub, mul = (partial(fn, dom) for fn in (padd, psub, pmul))
    e = sub(f, mul(g, h))
    q, r = pdivmod(dom, mul(s, e), h)
    g1 = add(g, add(mul(t, e), mul(q, g)))
    h1 = add(h, r)
    b = sub(add(mul(s, g1), mul(t, h1)), (1,))
    c, d = pdivmod(dom, mul(s, b), h1)
    s1 = sub(s, d)
    t1 = sub(t, add(mul(t, b), mul(c, g1)))
    return g1, h1, s1, t1


def _lift_factors(F, factors, p, k):
    """Lift monic mod-p factors (product = F mod p) to mod p^(2^s) >= p^k,
    peeling one factor at a time."""
    M = p ** (1 << _ceil_log2(k))
    if len(factors) == 1:
        return [_residues(F, M)]
    Fp = ResidueDomain(p)
    g = factors[0]
    h = reduce(partial(pmul, Fp), factors[1:])
    _, s, t = pgcdext(Fp, g, h)
    m = p
    G, H, S, T = g, h, s, t
    for _ in range(_ceil_log2(k)):
        G, H, S, T = _hensel_step(_residues(F, m * m), G, H, S, T, m)
        m *= m
    return [G] + _lift_factors(H, factors[1:], p, k)


def _ceil_log2(k):
    n = 0
    while (1 << n) < k:
        n += 1
    return max(n, 1)


def _center(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _residues(F, m):
    """The integer tuple F reduced mod m, a tuple over `ResidueDomain(m)`."""
    return pnormalize([c % m for c in F])


def _find_good_prime(S: tuple[int, ...]) -> int:
    """The least odd prime p at which the integer polynomial S keeps its
    degree and stays squarefree.  The search ends for squarefree S: disc(S)
    is then a nonzero integer, and every odd prime dividing neither lc(S)
    nor disc(S) qualifies."""
    for p in itertools.count(3, 2):
        if is_prime(p) and S[-1] % p != 0:
            Fp = ResidueDomain(p)
            fp = _residues(S, p)
            if len(pgcd(Fp, fp, pderiv(Fp, fp))) == 1:
                return p


def low_degree_factors(F: tuple[int, ...]) -> list[tuple]:
    """All monic irreducible rational factors of degree <= 3 of a
    squarefree integer polynomial F (a tuple, constant first), each a tuple
    over `QQ`, sorted by degree and then by coefficients: found by
    modular factorization, Hensel lifting and trial division mod the least
    prime at which F stays squarefree of its degree, and checked exact:
    their product divides F over Q.

    Works on F itself, never on its monic associate, whose coefficients
    grow as lc(F)^(deg F - 1).  The caller checks that F is squarefree
    (`hyperjac._weierstrass_factors` does, by disc(F) != 0, the resultant
    of F and F' over Q with no Bezout cofactors, and keeps the factors per
    F): the search for the Hensel prime ends only for squarefree F."""
    out = sorted(_low_degree_factors_squarefree(F, _find_good_prime(F)), key=lambda g: (len(g), g))
    product = reduce(partial(pmul, QQ), out, (QQ.one,))
    if pdivmod(QQ, F, product)[1]:
        raise PolyError("internal factor extraction inconsistency")  # pragma: no cover
    return out


def _low_degree_factors_squarefree(S: tuple[int, ...], p: int) -> list[tuple]:
    """Monic factors of degree <= 3 of a squarefree integer S, lifted from
    the factorization of L^-1 S mod the good prime p, L = lc(S).

    Only the factors of degree <= 3 are lifted; the others travel as one
    block, their product.  Hensel lifts are unique, so each low factor
    lifts as it would alone.  An irreducible factor g of S over Z, primitive
    and with monic image mod M the product of the lifted f_i, i in I, has
    S = g h with h in Z[x] (Gauss's lemma), so L / lc g = lc h is an
    integer and (L / lc g) * g = L * prod_{i in I} f_i mod M.  The left side
    has |coefficient j| <= C(d, j) * ||S||_2 for d = deg g <= 3
    (Mahler-Mignotte: M(lc(h) g) <= M(h) M(g) = M(S) <= ||S||_2).  So for
    M > 2B, B = 16 (||S||_2 + 1), the centred residue of L * prod f_i is
    (L / lc g) * g itself, and its monic associate is g."""
    L = S[-1]
    Fp = ResidueDomain(p)
    factors = mp_factor_squarefree(pmonic(Fp, _residues(S, p)), p)
    low = [fac for fac in factors if len(fac) <= 4]
    if not low:
        return []
    high = [fac for fac in factors if len(fac) > 4]
    B = 16 * (math.isqrt(sum(c * c for c in S)) + 2)  # 16 (||S||_2 + 1), the norm rounded up
    k = 1
    while p**k <= 2 * B:
        k += 1
    M = p ** (1 << _ceil_log2(k))
    ZM = ResidueDomain(M)
    block = [reduce(partial(pmul, Fp), high)] if high else []
    lifted = _lift_factors(pmonic(ZM, _residues(S, M)), low + block, p, k)
    degs = [len(x) - 1 for x in low]
    out = []
    seen = set()
    for rsize in (1, 2, 3):
        for combo in itertools.combinations(range(len(low)), rsize):
            if sum(degs[i] for i in combo) > 3:
                continue
            prod = (ZM.from_int(L),)
            for i in combo:
                prod = pmul(ZM, prod, lifted[i])
            cand = tuple(_center(c, M) for c in prod)
            if cand in seen:
                continue
            seen.add(cand)
            if not _is_irreducible_low(cand):
                continue
            g = pmonic(QQ, cand)
            if not pdivmod(QQ, S, g)[1]:
                out.append(g)
    return out


def _is_irreducible_low(g: tuple[int, ...]) -> bool:
    """Irreducibility over Q of an integer polynomial of degree 1 to 3: one
    of degree 2 or 3 is reducible exactly when it has a rational root."""
    if len(g) == 2:
        return True
    if len(g) == 3:
        c0, c1, c2 = g
        return not rational_is_square(c1 * c1 - 4 * c0 * c2)
    # a root x of c3 x^3 + c2 x^2 + c1 x + c0 gives the integer root
    # c3 x of y^3 + c2 y^2 + c3 c1 y + c3^2 c0
    c0, c1, c2, c3 = g
    return not integer_cubic_roots(c2, c3 * c1, c3 * c3 * c0)


def splitting_quadratic_field(f) -> int:
    """Squarefree d with splitting field Q(sqrt(d)) of a rational quadratic
    f (a tuple, constant first); 1 when the quadratic splits over Q."""
    if len(f) != 3:
        raise PolyError("need a quadratic")
    c, b, a = f
    disc = b * b - 4 * a * c
    if disc == 0 or rational_is_square(disc):
        return 1
    return squarefree_part(disc.numerator * disc.denominator)
