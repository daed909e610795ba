"""Univariate polynomials over every coefficient domain in the package.

One dense-tuple engine serves prime fields and their quadratic extensions
(int-coded elements), the rationals (Fraction), multi-quadratic towers
(TowerElem) and the residues Z/m (ints, `ResidueDomain`).  Each domain
supplies its ring operations and one row operation, `axpy`, that every
sum, product, scaling and division runs on; zero is the one falsy value of
each domain.  `kernels` binds the engine to one domain for the genus-2
group law.  On top of it: exact factor extraction of low-degree rational
factors via modular factorization and Hensel lifting on the same kernels
over Z/p and Z/p^k, and splitting fields of quadratics.

Polynomials are tuples, constant term first, no trailing zeros.
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


class InexactDivision(PolyError):
    """Raised when exact_div is asked to divide by a non-divisor."""


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------


class _OperatorDomain:
    """Arithmetic by Python operators, for values whose zero is falsy."""

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


class RationalDomain(_OperatorDomain):
    """Fractions."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(n):
        return Fraction(n)

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
    modulo a prime, where each nonzero residue is a unit."""

    zero = 0
    one = 1

    def __init__(self, m: int):
        self.m = m

    def from_int(self, n):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

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


class TowerDomain(_OperatorDomain):
    """A MultiQuadField acting as a coefficient domain (TowerElem values)."""

    def __init__(self, K):
        self.K = K
        self.zero = K.zero()
        self.one = K.one()

    def from_int(self, n):
        return self.K.from_rational(Fraction(n))

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


def pexact_div(dom, f, g):
    q, r = pdivmod(dom, f, g)
    if r:
        raise InexactDivision("inexact polynomial division")
    return q


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


# ---------------------------------------------------------------------------
# Poly wrapper
# ---------------------------------------------------------------------------


class Poly:
    """Immutable dense polynomial over a domain."""

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain, coeffs):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", pnormalize(coeffs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, domain, ints):
        return cls(domain, [domain.from_int(n) for n in ints])

    @property
    def degree(self):
        return pdegree(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.domain is other.domain
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.domain), self.coeffs))

    def _wrap(self, cs):
        return Poly(self.domain, cs)

    def __add__(self, other):
        return self._wrap(padd(self.domain, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self._wrap(psub(self.domain, self.coeffs, other.coeffs))

    def __neg__(self):
        return self._wrap(pneg(self.domain, self.coeffs))

    def __mul__(self, other):
        return self._wrap(pmul(self.domain, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        q, r = pdivmod(self.domain, self.coeffs, other.coeffs)
        return self._wrap(q), self._wrap(r)

    def __mod__(self, other):
        return self._wrap(pmod(self.domain, self.coeffs, other.coeffs))

    def exact_div(self, other):
        return self._wrap(pexact_div(self.domain, self.coeffs, other.coeffs))

    def divides(self, other) -> bool:
        if self.is_zero():
            return other.is_zero()
        return not pdivmod(self.domain, other.coeffs, self.coeffs)[1]

    def monic(self):
        return self._wrap(pmonic(self.domain, self.coeffs))

    def gcd(self, other):
        return self._wrap(pgcd(self.domain, self.coeffs, other.coeffs))

    def derivative(self):
        return self._wrap(pderiv(self.domain, self.coeffs))

    def __call__(self, x):
        return peval(self.domain, self.coeffs, x)

    def discriminant(self):
        return discriminant(self.domain, self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def resultant(dom, f, g):
    """res(f, g) via the Sylvester determinant with exact division-free Gauss.

    Sizes here are tiny (degrees <= 12), so the O(n^3) fraction elimination
    is more than fast enough and has no sign subtleties.
    """
    m, n = pdegree(f), pdegree(g)
    if m < 0 or n < 0:
        return dom.zero
    if m == 0:
        return _dpow(dom, f[0], n)
    if n == 0:
        return _dpow(dom, g[0], m)
    size = m + n
    rows = []
    for i in range(n):
        row = [dom.zero] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [dom.zero] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    det = dom.one
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return dom.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = dom.neg(det)
        det = dom.mul(det, rows[col][col])
        inv = dom.div(dom.one, rows[col][col])
        for r in range(col + 1, size):
            if not rows[r][col]:
                continue
            factor = dom.mul(rows[r][col], inv)
            for c in range(col, size):
                rows[r][c] = dom.sub(rows[r][c], dom.mul(factor, rows[col][c]))
    return det


def _dpow(dom, a, n):
    out = dom.one
    for _ in range(n):
        out = dom.mul(out, a)
    return out


def discriminant(dom, f):
    n = pdegree(f)
    if n < 1:
        raise PolyError("discriminant needs degree >= 1")
    res = resultant(dom, f, pderiv(dom, f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    out = dom.div(res, f[-1])
    return out if sign == 1 else dom.neg(out)


# ---------------------------------------------------------------------------
# Factor extraction mod p and mod p^k, on the dense kernels over Z/m
# ---------------------------------------------------------------------------


def _powmod(dom, a, e, f):
    """a^e mod f over dom, e >= 1, by `groups.scalar_mul`."""
    mulmod = lambda u, v: pmod(dom, pmul(dom, u, v), f)
    return scalar_mul(e, pmod(dom, a, f), mulmod, lambda u: mulmod(u, u), (dom.one,))


def mp_factor_squarefree(f, p):
    """Irreducible monic factors of a squarefree monic f over F_p (odd p),
    f a tuple over `ResidueDomain(p)`."""
    dom = ResidueDomain(p)
    assert f and f[-1] == 1
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
        return [Poly.from_ints(ResidueDomain(M), F).coeffs]
    Fp = ResidueDomain(p)
    g = factors[0]
    h = reduce(partial(pmul, Fp), factors[1:])
    _, s, t = pgcdext(Fp, g, h)
    m = p
    G, H, S, T = g, h, s, t
    for _ in range(_ceil_log2(k)):
        G, H, S, T = _hensel_step(Poly.from_ints(ResidueDomain(m * m), F).coeffs, G, H, S, T, m)
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


def _int_coeffs(f: Poly) -> tuple[int, ...]:
    """Clear denominators and content: primitive integer coefficients."""
    if f.is_zero():
        raise PolyError("zero polynomial")
    den = math.lcm(*[c.denominator for c in f.coeffs])
    ints = [int(c * den) for c in f.coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _squarefree_parts(F: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Yield (S_i, i) with F = prod S_i^i up to constant, S_i squarefree monic
    over Q (returned as primitive integer tuples).  Euclid over Q: the slow
    path behind the certificate of `_low_degree_factors_primitive`."""
    fq = Poly(QQ, [Fraction(c) for c in F]).monic()
    out = []
    i = 1
    while fq.degree > 0:
        g = fq.gcd(fq.derivative())
        part = fq.exact_div(g)  # product of primes dividing fq
        # primes with multiplicity exactly i: part / gcd(part, g)
        exact = part.exact_div(part.gcd(g))
        if exact.degree > 0:
            out.append((_int_coeffs(exact), i))
        fq = g
        i += 1
    return out


# Odd primes below this are tried for the squarefree certificate.
GOOD_PRIME_CAP = 128


def _find_good_prime(S: tuple[int, ...], cap: int | None = None) -> int | None:
    """The least odd prime p < cap at which S keeps its degree and stays
    squarefree, or None if there is none.  With cap None the search is
    unbounded; it ends for squarefree S, since every odd prime dividing
    neither the leading coefficient nor disc(S) != 0 qualifies."""
    ps = itertools.count(3, 2) if cap is None else range(3, cap, 2)
    for p in ps:
        if is_prime(p) and S[-1] % p != 0:
            Fp = ResidueDomain(p)
            fp = Poly.from_ints(Fp, S).coeffs
            if len(pgcd(Fp, fp, pderiv(Fp, fp))) == 1:
                return p
    return None


def low_degree_factors(f: Poly, max_degree: int = 2) -> list[Poly]:
    """All monic irreducible rational factors of f of degree <= max_degree
    (with multiplicity), found by modular factorization + Hensel lifting +
    trial division.  Complete for max_degree <= 3.

    Works on the primitive integer polynomial F of f, never on its monic
    associate, whose coefficients grow as lc(F)^(deg F - 1).  F is first
    tested for a squarefree certificate mod the odd primes below
    GOOD_PRIME_CAP that do not divide lc(F); the prime that certifies it is
    also the Hensel prime, and only an uncertified F is split into
    squarefree parts by Euclid over Q.  Memoised on F and max_degree: f and
    c*f (c a nonzero rational) have the same monic factors.
    """
    if f.is_zero():
        raise PolyError("zero polynomial")
    if max_degree > 4:
        raise PolyError("complete extraction implemented only for degree <= 4")
    if f.degree == 0:
        return []
    return list(_low_degree_factors_primitive(_int_coeffs(f), max_degree))


@lru_cache(maxsize=256)
def _low_degree_factors_primitive(F: tuple[int, ...], max_degree: int) -> tuple[Poly, ...]:
    """Squarefree certificate: if the primitive F is squarefree mod an odd
    prime p that does not divide lc(F), it is squarefree over Q.  Proof: by
    Gauss's lemma a repeated factor of F over Q can be taken in Z[x],
    F = H^2 R with H, R in Z[x] and deg H > 0; lc(H)^2 lc(R) = lc(F) is
    prime to p, so H mod p keeps its degree, and F mod p would have the
    repeated factor H mod p."""
    p = _find_good_prime(F, GOOD_PRIME_CAP)
    if p is not None:
        parts = [(F, 1, p)]
    else:
        parts = [(S, mult, _find_good_prime(S)) for S, mult in _squarefree_parts(F)]
    out = []
    for S, mult, q in parts:
        for g in _low_degree_factors_squarefree(S, max_degree, q):
            out.extend([g] * mult)
    out.sort(key=lambda g: (g.degree, g.coeffs))
    # exactness check: the found factors divide F
    check = Poly(QQ, (Fraction(1),))
    for g in out:
        check = check * g
    if not check.divides(Poly.from_ints(QQ, F)):
        raise PolyError("internal factor extraction inconsistency")  # pragma: no cover
    return tuple(out)


def _low_degree_factors_squarefree(S: tuple[int, ...], max_degree: int, p: int) -> list[Poly]:
    """Monic factors of degree <= max_degree of a squarefree primitive S,
    lifted from the factorization of L^-1 S mod the good prime p, L = lc(S).

    Only the factors of degree <= max_degree are lifted; the others travel
    as one block, their product.  Hensel lifts are unique, so each low
    factor lifts as it would alone.  An irreducible factor g of S over Z,
    whose monic image mod M is the product of the lifted f_i, i in I, has
    (L / lc g) * g = L * prod_{i in I} f_i mod M, and the left side is an
    integer polynomial with |coefficient j| <= C(d, j) * ||S||_2 for
    d = deg g <= 4 (Mahler-Mignotte: M(g) <= M(S) * |lc g| / |L| since the
    cofactor has measure at least |L / lc g|, and M(S) <= ||S||_2).  So for
    M > 2B, B = 16 (||S||_2 + 1), the centred residue of
    L * prod f_i is (L / lc g) * g itself, and its monic associate is g."""
    L = S[-1]
    Fp = ResidueDomain(p)
    factors = mp_factor_squarefree(pmonic(Fp, Poly.from_ints(Fp, S).coeffs), p)
    low = [fac for fac in factors if len(fac) - 1 <= max_degree]
    if not low:
        return []
    high = [fac for fac in factors if len(fac) - 1 > max_degree]
    B = 16 * (math.isqrt(sum(c * c for c in S)) + 2)  # 16 (||S||_2 + 1), the norm rounded up
    k = 1
    while p**k <= 2 * B:
        k += 1
    M = p ** (1 << _ceil_log2(k))
    ZM = ResidueDomain(M)
    block = [reduce(partial(pmul, Fp), high)] if high else []
    lifted = _lift_factors(pmonic(ZM, Poly.from_ints(ZM, S).coeffs), low + block, p, k)
    degs = [len(x) - 1 for x in low]
    out = []
    rem = Poly.from_ints(QQ, S)
    seen = set()
    for rsize in (1, 2, 3, 4):
        for combo in itertools.combinations(range(len(low)), rsize):
            if sum(degs[i] for i in combo) > max_degree:
                continue
            prod = (ZM.from_int(L),)
            for i in combo:
                prod = pmul(ZM, prod, lifted[i])
            cand = tuple(_center(c, M) for c in prod)
            if cand in seen:
                continue
            seen.add(cand)
            g = Poly.from_ints(QQ, cand).monic()
            if not _is_irreducible_low(g):
                continue
            if g.divides(rem):
                out.append(g)
    return out


def _is_irreducible_low(g: Poly) -> bool:
    """Irreducibility over Q for monic rational polynomials of degree <= 4."""
    d = g.degree
    if d == 1:
        return True
    if d == 2:
        disc = g.coeffs[1] ** 2 - 4 * g.coeffs[0]
        return not rational_is_square(disc)
    if d == 3:
        # a root x of c3 x^3 + c2 x^2 + c1 x + c0 gives the integer root
        # c3 x of y^3 + c2 y^2 + c3 c1 y + c3^2 c0
        c0, c1, c2, c3 = _int_coeffs(g)
        return not integer_cubic_roots(c2, c3 * c1, c3 * c3 * c0)
    if d == 4:
        return not low_degree_factors(g, 2)
    return False


def splitting_quadratic_field(f: Poly) -> int:
    """Squarefree d with splitting field Q(sqrt(d)) of a rational quadratic;
    1 when the quadratic splits over Q (or is a perfect square)."""
    if f.degree != 2:
        raise PolyError("need a quadratic")
    a, b, c = f.coeffs[2], f.coeffs[1], f.coeffs[0]
    disc = b * b - 4 * a * c
    if disc == 0 or rational_is_square(disc):
        return 1
    return squarefree_part(disc.numerator * disc.denominator)

