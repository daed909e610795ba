"""Exact arithmetic in F_p and F_{p^2} for odd primes p.

F_{p^2} is realized as F_p[t]/(t^2 - r) where r is the first quadratic
non-residue in the scan order -1, 2, 3, ..., so the integer codes of the
elements, and every table built on them, are reproducible.  Arithmetic runs
on those codes through `tables`.  A generic degree-2 extension of an
arbitrary table field (where the genus-2 class stream lists the conjugate
pairs of quadratic points, and q may already be p^2) is provided by
`quadratic_extension`.
"""

from __future__ import annotations

from functools import lru_cache

from .intutil import is_prime
from .record import Record


class FieldError(ValueError):
    """Bad field construction, or a field too large for its tables."""


class FieldDesc(Record):
    """A prime field (k=1) or its quadratic extension (k=2, t^2 = r)."""

    p: int
    k: int
    r: int | None = None

    @property
    def order(self) -> int:
        return self.p**self.k

    def __repr__(self) -> str:
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^2(t^2={self.r})"


def make_field(p: int, k: int) -> FieldDesc:
    """Construct F_{p^k} for odd prime p and k in {1, 2}."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p == 2:
        raise FieldError("even characteristic unsupported")
    if k not in (1, 2):
        raise FieldError(f"extension degree {k} not in {{1, 2}}")
    if k == 1:
        return FieldDesc(p, 1)
    for r in (-1, *range(2, p)):
        if pow(r % p, (p - 1) // 2, p) == p - 1:
            return FieldDesc(p, 2, r)
    raise FieldError(f"no quadratic non-residue mod {p}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Int-coded tables: the fast computation layer used by the curve modules.
# The element c0 + c1*t of F_{p^k} is coded as the integer c0 + c1*p.
# ---------------------------------------------------------------------------


# The largest q with tables: they hold q x q entries each for add and mul,
# so memory and build time grow as q^2 (q = 1021 takes about 65 MB).
MAX_TABLE_ORDER = 1024


class Tables:
    """Precomputed arithmetic tables for one F_{p^k}, q <= MAX_TABLE_ORDER.

    The code i = c0 + c1*p, (c0, c1) = (i mod p, i div p), stands for
    c0 + c1*t with t^2 = r, so (a0 + a1 t)(b0 + b1 t) =
    (a0 b0 + r a1 b1) + (a0 b1 + a1 b0) t and 1/a = conj(a)/norm(a); F_p is
    the case k = 1, with c1 = 0 and r = 0.  Scanning the codes in order
    keeps each `sqrt` tuple ascending.  A larger q raises FieldError before
    anything is built."""

    def __init__(self, field: FieldDesc):
        q = field.order
        if q > MAX_TABLE_ORDER:
            raise FieldError(f"F_{q} is too large for arithmetic tables (q <= {MAX_TABLE_ORDER})")
        self.field = field
        self.q = q
        p = field.p
        self.p = p
        r = field.r % p if field.k == 2 else 0
        pairs = [(i % p, i // p) for i in range(q)]
        self.add = [[(a0 + b0) % p + (a1 + b1) % p * p for b0, b1 in pairs] for a0, a1 in pairs]
        self.mul = [
            [(a0 * b0 + r * a1 * b1) % p + (a0 * b1 + a1 * b0) % p * p for b0, b1 in pairs]
            for a0, a1 in pairs
        ]
        self.neg = [-a0 % p + -a1 % p * p for a0, a1 in pairs]
        # 1/a = conj(a) / norm(a), norm(a) = a0^2 - r a1^2
        norm_inv = [pow((a0 * a0 - r * a1 * a1) % p, p - 2, p) for a0, a1 in pairs]
        self.inv = [a0 * n % p + -a1 * n % p * p for (a0, a1), n in zip(pairs, norm_inv)]
        roots: list[list[int]] = [[] for _ in range(q)]
        for a in range(q):
            roots[self.mul[a][a]].append(a)
        self.sqrt: list[tuple[int, ...]] = [tuple(rs) for rs in roots]
        self.is_sq = [bool(self.sqrt[i]) or i == 0 for i in range(q)]

    def from_int(self, n: int) -> int:
        return n % self.p


@lru_cache(maxsize=256)
def tables(field: FieldDesc) -> Tables:
    return Tables(field)


class QuadExt:
    """Degree-2 extension of a table field, elements coded as (a, b) pairs
    meaning a + b*u with u^2 = r, r a fixed non-residue of the base.

    Only what the conjugate pairs of quadratic points need: ring ops, square
    roots, and the base-Frobenius conjugation.  The table of square roots,
    one entry per square of F_{q^2}, is built on the first `sqrt` call.
    """

    def __init__(self, base: Tables):
        self.base = base
        self.order = base.q**2
        r = None
        for i in range(1, base.q):
            if not base.is_sq[i]:
                r = i
                break
        if r is None:
            raise FieldError("base field has no non-residue")  # pragma: no cover
        self.r = r
        self.zero = (0, 0)
        self.one = (1, 0)
        self._sqrts: dict[tuple[int, int], tuple[int, int]] | None = None

    def elements(self):
        for b in range(self.base.q):
            for a in range(self.base.q):
                yield (a, b)

    def embed(self, a: int) -> tuple[int, int]:
        return (a, 0)

    def add(self, x, y):
        ba = self.base.add
        return (ba[x[0]][y[0]], ba[x[1]][y[1]])

    def neg(self, x):
        bn = self.base.neg
        return (bn[x[0]], bn[x[1]])

    def mul(self, x, y):
        ba, bm = self.base.add, self.base.mul
        a, b = x
        c, d = y
        return (ba[bm[a][c]][bm[self.r][bm[b][d]]], ba[bm[a][d]][bm[b][c]])

    def sqrt(self, x):
        """The first root of x in the order of `elements`, or None."""
        if x == (0, 0):
            return (0, 0)
        if self._sqrts is None:
            sqrts: dict[tuple[int, int], tuple[int, int]] = {}
            for y in self.elements():
                sqrts.setdefault(self.mul(y, y), y)
            self._sqrts = sqrts
        return self._sqrts.get(x)

    def conj(self, x):
        """The base-field Frobenius x -> x^q: a + b*u -> a - b*u."""
        return (x[0], self.base.neg[x[1]])


@lru_cache(maxsize=256)
def quadratic_extension(field: FieldDesc) -> QuadExt:
    return QuadExt(tables(field))
