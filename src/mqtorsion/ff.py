"""Exact arithmetic in F_p and F_{p^2} for odd primes p.

F_{p^2} is realized as F_p[t]/(t^2 - r) where r is the first quadratic
non-residue in the scan order -1, 2, 3, ..., so the integer codes of the
elements, and every table built on them, are reproducible.  Arithmetic runs
on those codes through `tables`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

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
# so memory and build time grow as q^2 (q = 1021 takes about 16 MB).
MAX_TABLE_ORDER = 1024


class Tables:
    """Precomputed arithmetic tables for one F_{p^k}, q <= MAX_TABLE_ORDER.

    The code i = c0 + c1*p, (c0, c1) = (i mod p, i div p), stands for
    c0 + c1*t with t^2 = r, so (a0 + a1 t)(b0 + b1 t) =
    (a0 b0 + r a1 b1) + (a0 b1 + a1 b0) t and 1/a = conj(a)/norm(a); F_p is
    the case k = 1, with c1 = 0 and r = 0.  Scanning the codes in order
    keeps each `sqrt` tuple ascending.  A larger q raises FieldError before
    anything is built.

    `add` and `mul` are sliced and gathered from a few lists, whose int
    objects every row shares:
    - add: row (a0, a1) holds (a0 + b0) % p + ((a1 + b1) % p)*p, b1 outer:
      for each b1 the block of a0, (a0 + b0) % p, shifted by j*p,
      j = (a1 + b1) % p, which runs over a1, a1 + 1, ... cyclically.  So the
      row is the slice at a1*p of the blocks j = 0..p-1 written out twice;
      for k = 1, the slice at a0 of `list(range(p)) * 2`.
    - mul: with g the least code that generates the cyclic group F_q^*,
      exp(i) = g^i is a bijection from Z/(q - 1) onto F_q^*, log its
      inverse, so a*b = exp(log a + log b) = ext[log a + log b] for
      a, b != 0, ext = exp + exp: row a is 0, then ext[log a:] gathered at
      the offsets log b, b = 1..q-1.
    """

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
        digits = list(range(p)) * 2
        if field.k == 1:
            self.add = [digits[a : a + p] for a in range(p)]
        else:
            twice = [[c + j * p for j in (*range(p), *range(p)) for c in digits[a0 : a0 + p]] for a0 in range(p)]
            self.add = [twice[a0][a1 * p : a1 * p + q] for a1 in range(p) for a0 in range(p)]
        mul = lambda a, b: (a[0] * b[0] + r * a[1] * b[1]) % p + (a[0] * b[1] + a[1] * b[0]) % p * p
        for g in range(2, q):  # the least g whose powers meet 1 only at g^(q-1)
            exp = [1]
            while (x := mul(pairs[exp[-1]], pairs[g])) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        ext = exp + exp
        gather = itemgetter(*log[1:])
        self.mul = [[0] * q, *([0, *gather(ext[i : i + q - 1])] for i in log[1:])]
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
