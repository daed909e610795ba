"""Multi-quadratic number fields as F_2-subspaces of the square classes.

A field Q(sqrt(d_1), ..., sqrt(d_n)) is the F_2-span of the classes of the
d_i in Q^*/Q^*2, each class a vector over the coordinates (2, 3, 5, ...,
sign).  The field is stored as the reduced row-echelon basis of that span,
int bitmasks over the coordinates its classes use, which makes equality
canonical, and it is built once per distinct span: equal spans give one
shared instance (`_field`).  Membership, residue degrees and cyclotomic
intersections are read from the basis in O(n) vector operations; the 2^n
classes of the span and the generator products are built together, once,
when a signature or an element first needs them (`_span_tables`).
Elements of the field are exact: 2^n integer numerators over one shared
denominator, in the basis of square roots of products of generators.  The field is also the one place
that maps the basis of a subfield into its own (`embedding`, `lift`,
`project`, `galois_over`).

Everything is immutable and pure.  A field memoises what it derives from
its basis (its span, generator products, subfield of lower generators,
embeddings, residue degrees and cyclotomic intersections), and an element
only its hash.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod

from .intutil import (
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    rational_sqrt,
)


class QFieldError(ValueError):
    pass


def _coord_key(c: int):
    # primes ascending, sign coordinate last
    return (1, 0) if c == -1 else (0, c)


def _gen_key(d: int) -> int:
    # the order of (|d|, d < 0) as one int, which sorts a large span faster
    return 2 * abs(d) + (d < 0)


def _unvector(coords: tuple, v: int) -> int:
    """The squarefree class of the vector v over coords; -1 is the sign."""
    return prod(c for i, c in enumerate(coords) if v >> i & 1)


def _echelon(vectors) -> list[int]:
    """Reduced row echelon form over F_2 of int bitmasks: the pivot of each
    row, its lowest bit, occurs in no other row.  Unique for the span."""
    rows: dict = {}  # pivot bit -> row
    for v in vectors:
        for piv, r in rows.items():
            if v & piv:
                v ^= r
        if v:
            piv = v & -v
            rows = {p: r ^ v if r & piv else r for p, r in rows.items()}
            rows[piv] = v
    return list(rows.values())


def _kernel(rows, phi) -> list[int]:
    """A basis of the vectors of span(rows), for independent rows, that the
    F_2-linear map phi (int bitmasks to int bitmasks) sends to 0.

    Each row is reduced, with its image, against the pivots of the images
    kept so far, each kept image being reduced against those before it; so
    the image of v stays phi(v), and a row whose image reduces to 0 gives
    a kernel vector.  The kept images are a basis of the image, and the
    kernel vectors, one per other row and independent since each holds its
    own row and earlier ones only, number dim span - dim image."""
    pivots: dict = {}  # pivot bit -> (reduced image, vector)
    kernel = []
    for r in rows:
        image, v = phi(r), r
        for piv, (pimage, pv) in pivots.items():
            if image & piv:
                image ^= pimage
                v ^= pv
        if image:
            pivots[image & -image] = (image, v)
        else:
            kernel.append(v)
    return kernel


def _vectors(gens) -> tuple[tuple, list[int]]:
    """(coords, vectors): the coordinates that the generators use, sorted by
    `_coord_key`, and each generator as a bitmask over them.  QFieldError
    for a generator that is 0, 1 or not squarefree."""
    factored = []
    for d in gens:
        if d in (0, 1):
            raise QFieldError(f"generator {d} not allowed")
        if not is_squarefree(d):
            raise QFieldError(f"generator {d} is not squarefree")
        factored.append([*factorize(d), -1] if d < 0 else list(factorize(d)))
    coords = tuple(sorted({c for cs in factored for c in cs}, key=_coord_key))
    bit = {c: 1 << i for i, c in enumerate(coords)}
    return coords, [sum(bit[c] for c in cs) for cs in factored]


def _subspace(coords: tuple, vectors) -> "MultiQuadField":
    """The field spanned by the classes of `vectors`, int bitmasks over
    coords (sorted by `_coord_key`, so a pivot is the least coordinate):
    its reduced echelon rows, over only the coordinates they use, in the
    `_gen_key` order of their classes.  Dropping unused coordinates keeps
    the order of the rest, so the rows stay reduced."""
    rows = _echelon(vectors)
    used = [i for i in range(len(coords)) if any(r >> i & 1 for r in rows)]
    if len(used) < len(coords):
        rows = [sum(1 << j for j, i in enumerate(used) if r >> i & 1) for r in rows]
        coords = tuple(coords[i] for i in used)
    rows.sort(key=lambda r: _gen_key(_unvector(coords, r)))
    return _field(coords, tuple(rows))


def _span_tables(gens: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(products, span) of the field of these generators, built once per
    field on first use, by an element or a signature.  products[mask] is
    the product of the generators on the bits of mask; the class of a mask
    with bit i set is that of the mask without it times gens[i], and the
    class of c*d for squarefree c and d is c*d / gcd(c, d)^2.  The span is
    the classes sorted by `_gen_key`."""
    products, classes = [1], [1]
    for d in gens:
        products += [x * d for x in products]
        classes += [c * d // gcd(c, d) ** 2 for c in classes]
    return tuple(products), tuple(sorted(classes, key=_gen_key))


@lru_cache(maxsize=256)
def _field(coords: tuple, rows: tuple) -> "MultiQuadField":
    """The one instance of the field of these reduced echelon rows over
    these coordinates, shared by every caller, in the way
    `groups._from_summands` shares a group structure.  The key is
    canonical: the coordinates are those that the classes of the span use,
    and the rows are its unique reduced echelon basis in generator order,
    so equal spans give equal keys.  Sharing is sound because a field is
    immutable and its memos are functions of the key; a field built again
    after eviction is equal to, and hashes as, the one it replaces."""
    field = object.__new__(MultiQuadField)
    field._coords, field._rows = coords, rows
    field.gens = tuple(_unvector(coords, r) for r in rows)
    field._hash = hash(field.gens)
    field._level = 8 * prod(c for c in coords if c > 2)
    field._embeddings, field._degrees, field._meets = {}, {}, {}
    return field


class MultiQuadField:
    """Q(sqrt(d) : d in gens).  Q itself is the empty field `QQ_FIELD`.

    `gens` are the classes of the reduced echelon basis, sorted by
    `_gen_key`.  The basis element of a mask is the product of
    sqrt(gens[i]) over its bits i; its square is gen_products[mask], and
    every squarefree d with sqrt(d) in the field is the class of exactly one
    mask (`_mask`).  `MultiQuadField(gens)` returns the shared instance of
    the span (`_field`).
    """

    gens: tuple[int, ...]

    def __new__(cls, gens=()):
        return _subspace(*_vectors(gens))

    @property
    def degree(self) -> int:
        return 2 ** len(self.gens)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, MultiQuadField) and self.gens == other.gens

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which interns;
        # the default would fill in the instance that __new__(cls) returns, Q
        return MultiQuadField, (self.gens,)

    def __repr__(self) -> str:
        if not self.gens:
            return "Q"
        return "Q(" + ", ".join(f"sqrt({d})" for d in self.gens) + ")"

    def _mask(self, d: int) -> int | None:
        """The basis mask whose class is d, or None when sqrt(d) is not in
        the field.  d is read as a vector over the coordinates by trial
        division, which leaves a cofactor other than 1 when d is 0, is not
        squarefree or has a prime that no class uses.  The vector is then
        reduced against the pivots: row i is the only row that holds its
        pivot, so a vector of the span is the sum of the rows whose pivots
        it holds, and its mask has those bits i."""
        v, m = 0, d
        for i, c in enumerate(self._coords):
            if c == -1:
                if m < 0:
                    v, m = v | 1 << i, -m
            elif m % c == 0:
                v, m = v | 1 << i, m // c
        if m != 1:
            return None
        mask = 0
        for i, r in enumerate(self._rows):
            if v & r & -r:
                v ^= r
                mask |= 1 << i
        return None if v else mask

    def contains_sqrt(self, d: int) -> bool:
        """True iff sqrt(d) lies in the field (d squarefree, nonzero); only
        a d outside the field is checked for squarefreeness."""
        if self._mask(d) is not None:
            return True
        if d == 0 or not is_squarefree(d):
            raise QFieldError(f"{d} is not a nonzero squarefree integer")
        return False

    def span(self) -> list[int]:
        """All squarefree d with sqrt(d) in the field, including 1.
        Sorted by (|d|, sign); cardinality 2^n."""
        return list(self._span[1])

    def signature(self) -> tuple[int, ...]:
        """Canonical identity of the field: its full sorted span."""
        return self._span[1]

    @property
    def gen_products(self) -> tuple[int, ...]:
        """The square of the basis element of each mask: the product of the
        generators on its bits."""
        return self._span[0]

    @cached_property
    def _span(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _span_tables(self.gens)

    # -- number-theoretic structure -------------------------------------

    def cyclotomic_intersection(self, n: int) -> "MultiQuadField":
        """The subfield of elements lying in the n-th cyclotomic field.

        Q(sqrt(d)) lies in Q(zeta_n) iff |disc| divides n, where
        disc = d for d = 1 mod 4 and 4d otherwise.  Those d form the
        subspace C spanned by p* = (-1)^((p-1)/2) p for the odd p | n, by -1
        if 4 | n and by 2 if 8 | n: each of these has |disc| dividing n.
        Conversely, let |disc(d)| divide n.  Then the odd primes of d divide
        n, 2 | d only if 8 | n, and d = e * prod p* * (2 if 2 | d) over the
        odd p | d, with e = +-1.  If 4 does not divide n, then 2 does not
        divide d and d = 1 mod 4, so e = 1, since prod p* = 1 mod 4.  So d
        is in C iff its coordinates outside the odd p | n, 2 if 8 | n and
        the sign are 0, and, when 4 does not divide n, its sign is that of
        prod p*: the parity of its primes = 3 mod 4.  The intersection is
        the kernel on the field of the map to those conditions.  They read
        n only through which odd coordinates divide it and whether 4 and 8
        do, so the result is memoised per gcd(n, 8 * prod of the odd
        coordinates)."""
        if n < 1:
            raise QFieldError("n must be positive")
        n = gcd(n, self._level)
        if n not in self._meets:
            outside = twisted = 0
            for i, c in enumerate(self._coords):
                if c == -1 or c % 4 == 3:
                    twisted |= 1 << i
                if c != -1 and n % (8 if c == 2 else c):
                    outside |= 1 << i
            if n % 4 == 0:
                twisted = 0
            sign = 1 << len(self._coords)
            self._meets[n] = _subspace(
                self._coords,
                _kernel(self._rows, lambda v: (v & outside) | sign * ((v & twisted).bit_count() & 1)),
            )
        return self._meets[n]

    def residue_degree(self, p: int) -> tuple[int, bool]:
        """(f, ramified) for any prime of the field above the odd prime p.

        Ramified iff p divides some d in the span, that is, iff p is one of
        its coordinates.  f = 2 iff some d in the span with p not dividing d
        is a non-residue mod p.  Those d form the subspace W on which the
        coordinate of p is 0, and on W the Legendre symbol is a character:
        the class of d*e is d*e/g^2 with g = gcd(d, e) prime to p.  It is
        the product of the symbols of the coordinates of d (-1, 2 and the
        odd primes), so the parity of the coordinates of d that are
        non-residues.  A character is nontrivial iff it is nontrivial on
        some basis vector of W.  Memoised per p."""
        if p == 2 or not _is_odd_prime(p):
            raise QFieldError(f"{p} is not an odd prime")
        if p not in self._degrees:
            at_p = 1 << self._coords.index(p) if p in self._coords else 0
            nonresidues = sum(1 << i for i, c in enumerate(self._coords) if c != p and kronecker(c, p) == -1)
            units = _kernel(self._rows, lambda v: v & at_p)
            f = 2 if any((v & nonresidues).bit_count() & 1 for v in units) else 1
            self._degrees[p] = (f, at_p != 0)
        return self._degrees[p]

    def twist_classes(self) -> list[int]:
        """The full span including the trivial twist 1."""
        return self.span()

    # -- elements --------------------------------------------------------

    def zero(self) -> "TowerElem":
        return _elem(self, (0,) * self.degree, 1)

    def one(self) -> "TowerElem":
        return self.from_rational(1)

    def from_rational(self, x) -> "TowerElem":
        x = Fraction(x)
        return _elem(self, (x.numerator,) + (0,) * (self.degree - 1), x.denominator)

    def sqrt_gen(self, d: int) -> "TowerElem":
        """The element sqrt(d) for d in the span (d squarefree)."""
        mask, scale = self._basis_scale(d)
        nums = [0] * self.degree
        nums[mask] = scale.numerator
        return _elem(self, tuple(nums), scale.denominator)

    def _basis_scale(self, d: int) -> tuple[int, Fraction]:
        """(mask, c) with sqrt(d) = c times the basis element of mask: the
        mask of class d has square prod = d * c^-2, a square times d."""
        if not self.contains_sqrt(d):
            raise QFieldError(f"sqrt({d}) not in {self}")
        mask = self._mask(d)
        return mask, 1 / rational_sqrt(Fraction(self.gen_products[mask], d))

    # -- embeddings of subfields -------------------------------------------

    def embedding(self, K: "MultiQuadField") -> tuple[tuple[int, Fraction], ...]:
        """(mask, c) for each basis mask m of the subfield K: the basis
        element m of K is c times this field's basis element of mask.

        Built one generator of K at a time.  The image of sqrt(g) is
        sqrt_gen(g), and the image of m | bit i is the product of the images
        of m and of bit i, computed as a product of two basis elements:
        sqrt(P_s) * sqrt(P_t) = P_(s & t) * sqrt(P_(s ^ t)) with P the
        generator products.  So the map is multiplicative by construction,
        and injective on masks since the classes of K's masks differ."""
        if K not in self._embeddings:
            image = [(0, Fraction(1))]
            for g in K.gens:
                t, ct = self._basis_scale(g)
                image += [(s ^ t, cs * ct * self.gen_products[s & t]) for s, cs in image]
            self._embeddings[K] = tuple(image)
        return self._embeddings[K]

    def lift(self, v: "TowerElem") -> "TowerElem":
        """v, an element of a subfield, as an element of this field."""
        coords = [Fraction(0)] * self.degree
        for (mask, scale), c in zip(self.embedding(v.field), v.coords):
            coords[mask] = c * scale
        return TowerElem(self, tuple(coords))

    def project(self, v: "TowerElem") -> "TowerElem":
        """The element of this field that lifts to v, an element of a larger
        field: the exact inverse of `lift`.  QFieldError when v does not lie
        in this field."""
        preimage = {mask: (m, scale) for m, (mask, scale) in enumerate(v.field.embedding(self))}
        coords = [Fraction(0)] * self.degree
        for mask, c in enumerate(v.coords):
            if c:
                if mask not in preimage:
                    raise QFieldError(f"{v} does not lie in {self}")
                m, scale = preimage[mask]
                coords[m] = c / scale
        return TowerElem(self, tuple(coords))

    def galois_over(self, K: "MultiQuadField") -> list[tuple[int, ...]]:
        """The nontrivial elements of Gal(self/K) as sign tuples on gens:
        the sign flips that fix the image of every generator of K."""
        n = len(self.gens)
        image = self.embedding(K)
        fixed = [image[1 << i][0] for i in range(len(K.gens))]
        return [
            tuple(-1 if bits >> i & 1 else 1 for i in range(n))
            for bits in range(1, 2**n)
            if all(bin(bits & m).count("1") % 2 == 0 for m in fixed)
        ]

    @cached_property
    def lower(self) -> "MultiQuadField":
        """The subfield of all generators but the last, built once.  The
        rows of a reduced echelon form stay reduced in any subset, so its
        generators are gens[:-1] and its basis is the first half of ours."""
        return _subspace(self._coords, self._rows[:-1])


QQ_FIELD = MultiQuadField(())


def _is_odd_prime(p: int) -> bool:
    return p % 2 == 1 and is_prime(p)


class TowerElem:
    """Element of a MultiQuadField: nums[S] / den multiplies prod_{i in S}
    sqrt(g_i), S running over bitmasks of the generator list.

    The form is canonical, den > 0 and gcd(den, *nums) == 1, so equal
    elements have equal (nums, den); +, - and * normalise with one gcd pass.
    `TowerElem(field, coords)` takes Fraction or int coordinates, `coords`
    gives them back as Fractions, and the cached hash is that of (field,
    coords).  Immutable."""

    __slots__ = ("field", "nums", "den", "_hash")

    def __new__(cls, field: MultiQuadField, coords):
        den = lcm(*(c.denominator for c in coords))
        return _elem(field, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    def __setattr__(self, *_):
        raise AttributeError("TowerElem is immutable")

    __delattr__ = __setattr__

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(n, den) if n else _ZERO for n in self.nums])

    def __eq__(self, other) -> bool:
        if other.__class__ is not TowerElem:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self.field == other.field

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set_hash(self, hash((self.field, self.coords)))
            return self._hash

    def _check(self, other: "TowerElem") -> None:
        if self.field is not other.field and self.field != other.field:
            raise QFieldError("mixed-field arithmetic")

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise QFieldError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def __add__(self, other):
        self._check(other)
        a, b = self.den, other.den
        return _canonical(self.field, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __sub__(self, other):
        self._check(other)
        a, b = self.den, other.den
        return _canonical(self.field, [x * b - y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __neg__(self):
        return _elem(self.field, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        self._check(other)
        products = self.field.gen_products
        out = [0] * len(self.nums)
        nz_other = [(t, c) for t, c in enumerate(other.nums) if c]
        for s, cs in enumerate(self.nums):
            if cs:
                for t, ct in nz_other:
                    out[s ^ t] += cs * ct * products[s & t]
        return _canonical(self.field, out, self.den * other.den)

    def conjugate(self, signs: tuple[int, ...]) -> "TowerElem":
        """Galois conjugation; signs[i] = -1 flips sqrt(gens[i])."""
        if len(signs) != len(self.field.gens) or any(s not in (1, -1) for s in signs):
            raise QFieldError("signs must be a tuple of +-1 per generator")
        flips = sum(1 << i for i, s in enumerate(signs) if s == -1)
        nums = tuple(-n if bin(mask & flips).count("1") % 2 else n for mask, n in enumerate(self.nums))
        return _elem(self.field, nums, self.den)

    def inverse(self) -> "TowerElem":
        if self.is_zero():
            raise QFieldError("division by zero")
        # norm down one generator at a time: a = x + y*sqrt(d_top)
        return _inverse_rec(self)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def scale(self, num: int, den: int = 1) -> "TowerElem":
        """self * num / den for integers num and den != 0: the numerators
        times num over the denominator times den, by one gcd pass."""
        if den < 0:
            num, den = -num, -den
        return _canonical(self.field, [n * num for n in self.nums], self.den * den)

    def norm_to_q(self) -> Fraction:
        """Product of all Galois conjugates."""
        out = self.field.one()
        n = len(self.field.gens)
        for mask in range(2**n):
            signs = tuple(-1 if mask >> i & 1 else 1 for i in range(n))
            out = out * self.conjugate(signs)
        assert out.is_rational()
        return out.rational_value()

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mask, c in enumerate(self.coords):
            if not c:
                continue
            if mask == 0:
                parts.append(str(c))
            else:
                mon = f"sqrt({self.field.gen_products[mask]})"
                parts.append(mon if c == 1 else f"{c}*{mon}")
        return " + ".join(parts)


_ZERO = Fraction(0)
_new = object.__new__
_set_field, _set_nums, _set_den, _set_hash = (getattr(TowerElem, a).__set__ for a in TowerElem.__slots__)


def _elem(field: MultiQuadField, nums: tuple, den: int) -> TowerElem:
    """The element nums/den, which must already be canonical."""
    v = _new(TowerElem)
    _set_field(v, field)
    _set_nums(v, nums)
    _set_den(v, den)
    return v


def _canonical(field: MultiQuadField, nums, den: int) -> TowerElem:
    """The element nums/den for any den > 0, in lowest terms."""
    g = gcd(den, *nums)
    return _elem(field, tuple(x // g for x in nums) if g != 1 else tuple(nums), den // g)


def _split_top(a: TowerElem) -> tuple[TowerElem, TowerElem]:
    """Write a = x + y*sqrt(g_top) with x, y in the subfield of lower gens."""
    sub = a.field.lower
    half = sub.degree
    return _canonical(sub, a.nums[:half], a.den), _canonical(sub, a.nums[half:], a.den)


def _join_top(x: TowerElem, y: TowerElem, field: MultiQuadField) -> TowerElem:
    """x + y*sqrt(g_top), canonical over lcm(x.den, y.den): each prime power
    in the lcm is the full power in the denominator of x or of y, whose
    numerators it does not all divide."""
    den = lcm(x.den, y.den)
    sx, sy = den // x.den, den // y.den
    return _elem(field, tuple(n * sx for n in x.nums) + tuple(n * sy for n in y.nums), den)


def _inverse_rec(a: TowerElem) -> TowerElem:
    if not a.field.gens:
        (n,) = a.nums
        return _elem(a.field, (a.den if n > 0 else -a.den,), abs(n))
    x, y = _split_top(a)
    norm = x * x - (y * y).scale(a.field.gens[-1])
    ninv = _inverse_rec(norm)
    num_x = x * ninv
    num_y = -(y * ninv)
    return _join_top(num_x, num_y, a.field)


def sqrt_in_tower(v: TowerElem) -> TowerElem | None:
    """A square root of v in its own field, or None.

    Recursive over the tower: in F(sqrt(d)), v = x + y*sqrt(d) is a square iff
    either y = 0 and x or x/d is a square below, or norm(v) = m^2 below and one
    of (x+m)/2, (x-m)/2 is a square u^2 below (then v = (u + y/(2u) sqrt(d))^2).
    Branches are explored in a fixed order; the first witness wins.  The
    divisions by the integers d and 2 scale the integer form (`scale`); the
    one inverse of a step is that of u.
    """
    return _sqrt_rec(v)


def _sqrt_rec(v: TowerElem) -> TowerElem | None:
    field = v.field
    if not field.gens:
        (n,), d = v.nums, v.den
        r, s = isqrt(abs(n)), isqrt(d)
        return _elem(field, (r,), s) if r * r == n and s * s == d else None
    x, y = _split_top(v)
    sub = x.field
    d = field.gens[-1]
    if y.is_zero():
        s = _sqrt_rec(x)
        if s is not None:
            return _join_top(s, sub.zero(), field)
        s = _sqrt_rec(x.scale(1, d))
        if s is not None:
            return _join_top(sub.zero(), s, field)
        return None
    norm = x * x - (y * y).scale(d)
    m = _sqrt_rec(norm)
    if m is None:
        return None
    for mm in (m, -m):
        u = _sqrt_rec((x + mm).scale(1, 2))
        if u is not None and not u.is_zero():
            w = (y * u.inverse()).scale(1, 2)
            cand = _join_top(u, w, field)
            if cand * cand == v:
                return cand
    return None


# generators are factored by trial division; this keeps that prompt
MAX_GENERATOR = 10**6
# a result lists the 2^n classes of its field (the `field` key of the
# output); past 2^20 of them the output alone takes tens of megabytes
MAX_GENERATORS = 20
# one integer of a list; int() alone would also take "3_0" and non-ASCII digits
_INTEGER = r"\s*[+-]?[0-9]+\s*"


def parse_integers(literal: str) -> list[int]:
    """The integers of a comma-separated CLI literal, each an ASCII decimal
    integer, optionally signed and padded with whitespace; ValueError for
    anything else."""
    parts = literal.split(",")
    if not all(re.fullmatch(_INTEGER, part, re.ASCII) for part in parts):
        raise ValueError(f"bad integer list {literal!r}")
    return [int(part) for part in parts]  # ValueError past int's digit limit


def parse_field(literal: str) -> MultiQuadField:
    """Parse a CLI/config field literal: "Q" or comma-separated generators
    (`parse_integers`), each at most MAX_GENERATOR in absolute value, whose
    span has at most MAX_GENERATORS independent generators.  The count is
    read from the echelon basis, before any span is built."""
    s = literal.strip()
    if s in ("Q", "q", ""):
        return QQ_FIELD
    try:
        gens = parse_integers(s)
    except ValueError as exc:
        raise QFieldError(f"bad field literal {literal!r}") from exc
    for d in gens:
        if abs(d) > MAX_GENERATOR:
            raise QFieldError(f"generator {d} exceeds {MAX_GENERATOR} in absolute value")
    K = MultiQuadField(gens)
    if len(K.gens) > MAX_GENERATORS:
        raise QFieldError(f"field of {len(K.gens)} independent generators exceeds {MAX_GENERATORS}")
    return K


def all_subfields(gens: tuple[int, ...]) -> list[MultiQuadField]:
    """Every distinct multi-quadratic field spanned by a subset of gens,
    sorted by signature."""
    coords, vecs = _vectors(gens)
    fields = {_subspace(coords, combo) for r in range(len(vecs) + 1) for combo in combinations(vecs, r)}
    return sorted(fields, key=MultiQuadField.signature)
