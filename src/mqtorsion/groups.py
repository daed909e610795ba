"""Invariant-factor decompositions of finite abelian groups, and the census
that recovers them one Sylow subgroup at a time, from a list of the
elements or from a lazy collection that draws only the elements a Sylow
span needs.  Each span records one relation per generator as it is built,
and the structure of a span is read from the Smith form of those
relations, with no addition beyond the span's own; a span can be grown by
further generators without being built again."""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce

from .intutil import factorize
from .record import Record


class GroupError(ValueError):
    pass


class CrossCheckError(RuntimeError):
    """A computed answer fails a check it must pass, or disagrees with a
    tabulated one: data-integrity failure."""


class AbGroupStructure(Record):
    """[d1, d2, ...] with d1 | d2 | ... ; the trivial group is []."""

    factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.factors
        if any(d < 2 for d in fs):
            raise GroupError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise GroupError(f"{list(fs)} is not a divisibility chain")

    @classmethod
    def trivial(cls) -> "AbGroupStructure":
        return _from_summands(())

    @classmethod
    def cyclic(cls, n: int) -> "AbGroupStructure":
        return _from_summands((n,) if n > 1 else ())

    @classmethod
    def from_summands(cls, ns) -> "AbGroupStructure":
        """Canonicalize an arbitrary direct sum of Z/n's: one shared
        structure per tuple of summands (`_from_summands`)."""
        return _from_summands(tuple(ns))

    @classmethod
    def from_prime_exponents(cls, prime_exps: dict[int, list[int]]) -> "AbGroupStructure":
        """prime_exps[p] = exponent multiset of the p-Sylow decomposition,
        for primes p; the shared structure of its invariant factors."""
        return _from_summands(_invariant_factors(prime_exps))

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.factors, 1)

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    def rank(self) -> int:
        return len(self.factors)

    def prime_exponents(self) -> dict[int, list[int]]:
        """p -> the sorted exponents of p in the factors, in fresh containers."""
        return {p: list(es) for p, es in self._prime_exponents.items()}

    @cached_property
    def _prime_exponents(self) -> dict[int, tuple[int, ...]]:
        # factored once per structure; cached_property bypasses the record's __setattr__
        out: dict[int, list[int]] = {}
        for d in self.factors:
            for p, e in factorize(d).items():
                out.setdefault(p, []).append(e)
        return {p: tuple(sorted(es)) for p, es in out.items()}

    def ell_part(self, ell: int) -> "AbGroupStructure":
        es = self.prime_exponents().get(ell, [])
        return AbGroupStructure.from_prime_exponents({ell: es})

    def odd_part(self) -> "AbGroupStructure":
        pe = {p: es for p, es in self.prime_exponents().items() if p != 2}
        return AbGroupStructure.from_prime_exponents(pe)

    def embeds_in(self, other: "AbGroupStructure") -> bool:
        """Componentwise prime-power comparison of sorted exponent vectors."""
        mine = self.prime_exponents()
        theirs = other.prime_exponents()
        for p, es in mine.items():
            os = theirs.get(p, [])
            if len(es) > len(os):
                return False
            for a, b in zip(reversed(es), reversed(os)):
                if a > b:
                    return False
        return True

    def direct_sum(self, other: "AbGroupStructure") -> "AbGroupStructure":
        return AbGroupStructure.from_summands(self.factors + other.factors)

    def __str__(self) -> str:
        return "[" + ", ".join(str(d) for d in self.factors) + "]"


def _invariant_factors(prime_exps: dict[int, list[int]]) -> tuple[int, ...]:
    """d1 | d2 | ... from the exponents of each prime: the last factor takes
    the largest exponent of every prime, the one before it the next, and so
    on."""
    cleaned = {p: sorted(e for e in es if e > 0) for p, es in prime_exps.items()}
    cleaned = {p: es for p, es in cleaned.items() if es}
    width = max((len(es) for es in cleaned.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, es in cleaned.items():
            # align largest exponents into the last slot
            j = len(es) - width + i
            if j >= 0:
                d *= p ** es[j]
        factors.append(d)
    return tuple(f for f in factors if f > 1)


@lru_cache(maxsize=256)
def _from_summands(ns: tuple[int, ...]) -> AbGroupStructure:
    """The canonical form of Z/n_1 + Z/n_2 + ..., built once per tuple of
    summands and shared by every caller: `direct_sum`, `trivial`, `cyclic`
    and `from_prime_exponents` go through it too.  A tuple that is not
    already the invariant factors maps to the entry of its invariant
    factors, so equal structures are one instance.  Sharing is sound
    because a structure is immutable (a `Record`): no caller can change
    what another reads, and `prime_exponents` hands out fresh containers.
    The key is the tuple itself, and the structure is a function of it, so
    a hit returns what a fresh build would equal."""
    prime_exps: dict[int, list[int]] = {}
    for n in ns:
        if n == 1:
            continue
        for p, e in factorize(n).items():
            prime_exps.setdefault(p, []).append(e)
    factors = _invariant_factors(prime_exps)
    return AbGroupStructure(factors) if factors == ns else _from_summands(factors)


def structure_from_elements(elements, add, identity, max_rank: int | None = None) -> AbGroupStructure:
    """Invariant factors of a finite abelian group G of order
    n = len(elements), where `elements` is G as a list or as a lazy sized
    collection (see `sylow_subgroups`).

    G is the direct sum of its Sylow subgroups.  For each ell with
    ell^2 | n, S_ell is spanned by `sylow_subgroups` and its ell-exponents
    are read from the Smith form of the relation rows that `subgroup_span`
    recorded while it built S_ell (`Span.structure`), so the census makes
    no addition beyond the spans.  When only ell | n, S_ell is Z/ell and is
    not computed.  Exact, no randomness.
    """
    n = len(elements)
    ell_exps = factorize(n)
    sylow = sylow_subgroups(elements, add, identity, [ell for ell, e in ell_exps.items() if e > 1])
    prime_exps = {
        ell: [1] if e == 1 else sylow[ell].structure().prime_exponents()[ell]
        for ell, e in ell_exps.items()
    }
    out = AbGroupStructure.from_prime_exponents(prime_exps)
    if out.order != n:
        raise GroupError(f"census inconsistent: structure {out} vs order {n}")
    if max_rank is not None and out.rank() > max_rank:
        raise GroupError(f"rank {out.rank()} exceeds bound {max_rank}")
    return out


def _smith_diagonal(rows) -> list[int]:
    """|d_1|, ..., |d_r| of a diagonal form of the full-rank r x r integer
    matrix of the `rows`, padded with zeros: Z^r / rows = sum_k Z/d_k
    (Cohen, GTM 138, section 2.4.3).  Row and column operations over Z keep
    the quotient.  An entry of least absolute value reduces the rest of its
    column, then of its row (a column of the transpose); a remainder left
    is a smaller pivot, so the pivot ends alone in its row and column, which
    then leave the matrix.  No divisibility chain is needed: the caller
    takes ell-exponents, which `AbGroupStructure` sorts."""
    A = [[*row, *[0] * (len(rows) - len(row))] for row in rows]
    out = []
    while A:
        p, i, j = min((abs(a), i, j) for i, row in enumerate(A) for j, a in enumerate(row) if a)
        for _ in range(2):
            piv = A[i]
            A = [row if row is piv else [x - row[j] // piv[j] * y for x, y in zip(row, piv)] for row in A]
            A, i, j = [list(col) for col in zip(*A)], j, i
        if sum(map(bool, A[i])) == 1 and sum(bool(row[j]) for row in A) == 1:
            out.append(p)
            A = [row[:j] + row[j + 1:] for k, row in enumerate(A) if k != i]
    return out


def sylow_subgroups(elements, add, identity, primes=None) -> dict:
    """{ell: S_ell} for every prime ell | n (or every ell | n in `primes`),
    where `elements` is a finite abelian group G of order n = len(elements)
    and S_ell is its ell-Sylow subgroup, as the `Span` that built it.
    `elements` is only iterated, once per ell, never indexed: it may be a
    lazy collection whose `len` is the order n and whose passes cover G,
    such as `hyperjac.ClassStream`, and then only the elements that a span
    draws are ever built.

    With ell^e || n and m = n / ell^e, the map x -> m*x sends G onto S_ell.
    G = S_ell + H with H the elements of order prime to ell; m kills H, since
    the order of H divides m, and m is prime to ell, so it is a unit on
    S_ell.  Hence m*G = m*S_ell = S_ell.  The images m*x of the elements
    but 0 (whose image every span holds), in their given order, are fed to
    `subgroup_span`, which stops drawing them once the span has ell^e
    elements: a subgroup of S_ell with ell^e = |S_ell| elements is S_ell.
    Since the images cover S_ell, the span does reach ell^e elements; if it
    does not, or if it grows past ell^e, the input is not a group of order
    n and GroupError is raised.
    When n = ell^e, m = 1 and the elements are spanned as they are, so that
    the span records its relations.
    """
    n = len(elements)
    double = lambda x: add(x, x)
    out = {}
    for ell, e in factorize(n).items():
        if primes is not None and ell not in primes:
            continue
        q = ell**e
        m = n // q
        images = (scalar_mul(m, x, add, double, identity) for x in elements if x != identity)
        span = subgroup_span(images, add, identity, cap=q, stop_at_cap=True)
        if span is None or len(span) != q:
            raise GroupError(f"the {ell}-Sylow span is not of order {q}: not a group of order {n}")
        out[ell] = span
    return out


def scalar_mul(n, x, add, double, identity):
    """n * x for n >= 0 by the binary expansion of n: bit_length(n) - 1 calls
    of `double` and popcount(n) - 1 calls of `add`."""
    if n == 0:
        return identity
    while not n & 1:
        x = double(x)
        n >>= 1
    out = x
    n >>= 1
    while n:
        x = double(x)
        if n & 1:
            out = add(out, x)
        n >>= 1
    return out


class Span(set):
    """A subgroup as a set, with the generators that opened cosets in
    `subgroup_span`, one relation row per generator,
    sum_j rows[k][j] * gens[j] = 0, row k having k + 1 entries, and the
    `index` of each element in the mixed-radix order of the cosets."""

    __slots__ = ("gens", "rows", "index")

    def structure(self) -> AbGroupStructure:
        """The invariant factors of the span, from the Smith form of its
        relation rows: Z^r / rows is the span (see `subgroup_span`)."""
        return AbGroupStructure.from_summands(_smith_diagonal(self.rows))


def subgroup_span(generators, add, identity, cap: int | None = None, stop_at_cap: bool = False, start=None):
    """The subgroup generated by `generators` in a finite abelian group, as a
    `Span`; None if it has more than `cap` elements.  With `stop_at_cap`, no
    further generator is drawn once the span has exactly `cap` elements.
    With `start`, a `Span` of the same group, the span of `start` and the
    generators is built on it: its elements keep their indices, and its
    generators and rows come first.

    Built by coset extension.  With H the span of the generators taken so
    far and g the next one, <H, g> is the union of the cosets H + k*g for
    0 <= k < m, where m >= 1 is least with m*g in H (it exists, the group
    being finite).  These cosets partition <H, g>: a common element of
    H + i*g and H + j*g, 0 <= i < j < m, would put (j - i)*g in H.  The
    coset H + (k+1)*g is the previous coset plus g, elementwise and in the
    same order, so its first element is (k+1)*g and membership of that one
    element decides whether it is new.  Each element of the span thus costs
    one addition, and the cap is checked before each new coset is built.
    No negation is needed: -g = (ord(g) - 1)*g, so in a finite group the
    additive closure of a set is already a subgroup.

    The relations.  Let g_1, ..., g_r be the generators with m_k > 1.  The
    cosets are appended in mixed-radix order: the element at index i is
    sum_j d_j * g_j, d_1, d_2, ... the digits of i in the radices
    m_1, m_2, ..., least significant first.  The loop for g_k ends at
    m_k * g_k, which lies in H (were it in H + j*g_k, 0 < j < m_k, then
    (m_k - j)*g_k would be in H), at an index i < |H| whose digits give the
    row (-d_1, ..., -d_{k-1}, m_k).  Then Z^r / rows is the span:
    e_k -> g_k maps Z^r onto it; the rows lie in the kernel; and they form
    a lower-triangular matrix with det m_1 * ... * m_r = |span|, so the
    lattice they generate has the index of the kernel, and is the kernel.
    """
    if start is None:
        index, gens, rows = {identity: 0}, [], []
    else:
        index, gens, rows = dict(start.index), list(start.gens), list(start.rows)
    span = list(index)
    for g in generators:
        h, coset, first = len(span), span, g
        while first not in index:
            if cap is not None and len(span) + h > cap:
                return None
            coset = [first, *(add(x, g) for x in coset[1:])]
            index.update(zip(coset, range(len(span), len(span) + h)))
            span.extend(coset)
            first = add(first, g)
        if len(span) > h:
            i, row = index[first], []
            for prev in rows:  # the digits of i, in the radices m_j = prev[-1]
                i, d = divmod(i, prev[-1])
                row.append(-d)
            rows.append((*row, len(span) // h))
            gens.append(g)
        if stop_at_cap and len(span) == cap:
            break
    out = Span(index)
    out.gens, out.rows, out.index = tuple(gens), tuple(rows), index
    return out
