"""Slow-path references that the tests check production shortcuts against.

- The genus-2 census: J(F_q) listed in full and checked against the zeta
  function.  Production never lists J(F_q): `mwtors.Census` takes the group
  order from the zeta function over F_p and spans each Sylow subgroup from
  the front of `hyperjac.ClassStream`.
- The census by spans alone (`span_census`): every Sylow subgroup S_ell
  with ell^2 | N spanned from the census's classes.  Production reads the
  odd parts of J(F_{p^2}) from the censuses of J(F_p) and of its inert
  twist, and a 2-part that its order and 2-rank fix from the Frobenius
  orbits on the Weierstrass points.
- Curves over Q(sqrt d) reduced at an odd prime, one F_q-table curve per
  embedding of sqrt(d), and #E(F_p) at the primes above a split p by one
  character sum over F_p each (`quadratic_reduction_counts`).  Production
  counts no points of these curves: the shipped point of order n gives
  n | #E(F_p) at every good unramified odd p (`classify.verify_exceptional`),
  and the tests check the counts against the shipped data.
- Low-degree factor extraction on the monic associate
  G(x) = L^(n-1) F(x/L) of the primitive F, split into squarefree parts by
  Euclid over Q (`squarefree_parts`), with multiplicities.  Production
  factors and lifts a squarefree F itself, whose coefficients do not grow
  with the leading coefficient L.  `low_degree_rational_factors` runs
  production on each squarefree part of a rational polynomial that need not
  be squarefree, such as the norm of a kill polynomial.
- The rational-classes lower bound of a genus-2 model, over Q: each class's
  order by repeated addition (`jac_order`), then the span and its census
  over Q.  Production reduces the classes at one good odd prime, spans and
  censuses them in J(F_p), and certifies each kept order over Q by one
  scalar multiple.
- Finite-field elements as objects (`FqElem`), with Euler's criterion and
  Tonelli-Shanks square roots: the arithmetic that the integer-coded
  `ff.Tables` are checked against.
- The torsion of a rational elliptic curve over a multi-quadratic field K
  from the curve alone (`torsion_over_tower`).  Production derive reads the
  odd part from the cached twist torsion of the model, one entry per
  (model, d), and caches the 2-part per (model, K, cap).
- The dense polynomial kernels coefficient by coefficient, one `dom.add`,
  `dom.sub` or `dom.mul` call each (`generic_*`).  Production runs every
  kernel row through the domain's `axpy`.
- The census of a listed group by layers (`layer_census`): the
  multiplicity of 0 in each ell^i * S_ell gives the ell-Sylow partition.
  Production reads each Sylow structure from the Smith form of the
  relations its span recorded.
- N2 = #C(F_{q^2}) of a genus-2 curve by the walk over all q^2 elements of
  F_{q^2} (`count_over_quadratic_ext_walk`), and the classes of the
  conjugate pairs of quadratic points from the same walk, with square roots
  from a table of every square of F_{q^2} (`conjugate_pair_classes_by_walk`),
  both in the generic quadratic extension `QuadExt` of a table field.
  Production reads both from one walk over the monic irreducible quadratics
  u over F_q: the norm of F mod u, and its square root in F_q[t]/(u).
- The inert quadratic twist over F_p listed as the classes of J(F_{p^2})
  that it embeds onto (`inert_twist_classes`), checked against L(-1).
  Production censuses it as a lazy class stream of its own curve over F_p.
- The zeta data of a genus-2 reduction over F_{p^2} counted over F_{p^2}
  (`hyperjac.zeta_order` of the curve over F_{p^2}).  Production reads
  them from L_p by a closed form and counts only N1 over F_{p^2}.
- The `add` and `mul` tables of F_q computed entry by entry
  (`tables_entry_by_entry`).  Production gathers them from shared lists:
  digit blocks for `add`, discrete logarithms for `mul`.
- Integer points on y^2 = F(x) by one `Fraction` evaluation and exact
  rational square root per x (`search_rational_points_by_fractions`), and
  the integer roots of a monic cubic with its critical points bracketed by
  `Fraction` cuts (`integer_cubic_roots_by_fractions`).  Production works
  on integers throughout.
- The 2-primary search over a tower by the affine group law
  (`two_primary_over_tower_affine`): every point of the level below in the
  span of the witnesses is halved, each half checked and each order taken
  by affine doublings, and the tower square root divides by tower inverses
  (`sqrt_in_tower_by_inverses`).  Production halves one point per class of
  H/2H by the explicit halving formula and checks halves and orders without
  an inverse.  `eight_torsion_criterion` reads order 8 from the
  division polynomial instead.
- The roots in Q(sqrt d) of a polynomial over it from the degree <= 2
  rational factors of its norm to Q (`tower_poly_roots_by_norm`).
  Production searches for no roots: each exceptional curve ships a point
  of exact order n, and the tests find its multiples among these roots.
- The x-only division polynomials (`two_torsion_cubic`, `divpoly_f`,
  `kill_poly`), checked against the group law and used to build kernel
  polynomials and test inputs.  Production certifies torsion points by
  their multiples (`ellcurve.has_order`) and never forms them.
- Multiples and orders of a point by the affine group law (`curve_mul`,
  `point_order`).  Production takes them in Jacobian coordinates
  (`ellcurve.has_order`).
- The per-field stages of derive, as they were computed for every field K
  (`reduction_bound_per_field`, `genus1_odd_part_per_field`,
  `genus2_twists_by_filter`, `weierstrass_orbits_per_call`) and the
  canonical form of a direct sum built afresh (`from_summands_uncached`).
  Production computes each once per distinct input it reads: the residue
  degrees at the primes, the field K_S, the polynomial F and the summand
  tuple.
- The questions asked of a multi-quadratic field, answered by enumerating
  its span as frozenset vectors (`enumerated_classes`): membership, residue
  degrees, cyclotomic intersections, the signature, the lower subfield and
  the embedding of a subfield through a map from each class to its mask.
  Production reads each from the reduced echelon basis of the field and
  builds the span only for a signature or an element.
- The roots in K of a rational quadratic with the square root of its
  discriminant taken by the tower recursion (`roots_in_tower_by_tower_sqrt`).
  Production reads it from the basis of K, as a rational multiple of
  `sqrt_gen` of its squarefree class.
- The rational factors of the 2-division cubic x^3 + Ax + B by factor
  extraction (`cubic_factors_by_extraction`).  Production reads them from
  the integer roots of the cubic (`ellcurve._cubic_factors`).
- Helpers that no production path calls: the meet of two structures, the
  odd torsion of a model through the twist decomposition (production
  derive reads it per twist), a functional that avoids two vectors of
  F_2^n, the polynomials of the points of exact order n
  (`primitive_kernel_poly`), and the smallest subfield holding a tower
  element (`support_gens`).
"""

from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations
import math

from dataclasses import dataclass

from mqtorsion import ellcurve, ff, hyperjac, mwtors, poly, qfield
from mqtorsion.intutil import is_prime
from mqtorsion.mwtors import (
    CurveModel,
    ModelError,
    PreconditionError,
    genus1_twist_torsion,
    genus2_rational_torsion_bounds,
    genus2_twist_witness,
    jac_structure,
    meet_many,
    twist_ell_upper,
)
from mqtorsion.qfield import QFieldError
from mqtorsion.ellcurve import (
    BadReduction,
    CurveError,
    EllipticCurve,
    affine_count,
    c4c6_disc,
    _k_rational,
    _two_torsion_field,
    short_model,
    twist_odd_torsion_q,
    two_primary_over_tower,
    two_torsion_roots_in_tower,
)
from mqtorsion.ff import FieldDesc, FieldError
from mqtorsion.groups import AbGroupStructure, scalar_mul, structure_from_elements, subgroup_span
from mqtorsion.hyperjac import JacError, _pair_classes, jac_add, zeta_order
from mqtorsion.intutil import factorize, is_squarefree, kronecker, rational_sqrt, squarefree_part
from mqtorsion.poly import (
    QQ,
    PolyError,
    ResidueDomain,
    TowerDomain,
    _ceil_log2,
    _center,
    _find_good_prime,
    _is_irreducible_low,
    _lift_factors,
    code_domain,
    mp_factor_squarefree,
    pderiv,
    pdivmod,
    peval,
    pgcd,
    pmonic,
    pmul,
    pnormalize,
    psub,
)


class ZetaMismatch(JacError):
    """Enumerated class count disagrees with the zeta oracle."""


def all_classes(C) -> list:
    """Every reduced divisor class of C over F_q, sorted: the whole pair
    stream, with no class listed twice and as many classes as L(1) from the
    zeta oracle, which counts points over F_q and F_{q^2}."""
    classes = [C.identity(), *_pair_classes(C.domain, C.F)]
    nJ = zeta_order(C)[3]
    if len(set(classes)) != len(classes) or len(classes) != nJ:
        raise ZetaMismatch(f"{C}: enumerated {len(classes)} classes, {len(set(classes))} distinct; zeta says {nJ}")
    return sorted(classes)


def span_census(model, p: int, f: int, twisted: bool) -> AbGroupStructure:
    """The structure of `mwtors.Census(model, p, f, twisted)` from the Sylow
    spans of `structure_from_elements` over its classes."""
    cen = mwtors.Census(model, p, f, twisted)
    return structure_from_elements(cen.classes, cen.add, cen.identity, max_rank=4)


def reduce_quadratic_curve(E: EllipticCurve, d: int, p: int, f: int) -> list[EllipticCurve]:
    """Reductions at the primes above odd p of a curve with coefficients in
    Q(sqrt(d)) (TowerElem entries); one curve per embedding of sqrt(d)."""
    if p == 2 or d % p == 0:
        raise BadReduction(p)
    dom = code_domain(ff.make_field(p, f))
    t = dom.tables
    roots = t.sqrt[t.from_int(d)]
    if not roots:
        raise BadReduction(p)
    out = []
    for s in sorted(set(roots)):
        ainvs = []
        try:
            for c in E.a:
                x = c.coords[0]
                y = c.coords[1] if len(c.coords) > 1 else Fraction(0)
                ainvs.append(t.add[_frac_mod(x, t)][t.mul[_frac_mod(y, t)][s]])
        except ZeroDivisionError as exc:
            raise BadReduction(p) from exc
        try:
            out.append(EllipticCurve(dom, ainvs, label=E.label))
        except CurveError as exc:
            raise BadReduction(p) from exc
    return out


def _frac_mod(x: Fraction, t) -> int:
    den = t.from_int(x.denominator)
    if den == 0:
        raise ZeroDivisionError
    return t.mul[t.from_int(x.numerator)][t.inv[den]]


def primitive_ints(f) -> tuple[int, ...]:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of the nonzero rational polynomial f."""
    den = math.lcm(*(Fraction(c).denominator for c in f))
    ints = [int(c * den) for c in f]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return tuple(c // g for c in ints)


def squarefree_parts(f) -> list[tuple[tuple[int, ...], int]]:
    """(S_i, i) with f = prod S_i^i up to a constant, each S_i squarefree
    and a primitive integer tuple, for a rational polynomial f of degree
    >= 1: Euclid over Q."""
    fq = pmonic(QQ, tuple(map(Fraction, f)))
    out = []
    i = 1
    while len(fq) > 1:
        g = pgcd(QQ, fq, pderiv(QQ, fq))
        part = pdivmod(QQ, fq, g)[0]  # product of primes dividing fq
        # primes with multiplicity exactly i: part / gcd(part, g)
        exact = pdivmod(QQ, part, pgcd(QQ, part, g))[0]
        if len(exact) > 1:
            out.append((primitive_ints(exact), i))
        fq = g
        i += 1
    return out


def _sorted_checked(out: list, F) -> tuple:
    """The monic factors out, sorted by degree and then coefficients, after
    checking that their product divides the rational polynomial F."""
    out.sort(key=lambda g: (len(g), g))
    check = reduce(partial(pmul, QQ), out, (Fraction(1),))
    if pdivmod(QQ, tuple(map(Fraction, F)), check)[1]:
        raise PolyError("internal factor extraction inconsistency")
    return tuple(out)


def low_degree_rational_factors(f, max_degree: int) -> tuple:
    """The monic irreducible factors of degree <= max_degree <= 3 of a
    rational polynomial f of degree >= 1 that need not be squarefree, with
    multiplicity: `poly.low_degree_factors` on each squarefree part."""
    out = []
    for S, mult in squarefree_parts(f):
        out += [g for g in poly.low_degree_factors(S) if len(g) <= max_degree + 1] * mult
    return _sorted_checked(out, f)


def low_degree_factors_monic_associate(F: tuple[int, ...], max_degree: int) -> tuple:
    """The factors of degree <= max_degree of the primitive F, with
    multiplicity, found on the monic associate G of F: G is split into
    squarefree parts by Euclid over Q, each part's factors mod its least
    good prime are all lifted to p^k > 2B with B bounded from ||G||_2, and
    each factor h of G maps back to the monic h(Lx)."""
    L = F[-1]
    n = len(F) - 1
    G = tuple(F[i] * L ** (n - 1 - i) for i in range(n)) + (1,)
    out = []
    for S, mult in squarefree_parts(G):
        for h in _monic_factors_squarefree(S, max_degree, _find_good_prime(S)):
            out += [pmonic(QQ, tuple(c * Fraction(L) ** i for i, c in enumerate(h)))] * mult
    return _sorted_checked(out, F)


def _monic_factors_squarefree(S: tuple[int, ...], max_degree: int, p: int) -> list[tuple]:
    """Factors of degree <= max_degree <= 3 of a squarefree monic S, lifted
    from the factorization mod the good prime p."""
    factors = mp_factor_squarefree(pnormalize([c % p for c in S]), p)
    if all(len(fac) - 1 > max_degree for fac in factors):
        return []
    l2 = math.isqrt(sum(c * c for c in S)) + 1
    B = 16 * (l2 + 1)
    k = 1
    while p**k <= 2 * B:
        k += 1
    lifted = _lift_factors(S, factors, p, k)
    M = p ** (1 << _ceil_log2(k))
    ZM = ResidueDomain(M)
    degs = [len(x) - 1 for x in lifted]
    out = []
    rem = tuple(map(Fraction, S))
    seen = set()
    for rsize in (1, 2, 3):
        for combo in combinations(range(len(lifted)), rsize):
            if sum(degs[i] for i in combo) > max_degree:
                continue
            prod = (1,)
            for i in combo:
                prod = pmul(ZM, prod, lifted[i])
            cand = tuple(_center(c, M) for c in prod)
            if cand in seen:
                continue
            seen.add(cand)
            if not _is_irreducible_low(cand):
                continue
            g = tuple(map(Fraction, cand))
            if not pdivmod(QQ, rem, g)[1]:
                out.append(g)
    return out


def quadratic_reduction_counts(ainvs, d: int, p: int) -> list[int]:
    """#E(F_p) at the two primes above a split odd p, for the curve whose
    a-invariants are x_i + y_i sqrt(d) (ainvs: pairs of rationals), one
    count per root s of d mod p in ascending order.

    The prime above p at which sqrt(d) = s maps a_i to x_i + y_i s mod p,
    and the count is 1 + affine_count of the reduced b-invariants.  Raises
    BadReduction when p = 2, p | d, d is not a square mod p, p divides a
    denominator, or the reduced discriminant vanishes."""
    if p == 2 or d % p == 0:
        raise BadReduction(p)
    roots = [s for s in range(1, p) if (s * s - d) % p == 0]
    if not roots or any(c.denominator % p == 0 for pair in ainvs for c in pair):
        raise BadReduction(p)
    red = lambda c: c.numerator * pow(c.denominator, -1, p)
    xy = [(red(x), red(y)) for x, y in ainvs]
    counts = []
    for s in roots:
        a1, a2, a3, a4, a6 = ((x + y * s) % p for x, y in xy)
        if c4c6_disc((a1, a2, a3, a4, a6))[2] % p == 0:
            raise BadReduction(p)
        counts.append(1 + affine_count(a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6, p))
    return counts


def split_prime_counts(curve) -> dict[int, list[int]]:
    """{p: counts} for a shipped exceptional curve over Q(sqrt d): #E(F_p)
    at both primes above each good split prime p < 200
    (`quadratic_reduction_counts`), the odd p prime to d with d a square
    mod p that divide neither a denominator of the a-invariants nor the
    norm of the discriminant."""
    E, d = curve.curve(), curve.base_d
    disc_norm = E.discriminant().norm_to_q()
    bad = set(factorize(disc_norm.numerator * disc_norm.denominator))
    for c in E.a:
        for co in c.coords:
            bad |= set(factorize(co.denominator))
    return {
        p: quadratic_reduction_counts(curve.ainvs, d, p)
        for p in range(3, 200)
        if is_prime(p) and p not in bad and d % p and kronecker(d, p) == 1
    }


def _trim(dom, cs):
    while cs and cs[-1] == dom.zero:
        cs.pop()
    return tuple(cs)


def generic_padd(dom, op, f, g):
    """f op g for op = dom.add or dom.sub, one call per coefficient."""
    n = max(len(f), len(g))
    pad = lambda h: list(h) + [dom.zero] * (n - len(h))
    return _trim(dom, [op(a, b) for a, b in zip(pad(f), pad(g))])


def generic_pmul(dom, f, g):
    if not f or not g:
        return ()
    out = [dom.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = dom.add(out[i + j], dom.mul(a, b))
    return _trim(dom, out)


def generic_pdivmod(dom, f, g):
    q = [dom.zero] * max(0, len(f) - len(g) + 1)
    r = list(f)
    inv_lc = dom.div(dom.one, g[-1])
    while len(r) >= len(g):
        if r[-1] == dom.zero:
            r.pop()
            continue
        c = dom.mul(r[-1], inv_lc)
        k = len(r) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] = dom.sub(r[k + i], dom.mul(c, b))
        r.pop()
    return _trim(dom, q), _trim(dom, r)


def generic_pmonic(dom, f):
    inv = dom.div(dom.one, f[-1])
    return _trim(dom, [dom.mul(inv, c) for c in f])


def generic_pgcdext(dom, f, g):
    """(d, s, t) with s*f + t*g = d monic, by Euclid on the kernels above."""
    r0, r1 = f, g
    s0, s1 = (dom.one,), ()
    t0, t1 = (), (dom.one,)
    while r1:
        q, r = generic_pdivmod(dom, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, generic_padd(dom, dom.sub, s0, generic_pmul(dom, q, s1))
        t0, t1 = t1, generic_padd(dom, dom.sub, t0, generic_pmul(dom, q, t1))
    inv = (dom.div(dom.one, r0[-1]),)
    return generic_pmonic(dom, r0), generic_pmul(dom, inv, s0), generic_pmul(dom, inv, t0)


def layer_census(elements, add, identity) -> AbGroupStructure:
    """The structure of a finite abelian group listed in full: each Sylow
    subgroup S_ell = {x : ell^e * x = 0} is found by brute force and its
    partition read by `sylow_partition`."""
    n = len(elements)
    double = lambda x: add(x, x)
    prime_exps = {}
    for ell, e in factorize(n).items():
        S = [x for x in elements if scalar_mul(ell**e, x, add, double, identity) == identity]
        prime_exps[ell] = sylow_partition(S, ell, add, identity)
    return AbGroupStructure.from_prime_exponents(prime_exps)


def sylow_partition(S, ell, add, identity) -> list[int]:
    """The exponents lam_j of S = sum_j Z/ell^lam_j, by the ell-layer count."""
    double = {x: add(x, x) for x in S}.__getitem__
    counts = [1]  # |S[ell^0]|
    layer: dict = {}
    for x in S:
        layer[x] = layer.get(x, 0) + 1
    while counts[-1] < len(S):
        nxt: dict = {}
        for x, c in layer.items():
            y = scalar_mul(ell, x, add, double, identity)
            nxt[y] = nxt.get(y, 0) + c
        layer = nxt
        counts.append(layer.get(identity, 0))
        if counts[-1] == counts[-2]:
            break
    # counts[i] = ell^{sum_j min(i, lam_j)}; differences give the partition
    ranks = []
    for i in range(1, len(counts)):
        ratio = counts[i] // counts[i - 1]
        r = 0
        while ratio > 1:
            ratio //= ell
            r += 1
        ranks.append(r)  # number of lam_j >= i
    partition: list[int] = []
    for i, r in enumerate(ranks, start=1):
        while len(partition) < r:
            partition.append(0)
        for j in range(r):
            partition[j] = i
    return sorted(partition)


def count_over_quadratic_ext_walk(C) -> int:
    """N2 = #C(F_{q^2}) by evaluating F at every element of F_{q^2}, with
    squares decided by the root table of `QuadExt`."""
    ext = quadratic_extension(C.domain.field)
    coeffs = [ext.embed(c) for c in C.F]
    count = 2 if C.degree == 6 else 1  # lc is always a square in F_{q^2}
    for x in ext.elements():
        acc = ext.zero
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        if acc == ext.zero:
            count += 1
        elif ext.sqrt(acc) is not None:
            count += 2
    return count


def jac_order(C, D, bound: int = 100000) -> int:
    """The order of D by repeated addition; JacError above `bound`."""
    acc = D
    ident = C.identity()
    for k in range(1, bound + 1):
        if acc == ident:
            return k
        acc = jac_add(C, acc, D)
    raise JacError("order exceeds bound")


def genus2_rational_torsion_bounds_over_q(model, primes: tuple = ()):
    """`mwtors.genus2_rational_torsion_bounds` computed over Q: the classes
    of finite order up to the exponent of the reduction bound, their span
    and its census, all with rational Cantor steps."""
    C = hyperjac.HyperCurve.from_ints(QQ, model.f_coeffs, model.label)
    upper = mwtors.reduction_bound(model, qfield.QQ_FIELD, primes or model.primes)
    gens = hyperjac.classes_from_rational_points(C, hyperjac.search_rational_points(model.f_coeffs, 40))
    good = []
    for D in gens:
        try:
            k = jac_order(C, D, upper.exponent)
        except JacError:
            continue
        if k > 1:
            good.append(D)
    add = lambda a, b: jac_add(C, a, b)
    span = subgroup_span(good, add, C.identity(), cap=upper.order)
    if span is None:
        raise mwtors.CrossCheckError(f"{model.label}: rational span exceeds reduction bound")
    return structure_from_elements(sorted(span), add, C.identity()), upper


def torsion_over_tower(E: EllipticCurve, K, cap: int) -> AbGroupStructure:
    """Exact torsion of a rational curve over the multi-quadratic field K,
    given a proven bound `cap` on the exponent of E(K)[2^oo] (see
    `two_primary_over_tower`): odd part through the twist decomposition,
    E(K)[odd] = sum over the twist classes d of K of E^d(Q)[odd] (each
    settled by `twist_odd_torsion_q`: the reduction screen, else
    Nagell-Lutz), 2-part through the tower machinery up to the cap."""
    A, B = short_model(E)
    odd = AbGroupStructure.trivial()
    for d in K.twist_classes():
        odd = odd.direct_sum(twist_odd_torsion_q(E, d))
    two, _ = two_primary_over_tower(A, B, K, cap)
    return odd.direct_sum(two)


# ---------------------------------------------------------------------------
# 2-primary torsion over a tower by the affine group law
# ---------------------------------------------------------------------------


def sqrt_in_tower_by_inverses(v):
    """`qfield.sqrt_in_tower` with its divisions by d, 2 and 2u as
    multiplications by tower inverses: the same branches in the same order,
    so the same root."""
    field = v.field
    if not field.gens:
        return qfield.sqrt_in_tower(v)
    x, y = qfield._split_top(v)
    sub = x.field
    d = field.gens[-1]
    dd = sub.from_rational(d)
    if y.is_zero():
        s = sqrt_in_tower_by_inverses(x)
        if s is not None:
            return qfield._join_top(s, sub.zero(), field)
        s = sqrt_in_tower_by_inverses(x / dd)
        if s is not None:
            return qfield._join_top(sub.zero(), s, field)
        return None
    m = sqrt_in_tower_by_inverses(x * x - dd * (y * y))
    if m is None:
        return None
    two = sub.from_rational(2)
    for mm in (m, -m):
        u = sqrt_in_tower_by_inverses((x + mm) / two)
        if u is not None and not u.is_zero():
            cand = qfield._join_top(u, y / (two * u), field)
            if cand * cand == v:
                return cand
    return None


def tower_curve_affine(A: int, B: int, K) -> EllipticCurve:
    """y^2 = x^3 + Ax + B over K, its discriminant checked in the tower."""
    dom = TowerDomain(K)
    return EllipticCurve(dom, [dom.from_int(n) for n in (0, 0, 0, A, B)])


def halving_witness_affine(E: EllipticCurve, t1):
    """`ellcurve.halving_witness`, checked by the affine doubling E.mul."""
    A, B = E.a[3], E.a[4]
    m = qfield.sqrt_in_tower(t1 * t1 + t1 * t1 + t1 * t1 + A)
    if m is None:
        return None
    for mm in (m, -m):
        x = t1 + mm
        y = qfield.sqrt_in_tower(x * x * x + A * x + B)
        if y is not None:
            P = (x, y)
            assert E.on_curve(P) and curve_mul(E, 2, P) == (t1, E.domain.K.zero())
            return P
    return None


def halves_over_tower_affine(E: EllipticCurve, e_roots: list, P) -> list:
    """The points Q over L with 2Q = P, one per x-coordinate: each
    x = x0 + (+-s1)(+-s2) + (+-s2)(+-s3) + (+-s3)(+-s1) with s_i^2 = x0 - e_i,
    y a square root of the cubic at x, and the sign of y chosen by E.mul."""
    A, B = E.a[3], E.a[4]
    x0, _ = P
    ss = []
    for e in e_roots:
        s = qfield.sqrt_in_tower(x0 - e)
        if s is None:
            return []
        ss.append(s)
    s1, s2, s3 = ss
    out, seen_x = [], []
    for b in (s2, -s2):
        for c in (s3, -s3):
            x = x0 + s1 * b + b * c + c * s1
            if x in seen_x:
                continue
            seen_x.append(x)
            y = qfield.sqrt_in_tower(x * x * x + A * x + B)
            if y is None:
                continue
            for Q in ((x, y), (x, -y)):
                if curve_mul(E, 2, Q) == P:
                    out.append(Q)
                    break
    return out


def order_reps_span(E: EllipticCurve, points, order: int) -> list:
    """The points of exact `order` in the span of `points` (of 2-power
    order), one per +-pair, each order found by affine doublings."""
    span = subgroup_span(points, E.add, None, cap=512)
    reps, seen = [], set()
    for P in span:
        if P is None or P in seen:
            continue
        n, Q = 1, P
        while Q is not None:
            if n == 64:
                raise CurveError("point order exceeds bound 64")
            n, Q = 2 * n, E.add(Q, Q)
        if n == order:
            reps.append(P)
            seen.update((P, E.neg(P)))
    return reps


def two_primary_over_tower_affine(A: int, B: int, K, cap: int):
    """(structure, witnesses) of `ellcurve.two_primary_over_tower` by the
    affine group law: at each level every point of the level below in the
    span of the witnesses is halved, and each order is checked by E.mul.
    It halves only points of the top order, so the second invariant factor
    stays at most 4 and Z/8 x Z/8 reads Z/4 x Z/8; no builtin model reaches
    that group over the matrix fields."""
    roots = two_torsion_roots_in_tower(A, B, K) if cap >= 2 else []
    if not roots:
        return AbGroupStructure.trivial(), []
    witnesses = [(r, K.zero()) for r in roots]
    halvable = []
    if cap >= 4:
        EK = tower_curve_affine(A, B, K)
        halvable = [P4 for P4 in (halving_witness_affine(EK, t1) for t1 in roots) if P4 is not None]
    witnesses.extend(halvable)
    top = 4 if halvable else 2
    if halvable and cap >= 8:
        L, e_roots = _two_torsion_field(A, B, K)
        galois = L.galois_over(K)
        EL = tower_curve_affine(A, B, L)
        level = 8
        while level <= cap:
            found = None
            for P in order_reps_span(EK, witnesses, level // 2):
                for Q in halves_over_tower_affine(EL, e_roots, (L.lift(P[0]), L.lift(P[1]))):
                    if _k_rational(galois, Q[0]) and _k_rational(galois, Q[1]):
                        found = (K.project(Q[0]), K.project(Q[1]))
                        break
                if found:
                    break
            if found is None:
                break
            assert EK.on_curve(found)
            assert curve_mul(EK, level // 2, found) is not None and curve_mul(EK, level, found) is None
            witnesses.append(found)
            top = level
            level *= 2
    if len(roots) == 1:
        return AbGroupStructure.cyclic(top), witnesses
    second = 4 if len(halvable) == 3 else 2
    exps = sorted([second.bit_length() - 1, top.bit_length() - 1])
    return AbGroupStructure.from_prime_exponents({2: exps}), witnesses


def eight_torsion_criterion(model: CurveModel, K):
    """(has_8_torsion, witness) for a genus-1 model: scans the degree <= 2
    rational factors of the exact-order-8 kernel polynomial for a root a in
    K with the cubic value a square in K; the witness records the root, the
    point, and the quadratic subfield that supplied it."""
    if model.genus != 1:
        raise ModelError("criterion applies to genus-1 models")
    A, B = ellcurve.short_model(model.elliptic())
    kernel = primitive_kernel_poly(model.elliptic(), 8)
    for g in low_degree_rational_factors(kernel, 2):
        d = poly.splitting_quadratic_field(g) if len(g) == 3 else 1
        if d != 1 and not K.contains_sqrt(d):
            continue
        for a in ellcurve._roots_in_tower(g, d, K):
            val = a * a * a + K.from_rational(A) * a + K.from_rational(B)
            y = qfield.sqrt_in_tower(val)
            if y is None:
                continue
            E = ellcurve.tower_short_curve(A, B, K)
            P = (a, y)
            assert E.on_curve(P)
            assert curve_mul(E, 4, P) is not None and curve_mul(E, 8, P) is None
            y_field = support_gens(y)
            return True, {
                "factor": list(g),
                "splitting_d": d,
                "sqrt_subfield": y_field.signature(),
                "order": 8,
            }
    return False, None


def group_meet(
    A: AbGroupStructure,
    B: AbGroupStructure,
    exclude_a: frozenset | set = frozenset(),
    exclude_b: frozenset | set = frozenset(),
) -> AbGroupStructure:
    """Prime-by-prime componentwise minimum of sorted exponent vectors,
    skipping a side at its own residue characteristic."""
    return meet_many([(A, exclude_a), (B, exclude_b)])


def twist_odd_torsion(model: CurveModel, K, ell: int):
    """(structure, closed) for J(K)[ell^infinity], ell odd, through the twist
    decomposition: the direct sum over the twist classes of K of the
    ell-primary torsion of each twist over Q.

    Genus-1 summands are exact (reduction screen, else Nagell-Lutz).
    Genus-2 summands pair a reduction upper bound with an explicit
    divisor-witness lower bound and the result is flagged open when any
    summand fails to close."""
    if ell == 2 or not is_prime(ell):
        raise ModelError("ell must be an odd prime")
    if model.base_d is not None and not K.contains_sqrt(model.base_d):
        raise PreconditionError(f"{model.label} twists decompose over {model.base_field()}")
    total = AbGroupStructure.trivial()
    closed = True
    primes = model.primes or (3, 5)
    for d in K.twist_classes():
        if model.genus == 1:
            total = total.direct_sum(genus1_twist_torsion(model, d).ell_part(ell))
            continue
        if d == 1:
            low, up = genus2_rational_torsion_bounds(model, primes)
            low, up = low.ell_part(ell), up.ell_part(ell)
        else:
            up = twist_ell_upper(model, d, ell, primes)
            low = AbGroupStructure.trivial()
            if up is None:
                closed = False
                continue
            if up.order > 1 and genus2_twist_witness(model, d, ell) is not None:
                low = AbGroupStructure.cyclic(ell)
        total = total.direct_sum(low)
        if low != up:
            closed = False
    return total, closed


def hyperplane_avoiding(n: int, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """A linear functional phi over F_2 with phi(x) = phi(y) = 1.

    Its kernel is a hyperplane through 0 missing both x and y; exists for any
    distinct nonzero x, y in F_2^n, n >= 2.
    """
    if n < 2 or len(x) != n or len(y) != n:
        raise QFieldError("need n >= 2 and vectors of length n")
    x = tuple(c & 1 for c in x)
    y = tuple(c & 1 for c in y)
    if not any(x) or not any(y):
        raise QFieldError("vectors must be nonzero")
    if x == y:
        raise QFieldError("vectors must be distinct")
    phi = [0] * n
    shared = [j for j in range(n) if x[j] and y[j]]
    if shared:
        phi[shared[0]] = 1
    else:
        phi[next(j for j in range(n) if x[j])] = 1
        phi[next(j for j in range(n) if y[j])] = 1
    return tuple(phi)


def curve_mul(E: EllipticCurve, n: int, P):
    """n * P for n >= 0 by the affine group law."""
    return scalar_mul(n, P, E.add, lambda Q: E.add(Q, Q), ellcurve.INF)


def point_order(E: EllipticCurve, P, bound: int = 100000) -> int:
    """The order of P by repeated affine addition; CurveError past bound."""
    acc = P
    for n in range(1, bound + 1):
        if acc is ellcurve.INF:
            return n
        acc = E.add(acc, P)
    raise CurveError(f"point order exceeds bound {bound}")


# ---------------------------------------------------------------------------
# Division polynomials (x-only) from the b-invariants of a long Weierstrass
# model.  For odd n the polynomial f_n below is psi_n itself; for even n it is
# psi_n / psi_2, and psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 is carried as T.
# ---------------------------------------------------------------------------


def two_torsion_cubic(b, dom=QQ) -> tuple:
    """T = psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 over dom."""
    b2, b4, b6, b8 = b
    return pnormalize((b6, dom.add(b4, b4), b2, dom.from_int(4)))


def divpoly_f(dom, b, n: int) -> tuple:
    """f_n over dom from b = (b2, b4, b6, b8) in dom, by the doubling
    recursion, memoised for the length of one call."""
    b2, b4, b6, b8 = b
    num = dom.from_int
    T = two_torsion_cubic(b, dom)
    memo = {
        0: (),
        1: (dom.one,),
        2: (dom.one,),
        3: (b8, dom.mul(num(3), b6), dom.mul(num(3), b4), b2, num(3)),
        4: (
            dom.sub(dom.mul(b4, b8), dom.mul(b6, b6)),
            dom.sub(dom.mul(b2, b8), dom.mul(b4, b6)),
            dom.mul(num(10), b8),
            dom.mul(num(10), b6),
            dom.mul(num(5), b4),
            b2,
            num(2),
        ),
    }
    mul = lambda f, g: pmul(dom, f, g)

    def f(k):
        if k in memo:
            return memo[k]
        m, rem = divmod(k, 2)
        if rem:  # k = 2m + 1
            a = mul(f(m + 2), mul(f(m), mul(f(m), f(m))))
            c = mul(f(m - 1), mul(f(m + 1), mul(f(m + 1), f(m + 1))))
            T2 = mul(T, T)
            out = psub(dom, mul(a, T2), c) if m % 2 == 0 else psub(dom, a, mul(c, T2))
        else:  # k = 2m
            inner = psub(
                dom,
                mul(f(m + 2), mul(f(m - 1), f(m - 1))),
                mul(f(m - 2), mul(f(m + 1), f(m + 1))),
            )
            out = mul(f(m), inner)
        memo[k] = out
        return out

    return f(n)


def kill_poly(b, n: int, dom=QQ) -> tuple:
    """Roots are exactly the x-coordinates of the nonzero points killed by n."""
    if n < 1:
        raise PolyError("n must be positive")
    f = divpoly_f(dom, b, n)
    if n % 2 == 0:
        f = pmul(dom, two_torsion_cubic(b, dom), f)
    return pnormalize(f)


@lru_cache(maxsize=256)
def primitive_kernel_poly_b(b, n: int) -> tuple:
    """Roots are the x-coordinates of points of exact order n (n >= 2)."""
    if n < 2:
        raise PolyError("n must be >= 2")
    out = kill_poly(b, n)
    for d in range(2, n):
        if n % d == 0:
            out, r = pdivmod(QQ, out, primitive_kernel_poly_b(b, d))
            assert not r
    return out


def primitive_kernel_poly(E: EllipticCurve, n: int) -> tuple:
    """Roots are the x-coordinates of the points of exact order n >= 2 on
    the normalized short model."""
    A, B = short_model(E)
    return primitive_kernel_poly_b(tuple(Fraction(v) for v in (0, 2 * A, 4 * B, -A * A)), n)


def support_gens(v) -> qfield.MultiQuadField:
    """Smallest multi-quadratic subfield containing the tower element v."""
    products = v.field.gen_products
    return qfield.MultiQuadField(squarefree_part(products[mask]) for mask, c in enumerate(v.nums) if c and mask)


# ---------------------------------------------------------------------------
# Roots over a quadratic field from the norm
# ---------------------------------------------------------------------------


def tower_poly_norm(coeffs, K) -> tuple:
    """Norm of a polynomial over a quadratic field down to Q."""
    assert len(K.gens) == 1
    conj = [c.conjugate((-1,)) for c in coeffs]
    prod = pmul(TowerDomain(K), tuple(coeffs), tuple(conj))
    return pnormalize([c.rational_value() for c in prod])


def tower_poly_roots_by_norm(coeffs, K) -> list:
    """All roots in the quadratic field K of a polynomial with coefficients
    in K: a root has a minimal polynomial over Q of degree <= 2 that divides
    the norm, so it is a root in K of one of the norm's monic factors of
    degree <= 2, kept if the polynomial vanishes there."""
    dom = TowerDomain(K)
    roots = []
    for g in low_degree_rational_factors(tower_poly_norm(coeffs, K), 2):
        d = poly.splitting_quadratic_field(g) if len(g) == 3 else 1
        for a in ellcurve._roots_in_tower(g, d, K):
            if poly.peval(dom, tuple(coeffs), a).is_zero() and a not in roots:
                roots.append(a)
    return roots


# ---------------------------------------------------------------------------
# Finite-field elements as objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FqElem:
    """Element c0 + c1*t of F_{p^k} (c1 = 0 when k = 1), t^2 = field.r."""

    field: FieldDesc
    c0: int
    c1: int

    def _check(self, other: "FqElem") -> None:
        if not isinstance(other, FqElem) or other.field != self.field:
            raise FieldError("mixed-field arithmetic")

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        p = self.field.p
        return FqElem(self.field, (self.c0 + other.c0) % p, (self.c1 + other.c1) % p)

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        p = self.field.p
        return FqElem(self.field, (self.c0 - other.c0) % p, (self.c1 - other.c1) % p)

    def __neg__(self) -> "FqElem":
        p = self.field.p
        return FqElem(self.field, -self.c0 % p, -self.c1 % p)

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        p = self.field.p
        if self.field.k == 1:
            return FqElem(self.field, self.c0 * other.c0 % p, 0)
        r = self.field.r % p
        c0 = (self.c0 * other.c0 + r * self.c1 * other.c1) % p
        c1 = (self.c0 * other.c1 + self.c1 * other.c0) % p
        return FqElem(self.field, c0, c1)

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise FieldError("division by zero")
        p = self.field.p
        if self.field.k == 1:
            return FqElem(self.field, pow(self.c0, p - 2, p), 0)
        r = self.field.r % p
        norm = (self.c0 * self.c0 - r * self.c1 * self.c1) % p
        ninv = pow(norm, p - 2, p)
        return FqElem(self.field, self.c0 * ninv % p, -self.c1 * ninv % p)

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElem":
        if n < 0:
            return self.inverse() ** (-n)
        out = one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @property
    def code(self) -> int:
        """The integer code c0 + c1*p of the element in `ff.Tables`."""
        return self.c0 + self.c1 * self.field.p


def zero(field: FieldDesc) -> FqElem:
    return FqElem(field, 0, 0)


def one(field: FieldDesc) -> FqElem:
    return FqElem(field, 1, 0)


def from_int(field: FieldDesc, n: int) -> FqElem:
    return FqElem(field, n % field.p, 0)


def elements(field: FieldDesc):
    """All p^k elements, c1-major then c0: the order of the table codes."""
    for c1 in range(field.p if field.k == 2 else 1):
        for c0 in range(field.p):
            yield FqElem(field, c0, c1)


def is_square(a: FqElem) -> bool:
    """Euler criterion in F_p; norm-then-base test in F_{p^2}."""
    if a.is_zero():
        return True
    p = a.field.p
    if a.field.k == 1:
        return pow(a.c0, (p - 1) // 2, p) == 1
    r = a.field.r % p
    norm = (a.c0 * a.c0 - r * a.c1 * a.c1) % p
    return pow(norm, (p - 1) // 2, p) == 1


def _sqrt_mod_p(a: int, p: int) -> int | None:
    """Tonelli-Shanks; returns one root or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, rt = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, rt = t * c % p, rt * b % p
    return rt


def sqrt(a: FqElem) -> tuple[FqElem, FqElem] | None:
    """Both square roots (s, -s) of a, or None; s has the smaller code."""
    field = a.field
    p = field.p
    if a.is_zero():
        return (zero(field), zero(field))
    if field.k == 1:
        s = _sqrt_mod_p(a.c0, p)
        if s is None:
            return None
        root = FqElem(field, s, 0)
    else:
        r = field.r % p
        if a.c1 == 0:
            s = _sqrt_mod_p(a.c0, p)
            if s is not None:
                root = FqElem(field, s, 0)
            else:
                # a = (w t)^2 with w^2 = a / r; a, r both non-residues
                w = _sqrt_mod_p(a.c0 * pow(r, p - 2, p) % p, p)
                if w is None:
                    return None
                root = FqElem(field, 0, w)
        else:
            norm = (a.c0 * a.c0 - r * a.c1 * a.c1) % p
            n = _sqrt_mod_p(norm, p)
            if n is None:
                return None
            inv2 = pow(2, p - 2, p)
            root = None
            for nn in (n, (-n) % p):
                x2 = (a.c0 + nn) * inv2 % p
                x = _sqrt_mod_p(x2, p)
                if x is not None and x != 0:
                    y = a.c1 * inv2 % p * pow(x, p - 2, p) % p
                    root = FqElem(field, x, y)
                    break
            if root is None:
                return None
    neg = -root
    if neg.code < root.code:
        root, neg = neg, root
    assert (root * root) == a
    return (root, neg)


# ---------------------------------------------------------------------------
# The per-field derive stages that production keys on what they read.  None
# of them reads a cache that the stage it is checked against fills.
# ---------------------------------------------------------------------------


def from_summands_uncached(ns) -> AbGroupStructure:
    """The canonical form of a direct sum of Z/n's, built afresh on every
    call, with no shared structure (production interns one per summand
    tuple): the k-th largest invariant factor is the product over the
    primes p of p to the k-th largest exponent of p."""
    prime_exps: dict[int, list[int]] = {}
    for n in ns:
        if n == 1:
            continue
        for p, e in factorize(n).items():
            prime_exps.setdefault(p, []).append(e)
    factors = [1] * max(map(len, prime_exps.values()), default=0)
    for p, es in prime_exps.items():
        for k, e in enumerate(sorted(es, reverse=True), 1):
            factors[-k] *= p**e
    return AbGroupStructure(tuple(factors))


def reduction_bound_per_field(model: CurveModel, K, primes) -> AbGroupStructure:
    """The meet of the reductions at the primes, with the residue degrees
    taken from K on every call (production meets once per degrees)."""
    if not primes:
        raise ModelError("empty prime list")
    sides = []
    for p in primes:
        f, _ = K.residue_degree(p)
        sides.append((jac_structure(model, p, f), frozenset({p})))
    return meet_many(sides)


def genus1_odd_part_per_field(model: CurveModel, K) -> AbGroupStructure:
    """J(K)[odd] of a genus-1 model as the direct sum, one twist class of K
    at a time, of the odd torsion of each twist (production sums once per
    (model, K))."""
    odd = AbGroupStructure.trivial()
    for d in K.twist_classes():
        odd = from_summands_uncached(odd.factors + genus1_twist_torsion(model, d).factors)
    return odd


def genus2_twists_by_filter(K, K_S) -> list[int]:
    """The twist classes of K with sqrt(d) in K_S (production lists the
    classes of K_S)."""
    return [d for d in K.twist_classes() if K_S.contains_sqrt(d)]


def weierstrass_orbits_per_call(F, K) -> tuple[list[int], bool]:
    """`hyperjac.weierstrass_orbits` with the integer F checked, factored
    and divided out over Q on every call (production factors each F once)."""
    F = pnormalize(F)
    FQ = tuple(map(Fraction, F))
    deg = len(F) - 1
    if deg not in (3, 4, 5, 6):
        raise JacError("degree must be in 3..6")
    if len(pgcd(QQ, FQ, pderiv(QQ, FQ))) > 1:
        raise JacError("F must be squarefree")
    factors = poly.low_degree_factors(F)
    cof = FQ
    for g in factors:
        cof, r = pdivmod(QQ, cof, g)
        assert not r
    orbits = []
    exact_factors = True
    for g in factors:
        if len(g) == 3:
            d = poly.splitting_quadratic_field(g)
            orbits += [1, 1] if d == 1 or K.contains_sqrt(d) else [2]
        else:
            orbits.append(len(g) - 1)
    if len(cof) > 1:
        orbits.append(len(cof) - 1)
        exact_factors = len(cof) - 1 not in (4, 6)
    if deg % 2 == 1:
        orbits.append(1)
    assert sum(orbits) == (deg if deg % 2 == 0 else deg + 1)
    return sorted(orbits), exact_factors and 1 in orbits


# ---------------------------------------------------------------------------
# Finite fields: tables entry by entry, and the generic quadratic extension
# ---------------------------------------------------------------------------


def tables_entry_by_entry(field: FieldDesc) -> tuple[list, list]:
    """(add, mul) of `ff.Tables`, one expression per entry on the digits
    (c0, c1) of the codes, with t^2 = r."""
    q, p = field.order, field.p
    r = field.r % p if field.k == 2 else 0
    pairs = [(i % p, i // p) for i in range(q)]
    add = [[(a0 + b0) % p + (a1 + b1) % p * p for b0, b1 in pairs] for a0, a1 in pairs]
    mul = [
        [(a0 * b0 + r * a1 * b1) % p + (a0 * b1 + a1 * b0) % p * p for b0, b1 in pairs]
        for a0, a1 in pairs
    ]
    return add, mul


class QuadExt:
    """Degree-2 extension of a table field, elements coded as (a, b) pairs
    meaning a + b*u with u^2 = r, r the least non-residue code of the base.

    Ring ops, square roots from a table of every square of F_{q^2} (built on
    the first `sqrt` call), and the base-Frobenius conjugation."""

    def __init__(self, base):
        self.base = base
        self.order = base.q**2
        self.r = next(i for i in range(1, base.q) if not base.is_sq[i])
        self.zero = (0, 0)
        self.one = (1, 0)
        self._sqrts = None

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
            sqrts = {}
            for y in self.elements():
                sqrts.setdefault(self.mul(y, y), y)
            self._sqrts = sqrts
        return self._sqrts.get(x)

    def conj(self, x):
        """The base-field Frobenius x -> x^q: a + b*u -> a - b*u."""
        return (x[0], self.base.neg[x[1]])


@lru_cache(maxsize=256)
def quadratic_extension(field: FieldDesc) -> QuadExt:
    return QuadExt(ff.tables(field))


def conjugate_pair_classes_by_walk(dom, F):
    """The classes of the conjugate pairs of quadratic points of y^2 = F(x)
    over F_q: one per root y of F(x) for each x in F_{q^2} outside F_q, up
    to conjugation, each (u, v) read off x and y, in the order of
    `QuadExt.elements`."""
    t = dom.tables
    ext = quadratic_extension(dom.field)
    coeffs = [ext.embed(c) for c in F]
    seen = set()
    for x in ext.elements():
        if x[1] == 0 or x in seen:
            continue
        seen.add(x)
        seen.add(ext.conj(x))
        acc = ext.zero
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        # minimal polynomial of x over F_q
        tr = t.add[x[0]][x[0]]  # x + conj(x) = 2*x0
        nm = t.add[t.mul[x[0]][x[0]]][t.neg[t.mul[t.mul[ext.r][x[1]]][x[1]]]]
        u = (nm, t.neg[tr], 1)
        if acc == ext.zero:
            yield (u, (), 0)
            continue
        y = ext.sqrt(acc)
        if y is None:
            continue
        for yy in (y, ext.neg(y)):
            a = t.mul[yy[1]][t.inv[x[1]]]
            b = t.add[yy[0]][t.neg[t.mul[a][x[0]]]]
            v = poly.pnormalize((b, a))
            assert not poly.pmod(dom, poly.psub(dom, poly.pmul(dom, v, v), F), u)
            yield (u, v, 0)


def inert_twist_classes(C) -> list:
    """The Jacobian over F_p of the inert quadratic twist of C, as the sorted
    classes of J(F_{p^2}) that it embeds onto; C lies over F_{p^2} = F_p(t),
    t^2 = n, with coefficients in F_p.  The twist y^2 = F/n is enumerated
    over F_p by its pair stream, and (x, y) -> (x, t*y) maps a class
    (u, w, .) to (u, t*w, 0); on codes t*c is c*p.  The count is checked
    against L(-1) from the zeta function over F_p (the proof that the image
    is ker(1 + Frobenius) is in the `mwtors.Census` docstring)."""
    dom = C.domain
    p = dom.tables.p
    base = code_domain(ff.make_field(p, 1))
    bt = base.tables
    ninv = bt.inv[dom.field.r % p]
    twist = tuple(bt.mul[c][ninv] for c in C.F)
    classes = [C.identity()]
    for u, w, _ in _pair_classes(base, twist):
        classes.append((u, tuple(c * p for c in w), 0))
    twisted_order = zeta_order(hyperjac.HyperCurve(base, C.F))[4]
    if len(classes) != twisted_order:
        raise ZetaMismatch(f"inert twist at {p}: kernel {len(classes)} != zeta {twisted_order}")
    return sorted(classes)


# ---------------------------------------------------------------------------
# Integer points and integer cubic roots through Fractions
# ---------------------------------------------------------------------------


def search_rational_points_by_fractions(F, bound: int = 60) -> list:
    """Integer points (x, y) with y^2 = F(x), |x| <= bound, y >= 0, for the
    rational coefficients F, by one `Fraction` evaluation and rational
    square root per x."""
    F = tuple(map(Fraction, F))
    out = []
    for x in range(-bound, bound + 1):
        y = rational_sqrt(peval(QQ, F, Fraction(x)))
        if y is not None:
            out.append((Fraction(x), y))
    return out


def integer_cubic_roots_by_fractions(a2: int, a1: int, a0: int) -> list[int]:
    """All integer roots of x^3 + a2 x^2 + a1 x + a0: the line split at
    `Fraction` cuts around the critical points, the nearby integers tested,
    and integer bisection on each monotone piece."""

    def f(x: int) -> int:
        return ((x + a2) * x + a1) * x + a0

    bound = 2 + max(abs(a2), abs(a1), abs(a0))
    roots: set[int] = set()
    disc = a2 * a2 - 3 * a1
    cuts: list[Fraction] = [Fraction(-bound), Fraction(bound)]
    if disc >= 0:
        r = math.isqrt(disc)
        cuts += [
            Fraction(-a2 - r - 1, 3),
            Fraction(-a2 - r, 3),
            Fraction(-a2 + r, 3),
            Fraction(-a2 + r + 1, 3),
        ]
        for num in (-a2 - r, -a2 + r):
            base = num // 3
            for d in (-1, 0, 1, 2):
                x = base + d
                if abs(x) <= bound and f(x) == 0:
                    roots.add(x)
    cuts = sorted(set(cuts))
    for a, b in zip(cuts, cuts[1:]):
        lo = math.ceil(a)
        hi = math.floor(b)
        if lo > hi:
            continue
        flo, fhi = f(lo), f(hi)
        if flo == 0:
            roots.add(lo)
        if fhi == 0:
            roots.add(hi)
        if flo * fhi < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                fm = f(mid)
                if fm == 0:
                    roots.add(mid)
                    break
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi, fhi = mid, fm
    return sorted(r for r in roots if f(r) == 0)


# ---------------------------------------------------------------------------
# Multi-quadratic fields by enumeration of the span
# ---------------------------------------------------------------------------


def _frozen_vector(d: int) -> frozenset:
    """d (squarefree, not 0 or 1) as a set of F_2 coordinates; -1 is the sign."""
    coords = set(factorize(abs(d)))
    if d < 0:
        coords.add(-1)
    return frozenset(coords)


def enumerated_classes(K) -> list[int]:
    """The class of every basis mask of K, in mask order: the frozenset
    vector of a mask is the XOR of those of the generators on its bits."""
    vectors = [frozenset()]
    for d in K.gens:
        r = _frozen_vector(d)
        vectors += [v ^ r for v in vectors]
    return [math.prod(v) for v in vectors]


def contains_sqrt_by_span(K, d: int) -> bool:
    if d in enumerated_classes(K):
        return True
    if d == 0 or not is_squarefree(d):
        raise QFieldError(f"{d} is not a nonzero squarefree integer")
    return False


def residue_degree_by_span(K, p: int) -> tuple[int, bool]:
    """f = 2 iff some class prime to p is a non-residue mod p; ramified iff
    p divides some class."""
    classes = enumerated_classes(K)
    f = 2 if any(d % p and kronecker(d, p) == -1 for d in classes) else 1
    return f, any(d % p == 0 for d in classes)


def cyclotomic_intersection_by_span(K, n: int):
    """The span of the classes d with |disc Q(sqrt d)| dividing n."""
    return qfield.MultiQuadField(
        d for d in enumerated_classes(K) if d != 1 and n % abs(d if d % 4 == 1 else 4 * d) == 0
    )


def signature_by_span(K) -> tuple[int, ...]:
    return tuple(sorted(enumerated_classes(K), key=lambda d: (abs(d), d < 0)))


def lower_by_span(K):
    classes = enumerated_classes(K)
    return qfield.MultiQuadField(classes[1 << i] for i in range(len(K.gens) - 1))


def embedding_by_span(L, K) -> tuple:
    """`L.embedding(K)` with the mask of each generator of K read from a
    map of every class of L to its mask."""
    mask_of = {d: m for m, d in enumerate(enumerated_classes(L))}
    products = L.gen_products
    image = [(0, Fraction(1))]
    for g in K.gens:
        t = mask_of[g]
        ct = 1 / rational_sqrt(Fraction(products[t], g))
        image += [(s ^ t, cs * ct * products[s & t]) for s, cs in image]
    return tuple(image)


def cubic_factors_by_extraction(A: int, B: int) -> tuple:
    """`ellcurve._cubic_factors` by factor extraction: the monic factors of
    degree <= 2 of x^3 + Ax + B from `poly.low_degree_factors`, each with
    the squarefree class of its splitting field (1 for a linear factor)."""
    return tuple(
        (g, poly.splitting_quadratic_field(g) if len(g) == 3 else 1)
        for g in poly.low_degree_factors((B, A, 0, 1))
        if len(g) <= 3
    )


def roots_in_tower_by_tower_sqrt(g, K) -> list:
    """Roots in K of a monic rational polynomial of degree <= 2 (a tuple),
    with the square root of the discriminant from `qfield.sqrt_in_tower`."""
    if len(g) == 2:
        return [K.from_rational(-g[0])]
    d = poly.splitting_quadratic_field(g)
    disc = g[1] ** 2 - 4 * g[0]
    if d == 1:
        rs = rational_sqrt(disc)
        if rs is None:
            return []
        s = K.from_rational(rs)
    elif K.contains_sqrt(d):
        s = qfield.sqrt_in_tower(K.from_rational(disc))
    else:
        return []
    mb = K.from_rational(-g[1])
    roots = [(mb + s).scale(1, 2), (mb - s).scale(1, 2)]
    return roots if roots[0] != roots[1] else roots[:1]
