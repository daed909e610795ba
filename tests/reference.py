"""Slow-path references that the tests check production shortcuts against.

- The genus-2 census: J(F_q) listed in full and checked against the zeta
  function.  Production never lists J(F_q): `mwtors.Census` takes the group
  order from the zeta function over F_p and spans each Sylow subgroup from
  the front of `hyperjac.ClassStream`.
- Curves over Q(sqrt d) reduced at an odd prime, one F_q-table curve per
  embedding of sqrt(d).  Production counts #E(F_p) by one character sum
  (`ellcurve.quadratic_reduction_counts`).
- Low-degree factor extraction on the monic associate
  G(x) = L^(n-1) F(x/L) of the primitive F.  Production factors and lifts F
  itself, whose coefficients do not grow with the leading coefficient L.
"""

from fractions import Fraction
from itertools import combinations
import math

from mqtorsion import ff
from mqtorsion.ellcurve import BadReduction, CurveError, EllipticCurve
from mqtorsion.hyperjac import JacError, _pair_classes, zeta_order
from mqtorsion.poly import (
    GOOD_PRIME_CAP,
    QQ,
    Poly,
    PolyError,
    _ceil_log2,
    _center,
    _find_good_prime,
    _is_irreducible_low,
    _lift_factors,
    _squarefree_parts,
    code_domain,
    mp_factor_squarefree,
    mp_mul,
    mp_norm,
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


def low_degree_factors_monic_associate(F: tuple[int, ...], max_degree: int) -> tuple[Poly, ...]:
    """The factors of `poly._low_degree_factors_primitive`, found on the
    monic associate G of the primitive F: G is certified squarefree mod a
    good prime (or split by Euclid over Q), all its factors mod p are lifted
    to p^k > 2B with B bounded from ||G||_2, and each factor h of G maps
    back to the monic h(Lx)."""
    L = F[-1]
    n = len(F) - 1
    G = tuple(F[i] * L ** (n - 1 - i) for i in range(n)) + (1,)
    p = _find_good_prime(G, GOOD_PRIME_CAP)
    if p is not None:
        parts = [(G, 1, p)]
    else:
        parts = [(S, mult, _find_good_prime(S)) for S, mult in _squarefree_parts(G)]
    found: list[tuple[Poly, int]] = []
    for S, mult, q in parts:
        for h in _monic_factors_squarefree(S, max_degree, q):
            found.append((h, mult))
    out = []
    for h, mult in found:
        coeffs = [Fraction(c) for c in h.coeffs]
        mapped = [coeffs[i] * Fraction(L) ** i for i in range(len(coeffs))]
        g = Poly(QQ, mapped).monic()
        out.extend([g] * mult)
    out.sort(key=lambda g: (g.degree, g.coeffs))
    check = Poly(QQ, (Fraction(1),))
    for g in out:
        check = check * g
    if not check.divides(Poly.from_ints(QQ, F)):
        raise PolyError("internal factor extraction inconsistency")
    return tuple(out)


def _monic_factors_squarefree(S: tuple[int, ...], max_degree: int, p: int) -> list[Poly]:
    """Factors of degree <= max_degree of a squarefree monic S, lifted from
    the factorization mod the good prime p."""
    fp = mp_norm(S, p)
    factors = mp_factor_squarefree(fp, p)
    if all(len(fac) - 1 > max_degree for fac in factors):
        return []
    l2 = math.isqrt(sum(c * c for c in S)) + 1
    B = 16 * (l2 + 1)
    k = 1
    while p**k <= 2 * B:
        k += 1
    lifted = _lift_factors(S, factors, p, k)
    M = p ** (1 << _ceil_log2(k))
    degs = [len(x) - 1 for x in lifted]
    out = []
    rem = Poly(QQ, [Fraction(c) for c in S])
    seen = set()
    for rsize in (1, 2, 3, 4):
        for combo in combinations(range(len(lifted)), rsize):
            if sum(degs[i] for i in combo) > max_degree:
                continue
            prod = (1,)
            for i in combo:
                prod = mp_mul(prod, lifted[i], M)
            cand = tuple(_center(c, M) for c in prod)
            if cand in seen:
                continue
            seen.add(cand)
            g = Poly(QQ, [Fraction(c) for c in cand])
            if not _is_irreducible_low(g):
                continue
            if g.divides(rem):
                out.append(g)
    return out
