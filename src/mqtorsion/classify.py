"""Existence criteria for elliptic curves with prescribed torsion over a
multi-quadratic field, conditioned on Jacobian rank data through the twist
decomposition, plus the finitely many exceptional curves over quadratic
fields and their independent verification."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

from . import ellcurve, mwtors, poly
from .intutil import factorize, is_prime, kronecker, rational_reconstruct
from .poly import QQ, Poly, ResidueDomain, TowerDomain
from .qfield import MultiQuadField, sqrt_in_tower
from .record import Record


class ClassifyError(ValueError):
    pass


class VerificationError(RuntimeError):
    """An exceptional-curve check failed; carries the offending step."""


def _targets() -> dict[str, mwtors.CurveModel]:
    """Target spec -> model: "N" for level (1, N), "MxN" for level (M, N)."""
    out = {}
    for model in mwtors.model_registry().values():
        m, n = model.level
        out[str(n) if m == 1 else f"{m}x{n}"] = model
    return out


# ---------------------------------------------------------------------------
# Rank tables
# ---------------------------------------------------------------------------


class RankTable(Record):
    """(jacobian label, squarefree twist) -> rank, with mandatory sources."""

    entries: tuple

    @classmethod
    def from_records(cls, records) -> "RankTable":
        seen = {}
        for rec in records:
            if not isinstance(rec, dict) or not {"jacobian", "twist", "rank"} <= rec.keys():
                raise ClassifyError("rank entries must be objects with jacobian, twist and rank")
            if "source" not in rec or not str(rec["source"]).strip():
                raise ClassifyError("rank entries must carry a source")
            if not isinstance(rec["jacobian"], str) or any(type(rec[k]) is not int for k in ("twist", "rank")):
                raise ClassifyError("a rank entry needs a string jacobian and integer twist and rank")
            if rec["rank"] < 0:
                raise ClassifyError("ranks are nonnegative")
            seen[(rec["jacobian"], rec["twist"])] = (rec["rank"], rec["source"])
        return cls(tuple(sorted(seen.items())))

    def lookup(self, label: str, d: int):
        for (lab, twist), (rank, _) in self.entries:
            if lab == label and twist == d:
                return rank
        return None

    def merged_with(self, records) -> "RankTable":
        base = [
            {"jacobian": lab, "twist": tw, "rank": r, "source": s}
            for (lab, tw), (r, s) in self.entries
        ]
        return RankTable.from_records(base + list(records))


@lru_cache(maxsize=None)
def default_ranks() -> RankTable:
    with open(mwtors._data_path("ranks.json")) as fh:
        return RankTable.from_records(json.load(fh)["ranks"])


def load_rank_file(path: str) -> RankTable:
    """The default ranks merged with the records of a rank file
    {"ranks": [...]}; ClassifyError when it cannot be read or is malformed."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ClassifyError(f"cannot read rank file {path!r}: {exc.strerror}") from None
    if not isinstance(data, dict) or not isinstance(data.get("ranks"), list):
        raise ClassifyError('a rank file must be an object {"ranks": [...]}')
    return default_ranks().merged_with(data["ranks"])


def rank_from_table(label: str, K, table: RankTable):
    """rank J(K) = sum of twist ranks over Q; None when any entry is missing
    (never guessed)."""
    total = 0
    for d in K.twist_classes():
        r = table.lookup(label, d)
        if r is None:
            return None
        total += r
    return total


# ---------------------------------------------------------------------------
# Exceptional curves
# ---------------------------------------------------------------------------


class ExceptionalCurve(Record):
    target: int
    base_d: int
    name: str
    ainvs: tuple  # pairs (rational part, sqrt-part) as Fractions

    def field(self) -> MultiQuadField:
        return MultiQuadField([self.base_d])

    def curve(self) -> ellcurve.EllipticCurve:
        K = self.field()
        dom = TowerDomain(K)
        s = K.sqrt_gen(self.base_d)
        coeffs = [K.from_rational(a) + K.from_rational(b) * s for a, b in self.ainvs]
        return ellcurve.EllipticCurve(dom, coeffs, self.name)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "torsion_target": self.target,
            "base_field": self.base_d,
            "ainvs": [[str(a), str(b)] for a, b in self.ainvs],
        }


@lru_cache(maxsize=None)
def exceptional_registry() -> tuple[ExceptionalCurve, ...]:
    with open(mwtors._data_path("exceptional.json")) as fh:
        raw = json.load(fh)
    out = []
    for rec in raw["curves"]:
        out.append(
            ExceptionalCurve(
                rec["target"],
                rec["base_d"],
                rec["name"],
                tuple((Fraction(a), Fraction(b)) for a, b in rec["ainvs"]),
            )
        )
    return tuple(out)


def exceptional_curves(target: str, K) -> list[ExceptionalCurve]:
    """The shipped curves with Z/target torsion whose quadratic field lies
    in K (there are some only for the targets 14 and 15)."""
    return [
        c for c in exceptional_registry() if str(c.target) == target and K.contains_sqrt(c.base_d)
    ]


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------


class Verdict(Record):
    target: str
    field_signature: tuple[int, ...]
    rank_value: int | None
    existence: str  # none | exactly | at_least | infinitely_many | no_conclusion
    count: int | None
    equivalence_direction: str  # iff | one_way
    exceptional: tuple = ()
    condition: str | None = None
    annotations: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "field": list(self.field_signature),
            "rank": self.rank_value,
            "existence": self.existence,
            "count": self.count,
            "equivalence_direction": self.equivalence_direction,
            "exceptional_curves": [c.to_json() for c in self.exceptional],
            "condition": self.condition,
            "annotations": list(self.annotations),
        }


def unconditional_floor(target: str, K) -> int:
    """Curves that exist regardless of the rank: the shipped exceptional
    curves for the target over quadratic subfields of K."""
    return len(exceptional_curves(target, K))


def classify(target: str, K, table: RankTable | None = None) -> Verdict:
    """Decide existence of elliptic curves over K whose Mordell-Weil group
    contains the target torsion, from the Jacobian rank over K.

    Equivalence targets (11, 14, 15 and the four product cases): positive
    rank means infinitely many curves, rank zero means exactly the
    unconditional floor.  One-way targets (13, 16, 18): rank zero still
    means none, but positive rank yields no conclusion."""
    targets = _targets()
    if target not in targets:
        raise ClassifyError(f"unsupported target {target!r}; known: {sorted(targets)}")
    table = table or default_ranks()
    model = targets[target]
    label = model.label
    mwtors.check_zeta_precondition(model, K)
    rank = rank_from_table(label, K, table)
    floor = unconditional_floor(target, K)
    # a genus-1 X1 is its own Jacobian; on a genus-2 curve, a point of J(K)
    # need not come from the curve, so existence implies positive rank but
    # not conversely
    one_way = model.genus == 2
    direction = "one_way" if one_way else "iff"
    exceptional = tuple(exceptional_curves(target, K)) if floor else ()
    annotations: list[str] = []
    if rank == 0:
        if floor:
            annotations.append(
                f"with rank 0, every curve over K with Z/{target} torsion is "
                f"defined over the listed quadratic field(s)"
            )
            verdict = Verdict(
                target, K.signature(), 0, "exactly", floor, direction,
                exceptional, None, tuple(annotations),
            )
        else:
            verdict = Verdict(
                target, K.signature(), 0, "none", 0, direction, (), None, ()
            )
        return verdict
    rank_expr = (
        f"rank J_{label}(K) = sum of the ranks of the {len(K.twist_classes())} "
        f"quadratic twists over Q"
    )
    if rank is None:
        existence = "at_least" if floor else "no_conclusion"
        return Verdict(
            target, K.signature(), None, existence, floor if floor else None,
            direction, exceptional,
            f"conditional: resolve {rank_expr}", tuple(annotations),
        )
    # rank >= 1
    if one_way:
        return Verdict(
            target, K.signature(), rank, "no_conclusion", None, direction, (),
            "positive rank is necessary but not known sufficient for existence",
            (),
        )
    return Verdict(
        target, K.signature(), rank, "infinitely_many", None, direction,
        exceptional, None, tuple(annotations),
    )


# ---------------------------------------------------------------------------
# Independent verification of the exceptional curves
# ---------------------------------------------------------------------------


def _embed(coeffs, t: int, m: int) -> tuple:
    """The residues mod m of the coefficients (n0 + n1 sqrt g)/den of a
    polynomial over K = Q(sqrt g) at sqrt g = t, denominators prime to m."""
    return tuple((c.nums[0] + c.nums[1] * t) * pow(c.den, -1, m) % m for c in coeffs)


def _split_prime(coeffs, g: int) -> tuple[int, int]:
    """(p, s): the least odd prime p split in Q(sqrt g), prime to g and to
    the coefficient denominators, at which both images of the polynomial,
    at sqrt g = s and at sqrt g = -s with s^2 = g mod p, keep their degree
    and stay squarefree mod p.  For a squarefree polynomial the search
    ends: its leading coefficient and discriminant are nonzero, so only
    finitely many primes divide their norms, and infinitely many split."""
    for p in itertools.count(3, 2):
        if not is_prime(p) or g % p == 0 or kronecker(g, p) != 1 or any(c.den % p == 0 for c in coeffs):
            continue
        Fp = ResidueDomain(p)
        s = next(s for s in range(1, p) if (s * s - g) % p == 0)
        images = [_embed(coeffs, t, p) for t in (s, p - s)]
        if all(f[-1] and len(poly.pgcd(Fp, f, poly.pderiv(Fp, f))) == 1 for f in images):
            return p, s


def _tower_poly_roots(coeffs, K) -> list:
    """All roots in K = Q(sqrt g) of a squarefree polynomial f over K, from
    its roots in Q_p at a split prime p (p-adic Newton iteration and
    rational number reconstruction, von zur Gathen and Gerhard, Modern
    Computer Algebra, 5.10), each checked exactly over K.

    At the prime p of `_split_prime`, sqrt g maps to +-sigma in Z_p, with
    sigma = s mod p lifted by Newton's iteration, and K embeds in Q_p twice.
    The simple roots of each image of f mod p lift uniquely to Z/p^k
    (`poly.hensel_root`).  A pair (r+, r-) of lifts gives a = (r+ + r-)/2
    and b = (r+ - r-)/(2 sigma) mod p^k, each rebuilt as a fraction by
    `rational_reconstruct`, and x = a + b sqrt g is kept only if f(x) = 0
    over K.

    Completeness.  Let x = a + b sqrt g be a root of f in K.  The images of
    f have p-integral coefficients and unit leading coefficients, so both
    images a +- b sigma of x are p-adic integers; so are a and b, as p is
    odd and prime to g.  Their reductions are roots of the images mod p,
    simple ones, so the lifts of those roots are a +- b sigma mod p^k, and
    the pair gives a and b mod p^k.  Their size: the minimal polynomial of
    x over Q, made primitive in Z[x], c2 t^2 + c1 t + c0 or c1 t + c0,
    divides the primitive integer norm S of f (f times its conjugate), so
    |c_j| <= B = `poly.factor_height_bound(S)`.  Then a = -c1/(2 c2) or
    -c0/c1, and b = e/(2 c2) with e^2 = (c1^2 - 4 c0 c2)/g; e is an integer
    since g is squarefree, and |e| <= sqrt(5) B.  So the numerators and
    denominators of a and b are at most 3B, and for p^k > 2 (3B)^2
    `rational_reconstruct` returns them (it finds the unique fraction with
    both parts at most sqrt(p^k / 2)).  So every root of f in K is found."""
    (g,) = K.gens
    # f = (P0 + P1 sqrt g)/D on integer polynomials, so D^2 f conj(f) = P0^2 - g P1^2
    D = math.lcm(*(c.den for c in coeffs))
    P0, P1 = ([c.nums[i] * (D // c.den) for c in coeffs] for i in (0, 1))
    norm = poly.psub(QQ, poly.pmul(QQ, P0, P0), poly.pscale(QQ, g, poly.pmul(QQ, P1, P1)))
    N = 3 * poly.factor_height_bound(poly._int_coeffs(Poly(QQ, norm)))
    p, s = _split_prime(coeffs, g)
    k = 1
    while p**k <= 2 * N * N:
        k += 1
    M = p**k
    sigma = poly.hensel_root((-g % M, 0, 1), s, p, k)
    lifts = []
    for t in (sigma, M - sigma):
        F = _embed(coeffs, t, M)
        lifts.append([poly.hensel_root(F, r, p, k) for r in poly.mp_roots(tuple(c % p for c in F), p)])
    half, half_sigma = pow(2, -1, M), pow(2 * sigma, -1, M)
    dom = TowerDomain(K)
    root_g = K.sqrt_gen(g)
    roots = []
    for rp in lifts[0]:
        for rm in lifts[1]:
            a = rational_reconstruct((rp + rm) * half, M)
            b = rational_reconstruct((rp - rm) * half_sigma, M)
            if a is None or b is None:
                continue
            x = K.from_rational(a) + root_g.scale(b.numerator, b.denominator)
            if not poly.peval(dom, coeffs, x):
                roots.append(x)
    return roots


def _torsion_point_in_tower(E: ellcurve.EllipticCurve, n: int, K):
    """A point of exact order n, a prime, on a curve over a quadratic field,
    found from the kill polynomial's roots in K, or None; its order is
    certified by `ellcurve.has_order`."""
    assert is_prime(n), n
    b = E.b_invariants()
    kill = poly.kill_poly(b, n, E.domain).coeffs
    T = poly.two_torsion_cubic(b, E.domain)
    a1, a2, a3, a4, a6 = E.a
    for x in _tower_poly_roots(kill, K):
        # y from the completed square: (2y + a1 x + a3)^2 = T(x)
        s = sqrt_in_tower(T(x))
        if s is None:
            continue
        P = (x, (s - (a1 * x + a3)).scale(1, 2))
        if not E.on_curve(P):  # pragma: no cover
            continue
        if ellcurve.has_order(E, P, n):
            return P
    return None


def verify_exceptional(curve: ExceptionalCurve, n: int | None = None) -> dict:
    """Certify a shipped curve: every good split prime p < 200 has
    n | #E(F_p) at both primes above it, each count one character sum over
    F_p (`ellcurve.quadratic_reduction_counts`); for n = 15 an explicit
    point P of order 15 is built as P3 + P5, each found from the roots in K
    of a kill polynomial (`_tower_poly_roots`, p-adic roots rebuilt by
    rational reconstruction and checked exactly over K) and a tower square
    root, and 15P = O, 5P != O and 3P != O are checked in Jacobian
    coordinates (`ellcurve.has_order`); for n = 14 the 2-torsion point over
    K is exhibited.  Raises on any failure."""
    n = n or curve.target
    report = {"name": curve.name, "n": n, "primes_checked": [], "steps": []}
    if n == 1:
        report["steps"].append("vacuous")
        return report
    K = curve.field()
    E = curve.curve()
    d = curve.base_d
    dom = E.domain
    disc_norm = E.discriminant().norm_to_q()
    bad = set()
    for c in E.a:
        for co in c.coords:
            bad |= set(factorize(co.denominator))
    bad |= set(factorize(disc_norm.numerator * disc_norm.denominator))
    for p in range(3, 200):
        if not is_prime(p) or p in bad or d % p == 0 or kronecker(d, p) != 1:
            continue
        for count in ellcurve.quadratic_reduction_counts(curve.ainvs, d, p):
            if count % n:
                raise VerificationError(
                    f"{curve.name}: #E(F_{p}) = {count} not divisible by {n}"
                )
        report["primes_checked"].append(p)
    if not report["primes_checked"]:
        raise VerificationError(f"{curve.name}: no usable split primes")
    report["steps"].append(f"{n} divides #E(F_p) at every good split p < 200")
    if n == 15:
        P3 = _torsion_point_in_tower(E, 3, K)
        P5 = _torsion_point_in_tower(E, 5, K)
        if P3 is None or P5 is None:
            raise VerificationError(f"{curve.name}: 3- or 5-torsion not found")
        P15 = E.add(P3, P5)
        if not ellcurve.has_order(E, P15, 15):
            raise VerificationError(f"{curve.name}: combined point is not order 15")
        report["steps"].append("explicit order-15 point constructed and verified")
        report["point_x"] = repr(P15[0])
    if n == 14:
        P2 = _torsion_point_in_tower(E, 2, K)
        if P2 is None:
            raise VerificationError(f"{curve.name}: 2-torsion point not found")
        report["steps"].append("rational 2-torsion point exhibited; 7-part by counting")
        report["point_x"] = repr(P2[0])
    return report
