"""Existence criteria for elliptic curves with prescribed torsion over a
multi-quadratic field, conditioned on Jacobian rank data through the twist
decomposition, plus the finitely many exceptional curves over quadratic
fields and their independent verification."""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from . import ellcurve, mwtors, poly
from .intutil import factorize, is_prime, kronecker
from .poly import QQ, Poly, TowerDomain
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


def _tower_poly_norm(coeffs, K) -> Poly:
    """Norm of a polynomial over a quadratic field down to Q (degree 1 tower)."""
    assert len(K.gens) == 1
    conj = [c.conjugate((-1,)) for c in coeffs]
    dom = TowerDomain(K)
    prod = poly.pmul(dom, tuple(coeffs), tuple(conj))
    out = []
    for c in prod:
        if not c.is_rational():
            raise ClassifyError("norm is not rational")  # pragma: no cover
        out.append(c.rational_value())
    return Poly(QQ, out)


def _tower_poly_roots(coeffs, K) -> list:
    """All roots in the quadratic field K of a polynomial with coefficients
    in K, via degree <= 2 factors of its norm to Q."""
    dom = TowerDomain(K)
    norm = _tower_poly_norm(coeffs, K)
    roots = []
    for g in poly.low_degree_factors(norm, 2):
        for a in ellcurve._roots_in_tower(g, K):
            if poly.peval(dom, tuple(coeffs), a).is_zero():
                if a not in roots:
                    roots.append(a)
    return roots


def _torsion_point_in_tower(E: ellcurve.EllipticCurve, n: int, K):
    """A point of exact order n, a prime, on a curve over a quadratic field,
    found from the kill polynomial's roots in K, or None.  An affine P has
    P != O, so n*P = O makes its order a divisor of n other than 1: n."""
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
        half = K.from_rational(Fraction(1, 2))
        y = (s - (a1 * x + a3)) * half
        P = (x, y)
        if not E.on_curve(P):  # pragma: no cover
            continue
        if E.mul(n, P) is ellcurve.INF:
            return P
    return None


def verify_exceptional(curve: ExceptionalCurve, n: int | None = None) -> dict:
    """Certify a shipped curve: every good split prime p < 200 has
    n | #E(F_p) at both primes above it, each count one character sum over
    F_p (`ellcurve.quadratic_reduction_counts`); for n = 15 an explicit
    order-15 point is constructed from the division polynomials and the
    tower square roots; for n = 14 the rational 2-torsion point is
    exhibited.  Raises on any failure."""
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
        if E.point_order(P15, 20) != 15:
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
