"""Existence criteria for elliptic curves with prescribed torsion over a
multi-quadratic field, conditioned on Jacobian rank data through the twist
decomposition, plus the finitely many exceptional curves over quadratic
fields, each certified by the point of exact order n shipped beside it."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import ellcurve, mwtors
from .poly import TowerDomain
from .qfield import MultiQuadField
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
    return RankTable.from_records(mwtors.data_list("ranks.json", "ranks", ClassifyError))


def load_rank_file(path: str) -> RankTable:
    """The default ranks merged with the records of a rank file
    {"ranks": [...]}; ClassifyError when it cannot be read or is malformed."""
    return default_ranks().merged_with(mwtors.json_list(path, "ranks", f"rank file {path!r}", ClassifyError))


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
    point: tuple  # x and y as such pairs: a point of exact order target

    def field(self) -> MultiQuadField:
        return MultiQuadField([self.base_d])

    def _elements(self, pairs) -> list:
        K = self.field()
        s = K.sqrt_gen(self.base_d)
        return [K.from_rational(a) + K.from_rational(b) * s for a, b in pairs]

    def curve(self) -> ellcurve.EllipticCurve:
        return ellcurve.EllipticCurve(TowerDomain(self.field()), self._elements(self.ainvs), self.name)

    def certificate(self) -> tuple:
        """The shipped point (x, y) over K."""
        return tuple(self._elements(self.point))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "torsion_target": self.target,
            "base_field": self.base_d,
            "ainvs": [[str(a), str(b)] for a, b in self.ainvs],
        }


def _rational_pairs(rec: dict, key: str, length: int) -> tuple:
    """rec[key], a list of `length` pairs of rational strings or integers,
    as pairs of Fractions; ClassifyError when it is not one."""
    value = rec[key]
    if isinstance(value, list) and len(value) == length and all(
        isinstance(pair, list) and len(pair) == 2 and all(type(c) in (int, str) for c in pair)
        for pair in value
    ):
        try:
            return tuple((Fraction(a), Fraction(b)) for a, b in value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ClassifyError(f"exceptional.json: {key!r} must be {length} pairs of rationals")


def _parse_exceptional(rec) -> ExceptionalCurve:
    """One record of exceptional.json; ClassifyError when it is malformed."""
    if not isinstance(rec, dict):
        raise ClassifyError("exceptional.json: a curve must be a JSON object")
    missing = [k for k in ("target", "base_d", "name", "ainvs", "point") if k not in rec]
    if missing:
        raise ClassifyError(f"exceptional.json: a curve lacks {', '.join(missing)}")
    target, d, name = rec["target"], rec["base_d"], rec["name"]
    if type(target) is not int or target < 1 or type(d) is not int or not isinstance(name, str):
        raise ClassifyError(
            "exceptional.json: a curve needs a positive integer target, an integer base_d and a string name"
        )
    return ExceptionalCurve(target, d, name, _rational_pairs(rec, "ainvs", 5), _rational_pairs(rec, "point", 2))


@lru_cache(maxsize=None)
def exceptional_registry() -> tuple[ExceptionalCurve, ...]:
    records = mwtors.data_list("exceptional.json", "curves", ClassifyError)
    return tuple(_parse_exceptional(rec) for rec in records)


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
# Certification of the exceptional curves
# ---------------------------------------------------------------------------


def verify_exceptional(curve: ExceptionalCurve, n: int | None = None) -> None:
    """Certify a shipped curve: its shipped point P lies on E and has exact
    order n (the curve's target by default) over K, checked by nP = O and
    (n/l)P != O for each prime l | n in Jacobian coordinates
    (`ellcurve.has_order`), so E(K) holds Z/n; n = 1 is vacuous.  Raises
    VerificationError on any failure.

    No point count is needed besides.  Z/n in E(K) gives n | #E(F_P) at
    every prime P of K of good reduction above an odd prime p unramified
    in K.  Proof: the kernel of reduction on E(K_P) is the formal group of
    E over the maximal ideal, which has no torsion of order prime to p
    (Silverman, AEC VII.3.1), and none of order p since the ramification
    index e = 1 is below p - 1 (AEC IV.6.1).  So reduction is injective on
    the torsion of E(K), and Z/n embeds into E(F_P).  The tests keep the
    counts at the split primes below 200 as an independent check of the
    shipped data."""
    n = n or curve.target
    if n == 1:
        return
    E, P = curve.curve(), curve.certificate()
    if not E.on_curve(P):
        raise VerificationError(f"{curve.name}: the shipped point is not on the curve")
    if not ellcurve.has_order(E, P, n):
        raise VerificationError(f"{curve.name}: the shipped point does not have order {n}")
