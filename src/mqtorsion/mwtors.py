"""The torsion-bound engine.

Combines residue-field reductions, the quadratic-twist decomposition of odd
torsion over the twists with primes in one finite set per model, for both
genera (`_twist_primes`), Weierstrass 2-torsion analysis and, for a genus-1
model, one search for the points of 2-power order over all multi-quadratic
fields at once, read for each K, into two-sided bounds on J(K)_tors for
the eleven builtin modular Jacobians, over any multi-quadratic field K.
`derive` mode recomputes everything from the models; `table` mode answers
from the classification tables that data/models.json ships with each model,
keyed on the cyclotomic intersection, and the two are cross-checked
whenever both are available.  The default reduction primes live there too.
"""

from __future__ import annotations

import json
import math
import os
from functools import cached_property, lru_cache, partial
from itertools import product

from . import ellcurve, ff, hyperjac, poly, qfield
from .groups import (
    AbGroupStructure,
    CrossCheckError,
    GroupError,
    scalar_mul,
    subgroup_span,
    sylow_subgroups,
)
from .intutil import ModelError, crt_pair, factorize, is_prime, kronecker, rational_reconstruct
from .poly import QQ, code_domain
from .record import Record


class PreconditionError(ValueError):
    """A theorem hypothesis (e.g. zeta_M in K) is violated."""


class DataIntegrityError(RuntimeError):
    """A shipped model contradicts its recorded fingerprints."""


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------

_ZETA_GEN = {1: None, 2: None, 3: -3, 4: -1, 6: -3}

class CurveModel(Record):
    _uncompared = ("checks", "torsion_table")

    label: str
    level: tuple[int, int]
    genus: int
    base_d: int | None  # squarefree d of the theorem base field, None for Q
    ainvs: tuple[int, ...] | None
    f_coeffs: tuple[int, ...] | None
    source: str
    checks: dict = {}
    primes: tuple[int, ...] | None = None  # default reduction primes
    # J(K)_tors keyed by the signature of K n Q(zeta_N), N = level[1];
    # the key None means any K
    torsion_table: dict = {}

    @property
    def zeta_gen(self) -> int | None:
        return _ZETA_GEN[self.level[0]]

    def base_field(self) -> qfield.MultiQuadField:
        if self.base_d is None:
            return qfield.QQ_FIELD
        return qfield.MultiQuadField([self.base_d])

    def elliptic(self) -> ellcurve.EllipticCurve:
        return self._elliptic

    @cached_property
    def _elliptic(self) -> ellcurve.EllipticCurve:
        # built once per model; cached_property bypasses the record's __setattr__
        if self.genus != 1:
            raise ModelError(f"{self.label} is not genus 1")
        return ellcurve.EllipticCurve.from_ints(QQ, self.ainvs, self.label)


def _data_path(name: str) -> str:
    base = os.environ.get("MQTORSION_DATA")
    if base is None:
        base = os.path.join(os.path.dirname(__file__), "data")
    return os.path.join(base, name)


def json_list(path: str, key: str, what: str, error=ModelError) -> list:
    """The list under `key` of the JSON file at `path`, named `what` in
    errors; `error` when the file cannot be read or is not an object holding
    such a list."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc.strerror}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get(key), list):
        raise error(f'{what} must be an object {{"{key}": [...]}}')
    return raw[key]


def data_list(name: str, key: str, error=ModelError) -> list:
    """`json_list` of the shipped data file `name`."""
    return json_list(_data_path(name), key, name, error)


def _int_tuple(entry: dict, key: str, length: int | None = None) -> tuple[int, ...] | None:
    """entry[key] as a tuple of integers, None when absent; ModelError when
    it is not a list of integers (of the given length)."""
    if key not in entry:
        return None
    value = entry[key]
    if (not isinstance(value, list) or not all(type(c) is int for c in value)
            or (length is not None and len(value) != length)):
        size = "" if length is None else f"{length} "
        raise ModelError(f"model {key!r} must be a list of {size}integers")
    return tuple(value)


def _parse_model(entry: dict, source: str | None = None) -> CurveModel:
    """A CurveModel from one entry of models.json or from a model file.
    A malformed entry raises ModelError."""
    if not isinstance(entry, dict):
        raise ModelError("a model must be a JSON object")
    missing = [k for k in ("label", "level", "genus", "base_field") if k not in entry]
    if missing:
        raise ModelError(f"model lacks {', '.join(missing)}")
    genus = entry["genus"]
    if type(genus) is not int or genus not in (1, 2):
        raise ModelError("model 'genus' must be 1 or 2")
    level = _int_tuple(entry, "level", 2)
    if level[0] not in _ZETA_GEN:
        raise ModelError(f"model level {list(level)}: first entry must be in {sorted(_ZETA_GEN)}")
    coeff_key = "coeffs" if genus == 1 else "f_coeffs"
    if coeff_key not in entry:
        raise ModelError(f"genus-{genus} model lacks {coeff_key!r}")
    base = entry["base_field"]
    if base != "Q" and not (type(base) is int or (isinstance(base, str) and base.lstrip("-").isdigit())):
        raise ModelError("model 'base_field' must be \"Q\" or an integer")
    try:
        table = {
            None if key is None else tuple(key): tuple(summands)
            for key, summands in entry.get("torsion_table", ())
        }
    except (TypeError, ValueError):
        raise ModelError("model 'torsion_table' must be a list of [signature, factors] pairs") from None
    return CurveModel(
        label=str(entry["label"]),
        level=level,
        genus=genus,
        base_d=None if base == "Q" else int(base),
        ainvs=_int_tuple(entry, "coeffs", 5),
        f_coeffs=_int_tuple(entry, "f_coeffs"),
        source=entry.get("source", source),
        checks=entry.get("checks", {}),
        primes=_int_tuple(entry, "primes"),
        torsion_table=table,
    )


@lru_cache(maxsize=None)
def model_registry() -> dict[str, CurveModel]:
    models = [_parse_model(entry) for entry in data_list("models.json", "models")]
    return {model.label: model for model in models}


def get_model(label: str) -> CurveModel:
    reg = model_registry()
    if label not in reg:
        raise ModelError(f"unknown model {label!r}; known: {sorted(reg)}")
    return reg[label]


def load_model_file(path: str) -> CurveModel:
    with open(path) as fh:
        return _parse_model(json.load(fh), path)


def verify_model_integrity(model: CurveModel) -> None:
    """Check the shipped fingerprints: base torsion and quoted finite-field
    structures.  Guards against transcription slips in the model data."""
    checks = model.checks
    if "torsion_base" in checks:
        expect = AbGroupStructure.from_summands(checks["torsion_base"])
        got = derive_torsion(model, model.base_field())
        if not got.closed or got.lower != expect:
            raise DataIntegrityError(
                f"{model.label}: base torsion {got.lower}/{got.upper} != {expect}"
            )
    for key, summands in checks.get("structures", {}).items():
        p, f = (int(t) for t in key.split(","))
        expect = AbGroupStructure.from_summands(summands)
        if jac_structure(model, p, f) != expect:
            raise DataIntegrityError(f"{model.label}: J(F_{p}^{f}) != {expect}")
    if "minimal_disc_support" in checks:
        support = set(checks["minimal_disc_support"])
        disc = ellcurve.minimal_disc(model.elliptic())
        if set(factorize(disc)) != support:
            raise DataIntegrityError(f"{model.label}: minimal disc support")


# ---------------------------------------------------------------------------
# Reduction structures (cached) and the meet
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def jac_structure(model: CurveModel, p: int, f: int) -> AbGroupStructure:
    """J(F_{p^f}) for a builtin model; raises on bad reduction."""
    if p == 2 or not is_prime(p):
        raise ModelError(f"{p} is not an odd prime")
    if model.genus == 1:
        return ellcurve.group_structure(ellcurve.reduce_mod_p(model.elliptic(), p, f))
    return reduction(model, p).census(f).structure


def reduction(model: CurveModel, p: int) -> "Reduction":
    """The `Reduction` of a genus-2 model at the odd prime p; BadReduction
    where the reduction is not a curve the group law accepts."""
    R = _reduction_or_none(model, p)
    if R is None:
        raise ellcurve.BadReduction(p)
    return R


@lru_cache(maxsize=256)
def _reduction_or_none(model: CurveModel, p: int):
    """The `Reduction` of `reduction`, or None where it is bad: a cache
    keeps no raised exception, so a bad (model, p) is built and rejected
    once, like a good one."""
    try:
        C = hyperjac.HyperCurve.from_ints(code_domain(ff.make_field(p, 1)), model.f_coeffs, model.label)
    except hyperjac.JacError:
        return None
    # a sextic model must reduce to a monic one; inert sextics are its twists
    return None if C.degree == 6 and C.Vp is None else Reduction(model, p, C)


class Reduction:
    """One good reduction of a genus-2 model y^2 = F(x) at an odd prime p,
    built once per (model, p) by `reduction`: the curve over F_p and over
    F_{p^2}, their zeta data, and the censuses of J(F_p), J(F_{p^2}) and
    the inert twist, each made on first use.  `curve2`, with the F_{p^2}
    tables, is built only when `zeta2` or a draw from `census(2)` needs it.

    - `curve` over F_p, and `zeta`, the (N1, N2, L, #J, L(-1)) of
      `hyperjac.zeta_order`, counted over F_p.  If alpha_1..alpha_4 are the
      Frobenius eigenvalues over F_p, then L_p(T) = prod(1 - alpha_i T),
      #J(F_p) = L_p(1), and the inert twist has order
      prod(1 + alpha_i) = L_p(-1), as Frobenius acts on it by the -alpha_i.
    - `zeta2`, the same data over F_{p^2}, read from L_p =
      (1, -e1, e2, -p*e1, p^2).  The eigenvalues over F_{p^2} are the
      alpha_i^2, so L_{p^2}(T^2) = L_p(T) * L_p(-T) =
      (1 + e2 T^2 + p^2 T^4)^2 - (e1 T + p e1 T^3)^2 =
      1 + a1 T^2 + a2 T^4 + p^2 a1 T^6 + p^4 T^8, with a1 = 2 e2 - e1^2 and
      a2 = e2^2 + 2 p^2 - 2 p e1^2.  With q = p^2, the power sums of the
      alpha_i^2 give N1 = q + 1 + a1 and N2 = q^2 + 1 - (a1^2 - 2 a2), and
      #J(F_{p^2}) = L_p(1) * L_p(-1).  One independent check stays: N1
      counted over F_{p^2} (`hyperjac.curve_count` on `curve2`) must agree,
      else CrossCheckError.
    - `census(f)`, f = 1 or 2, the `Census` of J(F_{p^f}); `twist`, the
      `Census` of the inert twist y^2 = F/n over F_p, n the non-residue r
      of `ff.make_field(p, 2)`: a quintic, or a sextic inert at infinity,
      its leading coefficient 1/n a non-square, built when a class of it
      is drawn.  No F_{p^2} table is built for it.
    - `twist_census(d)`, the census of J^d(F_p) for the quadratic twist
      y^2 = d*F(x): J(F_p) when d is a square mod p, else the inert twist,
      as y^2 = d*F is then isomorphic over F_p to y^2 = F/n (d*n is a
      square).  BadReduction when p divides d.

    The odd part of J(F_{p^2}) is that of J(F_p) + J^tw(F_p).  Proof.  Let
    ell be odd and s the p-th power Frobenius on A = J(F_{p^2})[ell^oo];
    s^2 = 1 on J(F_{p^2}).  As ell is odd, 2 is a unit on A, and
    a = (a + s a)/2 + (a - s a)/2 puts A = ker(s - 1) + ker(s + 1), a
    direct sum: s a = a = -s a gives 2a = 0, so a = 0.  ker(s - 1) is
    J(F_p)[ell^oo], and ker(s + 1) is the ell-part of ker(1 + s), which is
    isomorphic to J^tw(F_p).  With t^2 = n, (x, y) -> (x, t*y) is an
    isomorphism over F_{p^2} from y^2 = F/n onto y^2 = F, so
    (u, w, 0) -> (u, t*w, 0) is injective.  On a sextic, a class of
    J^tw(F_p) other than 0 is [P + Q - (the place at infinity)] with P + Q
    affine, deg u = 2, and its image [P' + Q' - infinity_+ - infinity_-]
    has weight 0, as on a quintic.  s fixes u in F_p[x] and the weight and
    negates t*w, so the image lies in ker(1 + s), the kernel of the
    separable isogeny 1 + s, whose degree is L(-1), the characteristic
    polynomial of Frobenius at -1.
    """

    def __init__(self, model: CurveModel, p: int, curve: hyperjac.HyperCurve):
        self.model, self.p, self.curve = model, p, curve
        self._census: dict = {}

    @cached_property
    def zeta(self) -> tuple:
        return hyperjac.zeta_order(self.curve)

    @cached_property
    def curve2(self) -> hyperjac.HyperCurve:
        return hyperjac.HyperCurve.from_ints(code_domain(ff.make_field(self.p, 2)), self.model.f_coeffs, self.model.label)

    @cached_property
    def zeta2(self) -> tuple:
        p, q = self.p, self.p * self.p
        _, c1, e2, _, _ = self.zeta[2]  # c1 = -e1 enters squared
        a1 = 2 * e2 - c1 * c1
        a2 = e2 * e2 + 2 * q - 2 * p * c1 * c1
        L = (1, a1, a2, q * a1, q * q)
        N1 = q + 1 + a1
        counted = hyperjac.curve_count(self.curve2)
        if counted != N1:
            raise CrossCheckError(f"{self.model.label} over F_{q}: {counted} points, but {N1} from the zeta function over F_{p}")
        return N1, q * q + 1 - (a1 * a1 - 2 * a2), L, sum(L), 1 - a1 + a2 - q * a1 + q * q

    def census(self, f: int) -> "Census":
        if f not in self._census:
            _, _, _, order, twisted_order = self.zeta
            if f == 1:
                self._census[f] = Census(self, lambda: self.curve, order, 1)
            else:
                self._census[f] = Census(self, lambda: self.curve2, order * twisted_order, 2)
        return self._census[f]

    @cached_property
    def twist(self) -> "Census":
        return Census(self, self._twist_curve, self.zeta[4], 1)

    def _twist_curve(self) -> hyperjac.HyperCurve:
        t = self.curve.domain.tables
        ninv = t.inv[t.from_int(ff.make_field(self.p, 2).r)]
        return hyperjac.HyperCurve(self.curve.domain, [t.mul[c][ninv] for c in self.curve.F], self.model.label)

    def twist_census(self, d: int) -> "Census":
        if d % self.p == 0:
            raise ellcurve.BadReduction(self.p)
        return self.census(1) if kronecker(d, self.p) == 1 else self.twist


def _partitions(e: int, r: int, cap: int):
    """The partitions of e into r parts of at most cap, each as a tuple of
    its parts in descending order."""
    if r == 0:
        if e == 0:
            yield ()
        return
    for first in range(min(cap, e - r + 1), -(-e // r) - 1, -1):
        for rest in _partitions(e - first, r - 1, first):
            yield (first, *rest)


class Census:
    """A group of a `Reduction`, J(F_{p^f}) for f = 1 or 2 (the residue
    degrees of a multi-quadratic field) or the inert twist over F_p, as a
    collection `classes` of its elements whose Sylow subgroups are spanned
    on demand.  Its order N is given by the reduction's zeta function over
    F_p, so no count over F_{p^4} is made; `degree` is the f with the group
    rational over F_{p^f}, 1 for the twist.  `classes` is the lazy
    `hyperjac.ClassStream` of the curve that the function `make_curve`
    builds when the first class is drawn, so a census read from its order
    and from the other censuses builds no curve, and for f = 2 no F_{p^2}
    table.  A span of ell follows `groups.sylow_subgroups`: with
    ell^e || N and m = N/ell^e, m * J = S_ell, and a span of images m*x
    with ell^e elements is S_ell, so the span stops drawing classes as soon
    as it has ell^e elements.

    `sylow(ell)` spans S_ell once, on first use, as a `groups.Span` that
    carries one relation row per generator, and `ell_pairs(ell)` reads
    J[ell] from it.  `exponents(ell)` takes the ell-part of the group by
    the first of these that applies, and `structure` assembles the parts:
    - ell || N: S_ell is Z/ell, and nothing is spanned.
    - ell = 2, 2^e || N: the one partition of e that the 2-part rule
      below leaves (`_two_partitions`), or, when it leaves more than one,
      the span of 2*S_2 (`_two_exponents`).
    - ell odd, f = 2: S_ell(J(F_p)) + S_ell(J^tw(F_p)), read from the
      censuses `census(1)` and `twist` of the reduction (the proof is in
      the `Reduction` docstring).
    - otherwise the Smith form of the relation rows of `sylow(ell)`.

    The 2-part rule.  The exponents of S_2 are a partition of e into r
    parts, r = `two_rank`, its number of cyclic factors; r = 1, e - 1 or e
    leaves only (e - r + 1, 1, ..., 1).  For f = 2 the parts are at most
    c + 1, and in descending order each is at least the part in the same
    place of A = J(F_p)[2^oo] and of B = J^tw(F_p)[2^oo], 2^c the larger of
    their exponents.  Proof.  Let s be the p-th power Frobenius on
    S_2 = J(F_{p^2})[2^oo]; s^2 = 1.  A = ker(s - 1) is a subgroup of S_2,
    and so is the 2-part of ker(1 + s), which is isomorphic to B (the
    `Reduction` docstring).  A subgroup of a finite abelian 2-group has at
    most as many cyclic factors, and, both in descending order, each of its
    exponents is at most the group's in the same place.  For a in S_2,
    2a = (1 + s)a + (1 - s)a, where s(1 + s)a = (1 + s)a puts (1 + s)a in
    A, and (1 + s)(1 - s)a = (1 - s^2)a = 0 puts (1 - s)a in the 2-part of
    ker(1 + s).  So 2^c * 2a = 0: every element of S_2, and so every
    cyclic factor, has order at most 2^(c + 1).
    """

    def __init__(self, reduction: Reduction, make_curve, order: int, degree: int):
        self.reduction = reduction
        self.make_curve = make_curve
        self.order = order
        self.degree = degree
        self._sylow: dict = {}
        self._ell_pairs: dict = {}

    @cached_property
    def classes(self) -> hyperjac.ClassStream:
        return hyperjac.ClassStream(self.make_curve(), self.order)

    @cached_property
    def add(self):
        return partial(hyperjac.jac_add, self.classes.curve)

    @cached_property
    def identity(self):
        return self.classes.curve.identity()

    def sylow(self, ell: int):
        """The ell-Sylow subgroup of the classes, empty unless ell divides
        the order."""
        if ell not in self._sylow:
            spans = sylow_subgroups(self.classes, self.add, self.identity, [ell])
            self._sylow[ell] = spans.get(ell, ())
        return self._sylow[ell]

    @cached_property
    def _order_exponents(self) -> dict:
        return factorize(self.order)

    @cached_property
    def two_rank(self) -> int:
        """The rank of the group's 2-torsion, from the Frobenius orbits on
        the Weierstrass points (`hyperjac.two_rank_mod_p`)."""
        R = self.reduction
        return hyperjac.two_rank_mod_p(R.model.f_coeffs, R.p, self.degree)

    def exponents(self, ell: int) -> list[int]:
        """The exponents of the ell-Sylow subgroup, sorted."""
        e = self._order_exponents.get(ell, 0)
        if e < 2:
            return [1] * e
        if ell == 2:
            left = self._two_partitions(e)
            return sorted(left[0]) if len(left) == 1 else self._two_exponents(e, self.two_rank)
        if self.degree == 2:
            return sorted(self.reduction.census(1).exponents(ell) + self.reduction.twist.exponents(ell))
        return self.sylow(ell).structure().prime_exponents()[ell]

    def _two_partitions(self, e: int) -> list[tuple[int, ...]]:
        """The partitions of e, 2^e || N and e >= 2, that the 2-part rule of
        the class docstring leaves for S_2, each in descending order; A and
        B are read only when r leaves more than one.  None left shows that
        the rank is not r: CrossCheckError."""
        r = self.two_rank
        R = self.reduction
        left = list(_partitions(e, r, e))
        if len(left) > 1 and self.degree == 2:
            sides = [sorted(cen.exponents(2), reverse=True) for cen in (R.census(1), R.twist)]
            bound = 1 + max(side[0] if side else 0 for side in sides)
            left = [
                parts for parts in left
                if parts[0] <= bound and all(len(side) <= r and all(a >= b for a, b in zip(parts, side)) for side in sides)
            ]
        if not left:
            raise CrossCheckError(f"{R.model.label} at {R.p}: no 2-part of order 2^{e} with the 2-rank {r} fits the census")
        return left

    def _two_exponents(self, e: int, r: int) -> list[int]:
        """The exponents of S_2, 2^e || N, from its 2-rank r > 0, by a span
        of 2*S_2, when the 2-part rule leaves more than one partition.

        Proof.  S_2 = Z/2^a_1 + ... + Z/2^a_r with every a_i >= 1, as r
        counts its cyclic factors.  So 2*S_2 = Z/2^(a_1 - 1) + ... +
        Z/2^(a_r - 1), of order 2^(e - r), and its exponents are the
        a_i - 1 that are not 0: each plus one, and a 1 for each factor that
        doubling kills, are the a_i.  With m = N/2^e, m*J = S_2
        (`groups.sylow_subgroups`), so the images (2m)*x of the classes x
        cover 2*S_2, and their span is 2*S_2 once it has 2^(e - r)
        elements, where it stops.  A span that ends short of that, or
        passes it, shows that the rank is not r: CrossCheckError."""
        cap = 1 << (e - r)
        double = lambda x: self.add(x, x)
        m2 = 2 * (self.order >> e)
        images = (scalar_mul(m2, x, self.add, double, self.identity) for x in self.classes if x != self.identity)
        span = subgroup_span(images, self.add, self.identity, cap=cap, stop_at_cap=True)
        if span is None or len(span) != cap:
            R = self.reduction
            raise CrossCheckError(f"{R.model.label} at {R.p}: 2*S_2 is not of order {cap}, so the 2-rank is not {r}")
        halved = span.structure().prime_exponents().get(2, [])
        return [1] * (r - len(halved)) + [k + 1 for k in halved]

    @cached_property
    def structure(self) -> AbGroupStructure:
        """Invariant factors from `exponents`, checked: the order is N and
        the rank at most 4 (else GroupError), the 2-rank is `two_rank`
        (else CrossCheckError, as when 2 | N but r = 0), and the Weil
        pairing makes the first of four factors divide q - 1, for the
        Jacobian over F_q, q = p^degree, of the curve or of its twist."""
        n = self.order
        st = AbGroupStructure.from_prime_exponents({ell: self.exponents(ell) for ell in self._order_exponents})
        if st.order != n or st.rank() > 4:
            raise GroupError(f"census inconsistent: structure {st} vs order {n} and rank 4")
        R = self.reduction
        if len(st.prime_exponents().get(2, ())) != self.two_rank:
            raise CrossCheckError(
                f"{R.model.label} at {R.p}: {st} does not have the 2-rank {self.two_rank} of its Weierstrass points"
            )
        q = R.p**self.degree
        if len(st.factors) == 4 and (q - 1) % st.factors[0]:
            raise GroupError(f"Weil constraint violated: {st} over F_{q}")
        return st

    def ell_pairs(self, ell: int) -> tuple:
        """(u, v) of the non-trivial ell-torsion classes with deg u = 2 and
        n = 0, sorted.  J[ell] lies in the ell-Sylow subgroup, so only that
        is scanned; it is trivial unless ell divides the group order
        (Cauchy), and then nothing is spanned or scanned.  When every
        exponent of S_ell is 1, S_ell has exponent ell, so S_ell lies in
        J[ell] and is J[ell]: nothing is scanned either.  S_ell is unique,
        so the pairs do not depend on the order in which classes are drawn."""
        if ell not in self._ell_pairs:
            S = self.sylow(ell)
            if set(self.exponents(ell)) <= {1}:
                torsion = sorted(S)
            else:
                double = lambda x: self.add(x, x)
                torsion = sorted(x for x in S if scalar_mul(ell, x, self.add, double, self.identity) == self.identity)
            self._ell_pairs[ell] = tuple((u, v) for u, v, n in torsion if len(u) == 3 and n == 0)
        return self._ell_pairs[ell]


def meet_many(sides) -> AbGroupStructure:
    """Meet of (structure, excluded primes) sides.  A side says nothing at
    an excluded ell, so an ell that occurs in some structure but is excluded
    by every side has no bound: ModelError, never a silent trivial part."""
    sides = [(s, frozenset(ex)) for s, ex in sides]
    primes = set()
    for s, _ in sides:
        primes |= set(s.prime_exponents())
    out = {}
    for ell in primes:
        vectors = [
            s.prime_exponents().get(ell, [])
            for s, ex in sides
            if ell not in ex
        ]
        if not vectors:
            raise ModelError(f"no reduction prime bounds the {ell}-part; add a prime other than {ell}")
        width = min(len(v) for v in vectors)
        if width == 0:
            continue
        mins = []
        for i in range(1, width + 1):
            mins.append(min(v[len(v) - i] for v in vectors))
        out[ell] = sorted(mins)
    return AbGroupStructure.from_prime_exponents(out)


def reduction_bound(model: CurveModel, K, primes) -> AbGroupStructure:
    """Upper bound on J(K)_tors from reductions at the given odd primes: the
    meet over each p of J(F_{p^f}), f the residue degree of K at p, which
    says nothing at ell = p.

    K enters only through those residue degrees, so the meet is computed
    once per (model, ((p, f), ...)) by `_reduction_meet`: two fields with
    the same degrees at the same primes give the same sides, and so the
    same meet."""
    return _reduction_meet(model, tuple((p, K.residue_degree(p)[0]) for p in primes))


@lru_cache(maxsize=256)
def _reduction_meet(model: CurveModel, degrees: tuple) -> AbGroupStructure:
    """The meet of `reduction_bound` from the residue degrees ((p, f), ...).
    A cache keeps no raised exception, so an empty list, a bad reduction or
    the ModelError of `meet_many` is raised again on every call."""
    if not degrees:
        raise ModelError("empty prime list")
    return meet_many((jac_structure(model, p, f), frozenset({p})) for p, f in degrees)


# ---------------------------------------------------------------------------
# Twists: upper bounds at every prime, exact for genus 1, witnesses for
# genus 2
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def genus1_twist_torsion(model: CurveModel, d: int) -> AbGroupStructure:
    """Odd part of the rational torsion of the d-twist of a genus-1 model."""
    return ellcurve.twist_odd_torsion_q(model.elliptic(), d)


@lru_cache(maxsize=256)
def genus2_rational_torsion_bounds(model: CurveModel, primes: tuple = ()):
    """(lower, upper) for J(Q)_tors of a genus-2 model: the subgroup that the
    torsion classes among the small rational-point classes generate, against
    the reduction meet at the given primes.

    The lower bound is computed in J(F_p) at one prime p, the least odd prime
    of good reduction (p not dividing disc(F)*lc(F)) at which every generator
    has p-integral coefficients; denominators come from x2 - x1 with
    |x1|, |x2| <= 40, so every good p > 80 qualifies.  Over Q only one scalar
    multiple per kept generator is computed, as a certificate.

    - Injectivity.  y^2 = F(x) is smooth over Z_(p), so J has good reduction
      at p.  The kernel of reduction J(Q_p) -> J(F_p) is the group of the
      formal group of J on pZ_p, which the formal logarithm maps
      isomorphically onto the torsion-free (pZ_p)^2, as the ramification
      index e = 1 is below p - 1 (Katz, "Galois properties of torsion points
      on abelian varieties", Invent. Math. 1981, appendix).  So reduction is
      injective on J(Q)_tors.
    - Coefficientwise reduction.  Let (u, v, n) have p-integral
      coefficients.  As u is monic, F - v^2 = u*w with w p-integral, and
      the divisor {u = 0, y = v} extends to Spec Z_(p)[x]/(u), finite and
      flat over Z_(p), whose special fibre is {u mod p = 0, y = v mod p}.
      The places at infinity are rational and reduce to those over F_p, so
      the class of (u, v, n) specializes to that of the triple reduced
      coefficientwise, and specialization on the smooth model is the
      reduction map of J.  That triple keeps a monic u of the same degree,
      deg v < deg u, v^2 = F mod u and the weight n, so it is the reduced
      representative over F_p; `is_valid_divisor` checks it, and
      CrossCheckError is raised if it fails.
    - The greedy span.  Walk the generators in order, with H the span of the
      torsion generators kept so far.  If red(D) lies in red(H) and D is
      torsion, then D - h reduces to 0 for some h in H and is torsion, so
      D = h: skipping D loses nothing, and a D of infinite order was never
      kept.  Otherwise let k be the order of red(D).  A torsion D has order
      exactly k, reduction being injective on the cyclic group it
      generates; so k*D = 0 over Q holds exactly when D is torsion, and a D
      that fails it has infinite order and is skipped.  A k above the
      exponent of the reduction bound is not the order of any torsion class,
      so that D is skipped without the certificate.  At the end H is the
      span of all the torsion generators, and reduction maps it
      isomorphically onto the span of the kept reductions.  That span is
      built once, one kept generator at a time on the span before it, and
      its invariant factors are read from its relation rows
      (`groups.Span.structure`).
    """
    CQ = hyperjac.HyperCurve.from_ints(QQ, model.f_coeffs, model.label)
    upper = reduction_bound(model, qfield.QQ_FIELD, primes or model.primes)
    gens = hyperjac.classes_from_rational_points(
        CQ, hyperjac.search_rational_points(model.f_coeffs, 40)
    )
    C = reduction(model, _class_reduction_prime(model, gens)).curve
    add, zero = partial(hyperjac.jac_add, C), C.identity()
    add_q, zero_q = partial(hyperjac.jac_add, CQ), CQ.identity()
    span = subgroup_span((), add, zero)
    for D in gens:
        r = _reduce_class(C, D)
        if r in span:
            continue
        multiples = subgroup_span([r], add, zero, cap=upper.exponent)
        if multiples is None or scalar_mul(len(multiples), D, add_q, lambda x: add_q(x, x), zero_q) != zero_q:
            continue
        span = multiples if len(span) == 1 else subgroup_span([r], add, zero, cap=upper.order, start=span)
        if span is None:  # pragma: no cover
            raise CrossCheckError(f"{model.label}: rational span exceeds reduction bound")
    return span.structure(), upper


def _class_reduction_prime(model: CurveModel, classes) -> int:
    """The least odd prime of good reduction, up to `ff.MAX_TABLE_ORDER`, at
    which every coefficient of the rational classes is p-integral."""
    den = math.lcm(*(c.denominator for u, v, _ in classes for c in (*u, *v)))
    bad = _bad_primes(model)
    for p in range(3, ff.MAX_TABLE_ORDER + 1, 2):
        if is_prime(p) and p not in bad and den % p:
            return p
    raise ModelError(f"{model.label}: no good odd prime up to {ff.MAX_TABLE_ORDER} reduces its rational classes")


def _reduce_class(C: hyperjac.HyperCurve, D):
    """The p-integral Mumford triple D over Q, reduced coefficientwise onto
    C over F_p."""
    dom = C.domain
    u, v = (
        poly.pnormalize([dom.div(dom.from_int(c.numerator), dom.from_int(c.denominator)) for c in part])
        for part in D[:2]
    )
    out = (u, v, D[2])
    if not hyperjac.is_valid_divisor(C, out):
        raise CrossCheckError(f"{C.label}: {D} does not reduce to a divisor class mod {dom.tables.p}")
    return out


@lru_cache(maxsize=256)
def genus2_twist_witness(model: CurveModel, d: int, ell: int):
    """A verified ell-torsion class (u, v, 0) of J^d(Q), the Jacobian of the
    twist y^2 = d*F(x) over Q, reconstructed by CRT from the twisted
    ell-torsion at several primes; None when reconstruction fails.  It is
    certified on that curve over Q: a valid divisor, not 0, and
    ell * D = 0, so of order exactly ell, as ell is prime.

    This is the twisted class of the sum J(K)[odd] = sum_d J^d(Q)[odd].
    Over Q(sqrt d), (x, y) -> (x, y/sqrt(d)) maps y^2 = d*F onto y^2 = F,
    so it identifies J(C^d) with J(C) over Q(sqrt d), carrying (u, v, 0)
    to (u, v/sqrt(d), 0).  A class of J(C^d)(Q) is fixed by the conjugation
    sigma of Q(sqrt d), and sigma negates sqrt(d); so its image E satisfies
    sigma(E) = -E, and every class of J(Q(sqrt d)) that sigma negates comes
    from one of J(C^d)(Q) this way.  So J(C^d)(Q) is the group of those
    classes."""
    CQ = hyperjac.HyperCurve.from_ints(QQ, [d * c for c in model.f_coeffs], model.label)
    add, zero = partial(hyperjac.jac_add, CQ), CQ.identity()
    primes = [p for p, _, _ in _screen_orders(model) if d % p]
    per_prime = []
    for p in primes[:4]:
        data = _twisted_ell_torsion_data(model, d, p, ell)
        if data:
            per_prime.append((p, data))
        if len(per_prime) >= 3:
            break
    if len(per_prime) < 2:
        return None
    (p1, d1), (p2, d2), *extra = per_prime
    for cand1, cand2 in product(d1, d2):
        rec = _crt_and_reconstruct(cand1, p1, cand2, p2, extra)
        if rec and hyperjac.is_valid_divisor(CQ, D := (*rec, 0)) and D != zero:
            if scalar_mul(ell, D, add, lambda x: add(x, x), zero) == zero:
                return D
    return None


@lru_cache(maxsize=256)
def twist_ell_upper(model: CurveModel, d: int, ell: int, primes: tuple) -> AbGroupStructure:
    """Upper bound on the ell-part of the d-twist's rational torsion.

    An order screen at the screen primes p not dividing d (J^d is bad at
    the others) usually kills it outright: there J^d(F_p) has order L_p(1)
    when (d/p) = 1, else L_p(-1) (`_screen_orders`), and ell does not
    divide it.  Otherwise the meet of the ell-parts over the supplied
    primes other than ell is returned, or None when no such prime has good
    reduction."""
    for p, order, twisted in _screen_orders(model):
        if d % p and (order if kronecker(d, p) == 1 else twisted) % ell:
            return AbGroupStructure.trivial()
    sides = []
    for p in primes:
        if p == ell:
            continue
        try:
            sides.append((reduction(model, p).twist_census(d).structure.ell_part(ell), frozenset()))
        except ellcurve.BadReduction:
            continue
    if not sides:
        return None  # no usable evidence for this summand
    return meet_many(sides)


def _twisted_ell_torsion_data(model: CurveModel, d: int, p: int, ell: int):
    """Twisted Mumford pairs (u, v_d) over F_p of the nontrivial ell-torsion
    classes of the d-twisted Jacobian, with deg u = 2, weight 0 and
    v_d^2 = d*F mod u, from the census `Reduction.twist_census(d)`: J(F_p)
    when d is a square mod p, v_d = sqrt(d)*v; else the inert twist
    y^2 = F/n over F_p, v_d = sqrt(d*n)*w, as (sqrt(d*n)*w)^2 =
    d*n*F/n = d*F.  sqrt(d*n) = n*c, c the least root of d/n, is the
    sqrt(d)*t of the twist's embedding (u, t*w) in J(F_{p^2}), t^2 = n,
    with sqrt(d) = c*t the least root of d there."""
    R = reduction(model, p)
    cen = R.twist_census(d)
    t = R.curve.domain.tables
    n = 1 if kronecker(d, p) == 1 else t.from_int(ff.make_field(p, 2).r)
    s = t.mul[n][t.sqrt[t.mul[t.from_int(d)][t.inv[n]]][0]]
    return [(u, tuple(t.mul[s][c] for c in v)) for u, v in cen.ell_pairs(ell)]


def _crt_and_reconstruct(cand1, p1, cand2, p2, extra):
    """(u, v_d) over Q from the candidates (u, v_d) at p1 and p2 and, at
    each (p, data) of `extra`, the first candidate of the same degrees, by
    CRT and rational reconstruction; None when the degrees differ, a
    coefficient has no reconstruction or u is not monic."""
    shape = lambda c: (len(c[0]), len(c[1]))
    if shape(cand1) != shape(cand2):
        return None
    picks = [(cand1, p1), (cand2, p2)]
    for p, data in extra:
        picks += [(c, p) for c in data if shape(c) == shape(cand1)][:1]
    m, residues = 1, [0] * sum(shape(cand1))
    for (u, v), p in picks:
        residues = [crt_pair(r, m, c, p) for r, c in zip(residues, (*u, *v))]
        m *= p
    q = [rational_reconstruct(r, m) for r in residues]
    k = len(cand1[0])
    if None in q or q[k - 1] != 1:
        return None
    return tuple(q[:k]), tuple(q[k:])


# ---------------------------------------------------------------------------
# The derive pipeline
# ---------------------------------------------------------------------------


class TorsionResult(Record):
    label: str
    field_signature: tuple[int, ...]
    lower: AbGroupStructure
    upper: AbGroupStructure
    closed: bool
    trace: tuple = ()

    def __post_init__(self):
        if not self.lower.embeds_in(self.upper):
            raise CrossCheckError(f"lower {self.lower} does not embed in {self.upper}")

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "field": list(self.field_signature),
            "lower": list(self.lower.factors),
            "upper": list(self.upper.factors),
            "closed": self.closed,
            "trace": [dict(t) for t in self.trace],
        }


def check_zeta_precondition(model: CurveModel, K) -> None:
    g = model.zeta_gen
    if g is not None and not K.contains_sqrt(g):
        raise PreconditionError(
            f"{model.label} needs sqrt({g}) in K (cyclotomic base field)"
        )


def derive_torsion(model: CurveModel, K, primes=None) -> TorsionResult:
    check_zeta_precondition(model, K)
    primes = model.primes if primes is None else tuple(primes)
    if primes is None:
        raise ModelError(f"no default reduction primes for {model.label}; supply them")
    # one prime at a time, so that a bad prime is reported before the next
    trace, degrees = [], []
    for p in primes:
        f, _ = K.residue_degree(p)
        trace.append({"step": "reduction", "p": p, "f": f, "structure": list(jac_structure(model, p, f).factors)})
        degrees.append((p, f))
    upper = _reduction_meet(model, tuple(degrees))
    if model.genus == 1:
        exact = _genus1_torsion(model, K)
        trace.append({"step": "tower-torsion-exact", "structure": list(exact.factors)})
        if not exact.embeds_in(upper):
            raise CrossCheckError(
                f"{model.label}/{K}: torsion {exact} escapes reduction bound {upper}"
            )
        return TorsionResult(model.label, K.signature(), exact, exact, True, tuple(trace))
    return _derive_genus2(model, K, primes, upper, trace)


@lru_cache(maxsize=None)
def _bad_primes(model: CurveModel) -> frozenset:
    """The primes of the minimal discriminant (genus 1) or of
    disc(F) * lc(F) (genus 2): outside them and 2 the reduction is good."""
    if model.genus == 1:
        return frozenset(factorize(ellcurve.minimal_disc(model.elliptic())))
    F = model.f_coeffs
    return frozenset(factorize(int(poly.discriminant(F) * F[-1])))


def _genus1_torsion(model: CurveModel, K) -> AbGroupStructure:
    """Exact J(K)_tors of a genus-1 model E, read over K itself: the sum of
    E^d(Q)[odd] (`genus1_twist_torsion`) over the classes d of
    `_twist_classes`, and the points of G = E(Q(2^oo))[2^oo]
    (`_genus1_two_points`) with coordinates in K.

    K is multi-quadratic, so E(K)[2^oo] = G n E(K).  The points of G lie
    over the field F of the search (`_genus1_two_primary`), and F n K is
    spanned by the basis elements of F whose classes lie in K: each lies in
    F n K, and they number [F n K : Q], the classes of F in K being those
    of F n K.  So a point lies in E(K) iff the basis masks of its support
    lie among them, one mask test.  E(K)[2^oo] is a finite subgroup of
    E[2^oo] = (Q_2/Z_2)^2, so of rank at most 2: Z/(n/e) + Z/e with n its
    order and e its exponent, the largest order of its points."""
    classes, points = _genus1_two_points(model)
    image = sum(1 << mask for mask, d in enumerate(classes) if K.contains_sqrt(d))
    orders = [n for support, n in points if not support & ~image]
    e = max(orders, default=1)
    two = AbGroupStructure.from_summands(((len(orders) + 1) // e, e))
    odd = (n for d in _twist_classes(model, K) for n in genus1_twist_torsion(model, d).factors)
    return AbGroupStructure.from_summands(odd).direct_sum(two)


def _twist_classes(model: CurveModel, K) -> tuple[int, ...]:
    """The classes d of K whose primes lie in the set S of `_twist_primes`,
    none when S is empty: the classes of K n Q(zeta_m),
    m = 8 * prod(odd p in S), as Q(sqrt d) lies in Q(zeta_m) iff |disc(d)|
    divides m.  They come in the order of the classes of K: K n Q(zeta_m)
    is a subfield of K, so its span is the part of the span of K that lies
    in it, and both are sorted by `qfield._gen_key`."""
    S = _twist_primes(model)
    return K.cyclotomic_intersection(8 * math.prod(S - {2})).twist_classes() if S else ()


@lru_cache(maxsize=256)
def _screen_orders(model: CurveModel) -> tuple[tuple[int, int, int], ...]:
    """(p, L_p(1), L_p(-1)) at each screen prime p of the model
    (`ellcurve.screen_primes`: odd, of good reduction): the orders of
    J(F_p) and of its inert twist, which is J^d(F_p) for p not dividing d
    and (d/p) = -1.  For genus 1, p + 1 -+ a_p from the traces of
    `ellcurve._screen_traces`; for genus 2, from the zeta data of each
    `Reduction`, which needs a good prime up to `ff.MAX_TABLE_ORDER`, else
    ModelError."""
    if model.genus == 1:
        traces = ellcurve._screen_traces(*ellcurve.short_model(model.elliptic()))
        return tuple((p, p + 1 - ap, p + 1 + ap) for p, ap in traces)
    primes = ellcurve.screen_primes(lambda p: _reduction_or_none(model, p) is not None, ff.MAX_TABLE_ORDER)
    if not primes:
        raise ModelError(f"{model.label}: no odd prime of good reduction up to {ff.MAX_TABLE_ORDER}")
    return tuple((p, *reduction(model, p).zeta[3:5]) for p in primes)


@lru_cache(maxsize=256)
def _twist_primes(model: CurveModel) -> frozenset:
    """S for a model of genus 1 or 2 with Jacobian J: J^d(Q)[odd] != 0 only
    for d = +- a product of primes of S, and S is empty when no d has it.
    Gal(K/Q) of a multi-quadratic K splits J(K)[odd] into J^d(Q)[odd] over
    the classes d of K, so it is the sum over `_twist_classes`.

    Which ell.  Let J^d(Q)[ell] != 0, ell odd, and (p, L_p(1), L_p(-1)) a
    row of `_screen_orders`.  J^d(Q) is the group of classes of J(Q(sqrt d))
    that the conjugation sigma negates (`genus2_twist_witness`; so for
    genus 1).  J has good reduction at p, so the kernel of reduction at a
    prime of Q(sqrt d) above p is pro-p (the formal group): reduction is
    injective on the prime-to-p torsion, into J over a residue field inside
    F_{p^2}.  So ell = p or ell divides #J(F_{p^2}) = L_p(1) * L_p(-1), and
    ell divides g, the gcd over the rows of p * L_p(1) * L_p(-1), which is
    not 0: there is a row, and L_p(+-1) >= (sqrt(p) - 1)^(2 genus) > 0.

    Which d.  For d != 1 and 0 != P in J^d(Q)[ell], P in J(Q(sqrt d)) has
    sigma P = -P != P, so Q(sqrt d) = Q(P) lies in Q(J[ell]), unramified
    outside ell*N (Neron-Ogg-Shafarevich; Serre-Tate), with N supported on
    2 and `_bad_primes`: the model stays smooth of its genus mod every
    other prime.  Q(sqrt d) is ramified at each odd prime of d, so d is
    +- a product of primes of S = {2} u odd primes(g) u primes(N)."""
    g = math.gcd(*(p * order * twisted for p, order, twisted in _screen_orders(model)))
    ells = set(factorize(g)) - {2}
    return frozenset({2} | ells | _bad_primes(model)) if ells else frozenset()


@lru_cache(maxsize=256)
def _genus1_two_primary(model: CurveModel) -> tuple:
    """(F, basis): the one search of a genus-1 model
    (`ellcurve.two_primary_over_tower`), read for every K by
    `_genus1_torsion`."""
    return ellcurve.two_primary_over_tower(*ellcurve.short_model(model.elliptic()))


@lru_cache(maxsize=256)
def _genus1_two_points(model: CurveModel) -> tuple:
    """(classes, points) of the search of a genus-1 model E: the squarefree
    class of each basis mask of its field F, and the (support, order) of
    each point of G = E(Q(2^oo))[2^oo] but O, its support the bitmask of
    the basis masks of F where x or y has a nonzero coordinate.

    The class of a mask with bit i set is that of the mask without it
    times gens[i], and the class of c*d for squarefree c and d is
    c*d / gcd(c, d)^2.  The search's basis (g1, o1), (g2, o2) makes G the
    direct sum <g1> + <g2>, so its points are a*g1 + b*g2 for
    0 <= a < o1 and 0 <= b < o2, each once, and that point has order
    lcm(o1/gcd(a, o1), o2/gcd(b, o2)), the larger of two powers of 2."""
    F, basis = _genus1_two_primary(model)
    E = ellcurve.tower_short_curve(*ellcurve.short_model(model.elliptic()), F)
    sums = [(ellcurve.INF, 1)]
    for g, o in basis:
        multiples = [(ellcurve.INF, 1)]
        for k in range(1, o):
            multiples.append((E.add(multiples[-1][0], g), o // math.gcd(k, o)))
        sums = [(E.add(P, Q), max(n, m)) for P, n in sums for Q, m in multiples]
    points = tuple(
        (sum(1 << mask for mask, (a, b) in enumerate(zip(x.nums, y.nums)) if a or b), n)
        for (x, y), n in sums[1:]
    )
    classes = [1]
    for d in F.gens:
        classes += [c * d // math.gcd(c, d) ** 2 for c in classes]
    return tuple(classes), points


def _derive_genus2(model, K, primes, upper, trace) -> TorsionResult:
    """Two-sided bounds on J(K)_tors of a genus-2 model: the 2-part from the
    Galois orbits on the Weierstrass points over K, the odd part from the
    rational classes, tightened against `upper` by the twist-sum bound and
    by twisted witnesses.  The twists are the classes of `_twist_classes`,
    or d = 1 alone when S is empty; no other class of K carries odd
    torsion (`_twist_primes`)."""
    # 2-part: Weierstrass orbit analysis (exact whenever a rational
    # Weierstrass point exists and every factor has degree <= 3)
    two_lower, two_exact = hyperjac.two_torsion_galois(model.f_coeffs, K)
    trace.append(
        {"step": "two-torsion-orbits", "structure": list(two_lower.factors),
         "exact": two_exact}
    )
    two_upper = _capped_two_part(upper, two_lower) if two_exact else upper.ell_part(2)
    # odd part: rational classes first; witnesses from twists only while a
    # gap against the reduction bound remains
    q_lower, q_upper = genus2_rational_torsion_bounds(model, primes)
    trace.append(
        {"step": "rational-classes", "lower": list(q_lower.factors),
         "upper": list(q_upper.factors)}
    )
    odd_lower = q_lower.odd_part()
    odd_upper = upper.odd_part()
    if odd_lower != odd_upper:
        twists = _twist_classes(model, K) or (1,)
        # tighten the upper prime by prime with the twist-sum bound
        refined = {}
        for ell, es in odd_upper.prime_exponents().items():
            if es == odd_lower.prime_exponents().get(ell, []):
                refined[ell] = es
                continue
            total = AbGroupStructure.trivial()
            for d in twists:
                part = q_upper.ell_part(ell) if d == 1 else twist_ell_upper(model, d, ell, primes)
                if part is None:
                    refined[ell] = es
                    break
                total = total.direct_sum(part)
            else:
                bound = AbGroupStructure.from_prime_exponents({ell: es})
                refined[ell] = meet_many([(bound, frozenset()), (total, frozenset())]).prime_exponents().get(ell, [])
        odd_upper = AbGroupStructure.from_prime_exponents(refined)
        trace.append({"step": "twist-sum-upper", "upper": list(odd_upper.factors)})
    if odd_lower != odd_upper:
        # hunt for twisted torsion witnesses to close the remaining gap
        for d in twists:
            if d == 1 or odd_lower == odd_upper:
                continue
            for ell, es in odd_upper.prime_exponents().items():
                if es == odd_lower.prime_exponents().get(ell, []):
                    continue
                # no witness where the twist's ell-bound is trivial: a witness
                # is a nonzero ell-torsion class of J^d(Q), and reduction
                # embeds that class into a group whose ell-part is trivial
                up = twist_ell_upper(model, d, ell, primes)
                if up is not None and up.order == 1:
                    continue
                witness = genus2_twist_witness(model, d, ell)
                if witness is not None:
                    odd_lower = odd_lower.direct_sum(AbGroupStructure.cyclic(ell))
                    trace.append({"step": "twist-witness", "d": d, "ell": ell})
    lower = two_lower.direct_sum(odd_lower)
    upper_ref = two_upper.direct_sum(odd_upper)
    closed = lower == upper_ref
    trace.append(
        {"step": "assembled", "lower": list(lower.factors),
         "upper": list(upper_ref.factors)}
    )
    return TorsionResult(model.label, K.signature(), lower, upper_ref, closed, tuple(trace))


def _capped_two_part(upper: AbGroupStructure, two_exact_group: AbGroupStructure):
    """With J(K)[2] known exactly, cap the 2-part of the reduction bound:
    the rank cannot exceed the 2-torsion rank."""
    exps = upper.prime_exponents().get(2, [])
    rank = len(two_exact_group.prime_exponents().get(2, []))
    exps = sorted(exps)[len(exps) - min(rank, len(exps)):] if rank else []
    return AbGroupStructure.from_prime_exponents({2: exps})


# ---------------------------------------------------------------------------
# The classification table surface
# ---------------------------------------------------------------------------


def torsion_table(label: str, K, mode: str = "derive", primes=None) -> TorsionResult:
    """J(K)_tors for a builtin Jacobian: mode="derive" recomputes from the
    model; mode="table" reads the shipped classification; a disagreement
    between a closed derivation and the table is a hard error."""
    model = get_model(label)
    if mode not in ("derive", "table"):
        raise ModelError(f"unknown mode {mode!r}")
    tabled = table_lookup(label, K)
    if mode == "table":
        check_zeta_precondition(model, K)
        if tabled is None:  # pragma: no cover
            raise CrossCheckError(f"no tabulated case for {label} over {K}")
        st = AbGroupStructure.from_summands(tabled)
        return TorsionResult(label, K.signature(), st, st, True,
                             ({"step": "table", "structure": list(st.factors)},))
    result = derive_torsion(model, K, primes)
    if result.closed and tabled is not None:
        expect = AbGroupStructure.from_summands(tabled)
        if result.lower != expect:
            raise CrossCheckError(
                f"{label}/{K}: derived {result.lower} but table says {expect}"
            )
    return result


def table_lookup(label: str, K) -> tuple[int, ...] | None:
    model = get_model(label)
    table = model.torsion_table
    if None in table:
        return table[None]
    return table.get(K.cyclotomic_intersection(model.level[1]).signature())
