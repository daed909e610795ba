"""The torsion-bound engine.

Combines residue-field reductions, the quadratic-twist decomposition of odd
torsion, Weierstrass 2-torsion analysis and explicit halving
witnesses into two-sided bounds on J(K)_tors for the eleven
builtin modular Jacobians, over any multi-quadratic field K.  `derive` mode
recomputes everything from the models; `table` mode answers from the
classification tables that data/models.json ships with each model, keyed on
the cyclotomic intersection, and the two are cross-checked whenever both
are available.  The default reduction primes live in the same file.
"""

from __future__ import annotations

import json
import math
import os
from functools import cached_property, lru_cache, partial

from . import ellcurve, ff, hyperjac, poly, qfield
from .groups import (
    AbGroupStructure,
    GroupError,
    scalar_mul,
    subgroup_span,
    sylow_subgroups,
)
from .intutil import crt_pair, factorize, is_prime, kronecker, rational_reconstruct
from .poly import QQ, TowerDomain, code_domain
from .record import Record


class ModelError(ValueError):
    pass


class PreconditionError(ValueError):
    """A theorem hypothesis (e.g. zeta_M in K) is violated."""


class CrossCheckError(RuntimeError):
    """Derived and tabulated answers disagree: data-integrity failure."""


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
    return census(model, p, f, False).structure


def hyper_reduction(model: CurveModel, p: int, f: int) -> hyperjac.HyperCurve:
    """A genus-2 model over F_{p^f}; BadReduction where the reduction is not
    a curve the group law accepts."""
    C = _hyper_reduction_or_none(model, p, f)
    if C is None:
        raise ellcurve.BadReduction(p)
    return C


@lru_cache(maxsize=256)
def _hyper_reduction_or_none(model: CurveModel, p: int, f: int):
    """The reduction of `hyper_reduction`, or None where it is bad: a cache
    keeps no raised exception, so a bad (model, p, f) is built and rejected
    once, like a good one."""
    dom = code_domain(ff.make_field(p, f))
    try:
        C = hyperjac.HyperCurve.from_ints(dom, model.f_coeffs, model.label)
    except hyperjac.JacError:
        return None
    # a sextic model must reduce to a monic one; inert sextics are its twists
    return None if C.degree == 6 and C.Vp is None else C


def twist_reduction(model: CurveModel, p: int) -> hyperjac.HyperCurve:
    """The inert quadratic twist y^2 = F(x)/n over F_p, n the non-residue r
    of `ff.make_field(p, 2)`: a quintic, or a sextic inert at infinity, its
    leading coefficient 1/n a non-square.  BadReduction where p is bad."""
    C = hyper_reduction(model, p, 1)
    t = C.domain.tables
    ninv = t.inv[t.from_int(ff.make_field(p, 2).r)]
    return hyperjac.HyperCurve(C.domain, [t.mul[c][ninv] for c in C.F], model.label)


class Census:
    """One reduction of a genus-2 model, with f = 1 or 2 (the residue
    degrees of a multi-quadratic field), as a collection `classes` of the
    group's elements whose Sylow subgroups are spanned on demand.

    Untwisted, `classes` is J(F_{p^f}) as a lazy `hyperjac.ClassStream`, and
    its order N comes from the zeta function of the curve over F_p
    (`_zeta_orders`, from point counts over F_p and F_{p^2}), so no count
    over F_{p^4} is made.  If
    alpha_1..alpha_4 are the Frobenius eigenvalues over F_p, then
    L_p(T) = prod(1 - alpha_i T) and #J(F_p) = L_p(1).  Over F_{p^2} the
    eigenvalues are the alpha_i^2, so
    L_{p^2}(T^2) = prod(1 - alpha_i^2 T^2) = L_p(T) * L_p(-T), and
    #J(F_{p^2}) = L_{p^2}(1) = L_p(1) * L_p(-1).  A span of ell follows
    `groups.sylow_subgroups`: with ell^e || N and m = N/ell^e,
    m * J = S_ell, and a span of images m*x with ell^e elements is S_ell, so
    the span stops drawing classes as soon as it has ell^e elements.

    Twisted (f = 2), `classes` is J^tw(F_p) for the inert quadratic twist
    y^2 = F/n (`twist_reduction`), the `hyperjac.ClassStream` of that curve
    over F_p, of order prod(1 + alpha_i) = L_p(-1), as Frobenius acts on
    J^tw by the -alpha_i.  No F_{p^2} table is built for it.

    `sylow(ell)` spans S_ell once, on first use, as a `groups.Span` that
    carries one relation row per generator, and `ell_pairs(ell)` reads
    J[ell] from it.  `exponents(ell)` takes the ell-part of the group by
    the first of these that applies, and `structure` assembles the parts:
    - ell || N: S_ell is Z/ell, and nothing is spanned.
    - ell = 2, 2^e || N, and the 2-rank r of `two_rank` is 1, e - 1 or e:
      the only partition of e into r parts is (e - r + 1, 1, ..., 1).
    - ell odd, untwisted, f = 2: S_ell(J(F_p)) + S_ell(J^tw(F_p)), read
      from the censuses `census(model, p, 1, False)` and
      `census(model, p, 2, True)`.  Proof.  Let s be the p-th power
      Frobenius on A = J(F_{p^2})[ell^oo]; s^2 = 1 on J(F_{p^2}).  As ell
      is odd, 2 is a unit on A, and a = (a + s a)/2 + (a - s a)/2 puts
      A = ker(s - 1) + ker(s + 1), a direct sum: s a = a = -s a gives
      2a = 0, so a = 0.  ker(s - 1) is J(F_p)[ell^oo], and ker(s + 1) is
      the ell-part of ker(1 + s), which is isomorphic to J^tw(F_p).  With
      t^2 = n, (x, y) -> (x, t*y) is an isomorphism over F_{p^2} from
      y^2 = F/n onto y^2 = F, so (u, w, 0) -> (u, t*w, 0) is injective.  On
      a sextic, a class of J^tw(F_p) other than 0 is [P + Q - (the place at
      infinity)] with P + Q affine, deg u = 2, and its image
      [P' + Q' - infinity_+ - infinity_-] has weight 0, as on a quintic.  s
      fixes u in F_p[x] and the weight and negates t*w, so the image lies
      in ker(1 + s), the kernel of the separable isogeny 1 + s, whose
      degree is L(-1), the characteristic polynomial of Frobenius at -1.
    - otherwise the Smith form of the relation rows of `sylow(ell)`.
    """

    def __init__(self, model: CurveModel, p: int, f: int, twisted: bool):
        C = twist_reduction(model, p) if twisted else hyper_reduction(model, p, f)
        self.add = partial(hyperjac.jac_add, C)
        self.identity = C.identity()
        order, twisted_order = _zeta_orders(model, p)
        self.classes = hyperjac.ClassStream(
            C, twisted_order if twisted else order if f == 1 else order * twisted_order
        )
        self.tables = C.domain.tables
        self.model, self.p = model, p
        self.degree = 1 if twisted else f  # the group is rational over F_{p^degree}
        self._sylow: dict = {}
        self._ell_pairs: dict = {}

    def sylow(self, ell: int):
        """The ell-Sylow subgroup of the classes, empty unless ell divides
        the order."""
        if ell not in self._sylow:
            spans = sylow_subgroups(self.classes, self.add, self.identity, [ell])
            self._sylow[ell] = spans.get(ell, ())
        return self._sylow[ell]

    @cached_property
    def _order_exponents(self) -> dict:
        return factorize(len(self.classes))

    @cached_property
    def two_rank(self) -> int:
        """The rank of the group's 2-torsion, from the Frobenius orbits on
        the Weierstrass points (`hyperjac.two_rank_mod_p`)."""
        return hyperjac.two_rank_mod_p(self.model.f_coeffs, self.p, self.degree)

    def exponents(self, ell: int) -> list[int]:
        """The exponents of the ell-Sylow subgroup, sorted."""
        e = self._order_exponents.get(ell, 0)
        if e < 2:
            return [1] * e
        if ell == 2:
            r = self.two_rank
            if 0 < r and r in (1, e - 1, e):
                return [1] * (r - 1) + [e - r + 1]
        elif self.degree == 2:
            return sorted(
                census(self.model, self.p, 1, False).exponents(ell)
                + census(self.model, self.p, 2, True).exponents(ell)
            )
        return self.sylow(ell).structure().prime_exponents()[ell]

    @cached_property
    def structure(self) -> AbGroupStructure:
        """Invariant factors from `exponents`, checked: the order is N and
        the rank at most 4 (else GroupError), the 2-rank is `two_rank`
        (else CrossCheckError, as when 2 | N but r = 0), and the Weil
        pairing makes the first of four factors divide q - 1, for the
        Jacobian over F_q, q = p^degree, of the curve or of its twist."""
        n = len(self.classes)
        st = AbGroupStructure.from_prime_exponents({ell: self.exponents(ell) for ell in self._order_exponents})
        if st.order != n or st.rank() > 4:
            raise GroupError(f"census inconsistent: structure {st} vs order {n} and rank 4")
        if len(st.prime_exponents().get(2, ())) != self.two_rank:
            raise CrossCheckError(
                f"{self.model.label} at {self.p}: {st} does not have the 2-rank {self.two_rank} of its Weierstrass points"
            )
        q = self.p**self.degree
        if len(st.factors) == 4 and (q - 1) % st.factors[0]:
            raise GroupError(f"Weil constraint violated: {st} over F_{q}")
        return st

    def ell_pairs(self, ell: int) -> tuple:
        """(u, v) of the non-trivial ell-torsion classes with deg u = 2 and
        n = 0, sorted.  J[ell] lies in the ell-Sylow subgroup, so only that
        is scanned; it is trivial unless ell divides the group order
        (Cauchy), and then nothing is spanned or scanned.  S_ell is unique,
        so the pairs do not depend on the order in which classes are drawn."""
        if ell not in self._ell_pairs:
            double = lambda x: self.add(x, x)
            torsion = sorted(
                x
                for x in self.sylow(ell)
                if scalar_mul(ell, x, self.add, double, self.identity) == self.identity
            )
            self._ell_pairs[ell] = tuple((u, v) for u, v, n in torsion if len(u) == 3 and n == 0)
        return self._ell_pairs[ell]


@lru_cache(maxsize=256)
def census(model: CurveModel, p: int, f: int, twisted: bool) -> Census:
    """The census of J(F_{p^f}), or for f = 2 with `twisted` of the inert
    twist over F_p; built once per process, and kept for the 256 most
    recent reductions."""
    return Census(model, p, f, twisted)


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


def genus2_twist_reduction(model: CurveModel, d: int, p: int) -> AbGroupStructure:
    """Structure of the d-twisted Jacobian over F_p: the base reduction when
    d is a square mod p, else the inert twist.
    Twists in the same square class mod p share the computation."""
    if d % p == 0:
        raise ellcurve.BadReduction(p)
    if kronecker(d, p) == 1:
        return jac_structure(model, p, 1)
    return census(model, p, 2, True).structure


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
    C = hyper_reduction(model, _class_reduction_prime(model, gens), 1)
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
    """A verified ell-torsion divisor of the d-twist over Q, reconstructed by
    CRT from twisted ell-torsion at several primes and certified over the
    tower Q(sqrt(d)); None when reconstruction fails.

    The returned witness is a divisor class on the base curve over Q(sqrt d)
    anti-fixed by conjugation, i.e. a genuine twisted class."""
    K = qfield.MultiQuadField([d])
    CK = hyperjac.HyperCurve.from_ints(TowerDomain(K), model.f_coeffs, model.label)
    add, zero = partial(hyperjac.jac_add, CK), CK.identity()
    s = K.sqrt_gen(d)
    sinv = K.one() / s
    primes = [p for p in (3, 5, 7, 11, 13, 17, 19) if _good_twist_prime(model, d, p)]
    per_prime = []
    for p in primes[:4]:
        data = _twisted_ell_torsion_data(model, d, p, ell)
        if data:
            per_prime.append((p, data))
        if len(per_prime) >= 3:
            break
    if len(per_prime) < 2:
        return None
    # CRT all pairings of candidates across the collected primes
    (p1, d1), (p2, d2) = per_prime[0], per_prime[1]
    extra = per_prime[2:] if len(per_prime) > 2 else []
    for cand1 in d1:
        for cand2 in d2:
            rec = _crt_and_reconstruct(cand1, p1, cand2, p2, extra)
            if rec is None:
                continue
            u_q, vd_q = rec
            # lift to the tower: v = v_d / sqrt(d)
            u = tuple(K.from_rational(c) for c in u_q)
            v = tuple(K.from_rational(c) * sinv for c in vd_q)
            D = (u, v, 0)
            if not hyperjac.is_valid_divisor(CK, D):
                continue
            # ell is prime, so D != 0 with ell*D = 0 has order exactly ell
            if D == zero or scalar_mul(ell, D, add, lambda x: add(x, x), zero) != zero:
                continue
            signs = (-1,)  # the conjugation negating sqrt(d)
            Dsig = (
                tuple(c.conjugate(signs) for c in u),
                tuple(c.conjugate(signs) for c in v),
                0,
            )
            if Dsig != hyperjac.jac_neg(CK, D):
                continue
            return D
    return None


def _good_twist_prime(model: CurveModel, d: int, p: int) -> bool:
    if d % p == 0:
        return False
    try:
        hyper_reduction(model, p, 1)
    except ellcurve.BadReduction:
        return False
    return True


@lru_cache(maxsize=256)
def zeta(model: CurveModel, p: int, f: int) -> tuple:
    """(N1, N2, L, #J, L(-1)) of `hyperjac.zeta_order` for the reduction
    over F_{p^f}, once per (model, p, f): the census and the CLI's
    cross-check read the same one.  Over F_p they are counted.

    Over F_{p^2} they are read from L_p = (1, -e1, e2, -p*e1, p^2).  The
    Frobenius eigenvalues over F_{p^2} are the alpha_i^2, so
    L_{p^2}(T^2) = L_p(T) * L_p(-T) = (1 + e2 T^2 + p^2 T^4)^2
    - (e1 T + p e1 T^3)^2 = 1 + a1 T^2 + a2 T^4 + p^2 a1 T^6 + p^4 T^8, with
    a1 = 2 e2 - e1^2 and a2 = e2^2 + 2 p^2 - 2 p e1^2.  With q = p^2, the
    power sums of the alpha_i^2 give N1 = q + 1 + a1 and
    N2 = q^2 + 1 - (a1^2 - 2 a2).  One independent check stays: N1 counted
    over F_{p^2} (`hyperjac.curve_count`) must agree, else CrossCheckError."""
    if f == 1:
        return hyperjac.zeta_order(hyper_reduction(model, p, 1))
    _, c1, e2, _, _ = zeta(model, p, 1)[2]  # c1 = -e1 enters squared
    q = p * p
    a1 = 2 * e2 - c1 * c1
    a2 = e2 * e2 + 2 * q - 2 * p * c1 * c1
    L = (1, a1, a2, q * a1, q * q)
    N1 = q + 1 + a1
    counted = hyperjac.curve_count(hyper_reduction(model, p, 2))
    if counted != N1:
        raise CrossCheckError(f"{model.label} over F_{q}: {counted} points, but {N1} from the zeta function over F_{p}")
    return N1, q * q + 1 - (a1 * a1 - 2 * a2), L, sum(L), 1 - a1 + a2 - q * a1 + q * q


def _zeta_orders(model: CurveModel, p: int) -> tuple[int, int]:
    """(#J(F_p), twisted order L(-1)) from the zeta oracle over F_p."""
    z = zeta(model, p, 1)
    return z[3], z[4]


@lru_cache(maxsize=256)
def twist_ell_upper(model: CurveModel, d: int, ell: int, primes: tuple) -> AbGroupStructure:
    """Upper bound on the ell-part of the d-twist's rational torsion.

    An order screen over a pool of good primes usually kills it outright
    (ell does not divide the twisted group order at some prime); otherwise
    the meet of the ell-parts over the supplied primes other than ell is
    returned, or None when no such prime has good reduction."""
    for p in range(3, 48, 2):
        if not is_prime(p) or d % p == 0:
            continue
        try:
            orders = _zeta_orders(model, p)
        except ellcurve.BadReduction:
            continue
        order = orders[0] if kronecker(d, p) == 1 else orders[1]
        if order % ell:
            return AbGroupStructure.trivial()
    sides = []
    for p in primes:
        if p == ell:
            continue
        try:
            sides.append((genus2_twist_reduction(model, d, p).ell_part(ell), frozenset()))
        except ellcurve.BadReduction:
            continue
    if not sides:
        return None  # no usable evidence for this summand
    return meet_many(sides)


def _twisted_ell_torsion_data(model: CurveModel, d: int, p: int, ell: int):
    """Twisted Mumford pairs (u, v_d) over F_p of the nontrivial ell-torsion
    classes of the d-twisted Jacobian, with deg u = 2, weight 0 and
    v_d^2 = d*F mod u: from J(F_p) when d is a square mod p, v_d = sqrt(d)*v;
    else from the inert twist y^2 = F/n over F_p, v_d = sqrt(d*n)*w, as
    (sqrt(d*n)*w)^2 = d*n*F/n = d*F.  sqrt(d*n) = n*c, c the least root of
    d/n, is the sqrt(d)*t of the twist's embedding (u, t*w) in J(F_{p^2}),
    t^2 = n, with sqrt(d) = c*t the least root of d there."""
    twisted = kronecker(d, p) != 1
    cen = census(model, p, 2 if twisted else 1, twisted)
    t = cen.tables
    n = t.from_int(ff.make_field(p, 2).r) if twisted else 1
    s = t.mul[n][t.sqrt[t.mul[t.from_int(d)][t.inv[n]]][0]]
    return [(u, tuple(t.mul[s][c] for c in v), p) for u, v in cen.ell_pairs(ell)]


def _crt_and_reconstruct(cand1, p1, cand2, p2, extra):
    """Rationally reconstruct (u, v_d) from per-prime data; None on failure."""
    u1, v1, _ = cand1
    u2, v2, _ = cand2
    if len(u1) != len(u2) or len(v1) != len(v2):
        return None
    m = p1 * p2
    residues_u = [crt_pair(a, p1, b, p2) for a, b in zip(u1, u2)]
    residues_v = [crt_pair(a, p1, b, p2) for a, b in zip(v1, v2)]
    for p3, data3 in extra:
        matched = None
        for u3, v3, _ in data3:
            if len(u3) == len(u1) and len(v3) == len(v1):
                matched = (u3, v3)
                break
        if matched:
            residues_u = [crt_pair(a, m, b, p3) for a, b in zip(residues_u, matched[0])]
            residues_v = [crt_pair(a, m, b, p3) for a, b in zip(residues_v, matched[1])]
            m *= p3
    u_q = [rational_reconstruct(r, m) for r in residues_u]
    v_q = [rational_reconstruct(r, m) for r in residues_v]
    if any(c is None for c in u_q) or any(c is None for c in v_q):
        return None
    if u_q[-1] != 1:
        return None
    return tuple(u_q), tuple(v_q)


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
        K_S = torsion_support_field(model, K, primes, upper)
        exact = _genus1_torsion(model, K_S, upper.ell_part(2).exponent)
        trace.append({"step": "tower-torsion-exact", "structure": list(exact.factors)})
        if not exact.embeds_in(upper):
            raise CrossCheckError(
                f"{model.label}/{K}: torsion {exact} escapes reduction bound {upper}"
            )
        return TorsionResult(model.label, K.signature(), exact, exact, True, tuple(trace))
    return _derive_genus2(model, K, primes, upper, trace)


def torsion_support_field(model: CurveModel, K, primes, upper: AbGroupStructure):
    """K_S: the subfield of K generated by the sqrt(d) with every prime of d
    in S = {2} u primes(minimal disc) u primes(upper.order), together with
    a lone reduction prime.  For a genus-1 model J(K)_tors = J(K_S)_tors.
    A genus-2 model y^2 = F(x) takes the primes of disc(F) * lc(F) for
    those of the minimal disc, and then every twist class d of K outside
    K_S has J^d(Q)[ell] = 0 for each odd ell dividing upper.order.

    Proof.  Let P in J(K) have order n.  Every prime ell of n divides
    upper.order: reduction at a good p != ell is injective on the ell-part,
    and `meet_many` refuses an ell that occurs but no such p bounds.  Only
    with one distinct reduction prime p can the p-part go unbounded without
    occurring, so that p joins S.  Q(P) lies in K n Q(J[n]), and
    Q(J[n]) is unramified outside n*N (Neron-Ogg-Shafarevich; Serre-Tate),
    with N supported on the primes of the minimal discriminant.  Q(P) is
    multi-quadratic, spanned by its quadratic subfields Q(sqrt d), and
    Q(sqrt d) is ramified at every odd p | d; with 2 in S, each such d has
    all its primes in S.  So Q(P) lies in K_S, and J(K)_tors = J(K_S)_tors.
    Q(sqrt d) lies in Q(zeta_m) iff |disc| divides m, so for
    m = 8 * prod(odd p in S), K n Q(zeta_m) is exactly K_S.

    Proof for genus 2.  Let ell be odd, d != 1 and 0 != P in J^d(Q)[ell].
    As a point of J(Q(sqrt d)), P satisfies sigma P = -P != P, so Q(P) is
    Q(sqrt d), which is ramified at every odd prime of d.  Q(P) lies in
    Q(J[ell]), unramified outside ell*N, and N is supported on 2 and the
    primes of disc(F) * lc(F): y^2 = F(x) stays a smooth genus-2 curve mod
    every other prime.  So every odd prime of d divides
    ell * disc(F) * lc(F) and lies in S, and d is a class of K_S.
    """
    support = {2} | _bad_primes(model) | set(upper.prime_exponents())
    if len(set(primes)) == 1:
        support |= set(primes)
    return K.cyclotomic_intersection(8 * math.prod(support - {2}))


@lru_cache(maxsize=None)
def _bad_primes(model: CurveModel) -> frozenset:
    """The primes of the minimal discriminant (genus 1) or of
    disc(F) * lc(F) (genus 2): outside them and 2 the reduction is good."""
    if model.genus == 1:
        return frozenset(factorize(ellcurve.minimal_disc(model.elliptic())))
    F = model.f_coeffs
    return frozenset(factorize(int(poly.discriminant(F) * F[-1])))


def _genus1_torsion(model: CurveModel, K, cap: int) -> AbGroupStructure:
    """Exact J(K)_tors of a genus-1 model, where cap bounds the exponent of
    J(K)[2^oo] (`ellcurve.two_primary_over_tower`): the odd part cached per
    (model, K) by `_genus1_odd_part`, the 2-part from the tower over
    K_2 = K n Q(zeta_m), m = 8 * prod(odd p | N), cached per
    (model, K_2, cap).  Derive passes K = K_S.

    Proof that J(K)[2^oo] = J(K_2)[2^oo].  A point P of J(K)[2^n] has
    Q(P) in K n Q(J[2^n]), and Q(J[2^n]) is unramified outside 2N
    (Neron-Ogg-Shafarevich), with N supported on `_bad_primes`.  Q(P) is
    multi-quadratic, spanned by its quadratic subfields Q(sqrt d), and
    Q(sqrt d) is ramified at every odd p | d; so all those p divide N,
    |disc Q(sqrt d)| divides m, and sqrt(d) lies in K_2.  So P lies in
    J(K_2), and cap, a bound on the exponent of J(K)[2^oo], bounds the
    same group over K_2."""
    K_2 = K.cyclotomic_intersection(8 * math.prod(_bad_primes(model) - {2}))
    return _genus1_odd_part(model, K).direct_sum(_genus1_two_primary(model, K_2, cap))


@lru_cache(maxsize=256)
def _genus1_odd_part(model: CurveModel, K) -> AbGroupStructure:
    """J(K)[odd] through the twist decomposition: the sum over the twist
    classes d of K of J^d(Q)[odd], each summand from `genus1_twist_torsion`,
    cached per (model, d).  The sum reads K only through its twist classes,
    so it is computed once per (model, K); the factors of the summands are
    pooled into one canonical form, which is the iterated direct sum, and a
    trivial summand adds no factor."""
    return AbGroupStructure.from_summands(
        n for d in K.twist_classes() for n in genus1_twist_torsion(model, d).factors
    )


@lru_cache(maxsize=256)
def _genus1_two_primary(model: CurveModel, K, cap: int) -> AbGroupStructure:
    A, B = ellcurve.short_model(model.elliptic())
    return ellcurve.two_primary_over_tower(A, B, K, cap)[0]


def _derive_genus2(model, K, primes, upper, trace) -> TorsionResult:
    """Two-sided bounds on J(K)_tors of a genus-2 model: the 2-part from the
    Galois orbits on the Weierstrass points over K, the odd part from the
    rational classes, tightened against `upper` by the twist-sum bound and
    by twisted witnesses.  The twists are the classes of K_S
    (`K_S.twist_classes()`), which are exactly the classes d of K with
    sqrt(d) in K_S, in the same order: K_S is a subfield of K, so its span
    is the part of the span of K that lies in K_S, and both are sorted by
    `qfield._gen_key`.  Twists outside K_S carry no odd torsion
    (`torsion_support_field`)."""
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
        twists = torsion_support_field(model, K, primes, upper).twist_classes()
        # tighten the upper prime by prime with the twist-sum bound
        refined = {}
        for ell, es in odd_upper.prime_exponents().items():
            if es == odd_lower.prime_exponents().get(ell, []):
                refined[ell] = es
                continue
            total = AbGroupStructure.trivial()
            ok = True
            for d in twists:
                part = (
                    q_upper.ell_part(ell)
                    if d == 1
                    else twist_ell_upper(model, d, ell, primes)
                )
                if part is None:
                    ok = False
                    break
                total = total.direct_sum(part)
            if ok:
                merged = meet_many(
                    [
                        (AbGroupStructure.from_prime_exponents({ell: es}), frozenset()),
                        (total, frozenset()),
                    ]
                )
                refined[ell] = merged.prime_exponents().get(ell, [])
            else:
                refined[ell] = es
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
