"""Per-layer metrics from the traces that ``tracer.py`` writes.

Each traced child reports, per span name (``layer.function``), its call
count, inclusive time and self time; counters kept by the tracer's hooks;
the ``mwtors`` memo hits and misses; and its import time.  The metrics here
sum them over the traced pass.  A layer's self time is the sum of the self
times of its spans.
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "classify", "mwtors", "ellcurve", "hyperjac", "groups", "qfield", "poly", "ff", "intutil")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    hits = misses = 0
    for tr in traces:
        for name, (n, _total, own) in tr["spans"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        for key, n in tr["counters"].items():
            counters[key] = counters.get(key, 0) + n
        hits += tr["memo"]["hits"]
        misses += tr["memo"]["misses"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, own in self_s.items():
        layer_self[name.split(".")[0]] += own

    def n(name):
        return calls.get(name, 0)

    def c(key):
        return counters.get(key, 0)

    add_cls = n("hyperjac.add_cls")
    adds = c("groups.subgroup_span.adds")
    count, s, ratio = "count", "s", "ratio"
    return {
        "hyperjac.add_cls.calls": (add_cls, count),
        "hyperjac.add_cls.self_s": (self_s.get("hyperjac.add_cls", 0.0), s),
        "hyperjac.classes_enumerated": (c("hyperjac.classes_enumerated"), count),
        "hyperjac.add_cls.per_class": (_ratio(add_cls, c("hyperjac.classes_enumerated")), ratio),
        "hyperjac.jac_add.calls": (n("hyperjac.jac_add"), count),
        "hyperjac.zeta_order.calls": (n("hyperjac.zeta_order"), count),
        "hyperjac.self_s": (layer_self["hyperjac"], s),
        "groups.structure_from_elements.elements": (c("groups.structure_from_elements.elements"), count),
        "groups.subgroup_span.adds": (adds, count),
        "groups.subgroup_span.adds_per_element": (_ratio(adds, c("groups.subgroup_span.elements")), ratio),
        "groups.self_s": (layer_self["groups"], s),
        "qfield.tower_mul.calls": (n("qfield.TowerElem.__mul__"), count),
        "qfield.tower_mul.coeff_products": (c("qfield.tower_mul.coeff_products"), count),
        "qfield.tower_inverse.calls": (n("qfield.TowerElem.inverse"), count),
        "qfield.tower_addsub.calls": (n("qfield.TowerElem.__add__") + n("qfield.TowerElem.__sub__"), count),
        "qfield.sqrt_in_tower.calls": (n("qfield.sqrt_in_tower"), count),
        "qfield.self_s": (layer_self["qfield"], s),
        "ellcurve.torsion_structure_q.calls": (n("ellcurve.torsion_structure_q"), count),
        "ellcurve.point_add.calls": (n("ellcurve.EllipticCurve.add"), count),
        "ellcurve.two_primary_over_tower.self_s": (self_s.get("ellcurve.two_primary_over_tower", 0.0), s),
        "ellcurve.self_s": (layer_self["ellcurve"], s),
        "intutil.integer_cubic_roots.calls": (n("intutil.integer_cubic_roots"), count),
        "intutil.self_s": (layer_self["intutil"], s),
        "mwtors.derive_torsion.calls": (n("mwtors.derive_torsion"), count),
        "mwtors.memo.hits": (hits, count),
        "mwtors.memo.misses": (misses, count),
        "mwtors.memo.hit_ratio": (_ratio(hits, hits + misses), ratio),
        "mwtors.self_s": (layer_self["mwtors"], s),
        "poly.low_degree_factors.calls": (n("poly.low_degree_factors"), count),
        "poly.primitive_kernel_poly_b.calls": (n("poly.primitive_kernel_poly_b"), count),
        "poly.self_s": (layer_self["poly"], s),
        "ff.tables.builds": (c("ff.tables.builds"), count),
        "ff.tables.entries": (c("ff.tables.entries"), count),
        "ff.tables.self_s": (self_s.get("ff.tables", 0.0), s),
        "classify.verify_exceptional.self_s": (self_s.get("classify.verify_exceptional", 0.0), s),
        "classify.classify.calls": (n("classify.classify"), count),
        "classify.self_s": (layer_self["classify"], s),
        "cli.import_s": (statistics.median(tr["import_s"] for tr in traces) if traces else 0.0, s),
        "cli.main.self_s": (layer_self["cli"], s),
    }
