"""Run one mqtorsion CLI call with per-layer tracing installed from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/tracer.py TRACE.json torsion --model "X1(15)" --field=-3,5

The program is not modified.  After ``mqtorsion.cli`` is imported, this
script wraps

* every public function of every ``mqtorsion`` module, in every module
  namespace that binds it (``hyperjac`` and ``ellcurve`` import
  ``structure_from_elements`` by name, ``mwtors`` imports ``subgroup_span``,
  and so on), so that calls through any binding are seen;
* the arithmetic methods of ``qfield.TowerElem`` and the point methods of
  ``ellcurve.EllipticCurve``;
* the ``add_cls`` closure that ``hyperjac.fast_jac_ops`` returns.

It then runs ``cli.main`` on the given arguments.  Spans are aggregated in
memory (calls, inclusive and self time per span name, and call counts per
caller/callee edge) and written to TRACE.json when the call ends.  Standard
output and the exit code are the CLI's own; the wrappers return exactly what
the wrapped functions return.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("cli", "classify", "mwtors", "ellcurve", "hyperjac", "groups", "qfield", "poly", "ff", "intutil")

# TowerElem methods that are wrapped besides the public ones
TOWER_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__")

clock = time.perf_counter


def _nonzero(x) -> int:
    coords = getattr(x, "coords", ())
    return len(coords) - coords.count(0)


class Tracer:
    """Aggregated spans: a stack of open spans gives each span's self time
    (its duration minus the time of the spans it caused)."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}  # (caller, callee) -> calls
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [name, child_s]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else "", name)
                edges[key] = edges.get(key, 0) + 1
                if parent:
                    parent[1] += dt

        functools.update_wrapper(traced, fn)
        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "counters": self.counters,
        }


def _hooks(tr: Tracer) -> dict:
    """Counting hooks for the functions whose arguments or results carry a
    work measure; each returns a replacement that calls the original."""
    seen_classes: dict[int, object] = {}
    seen_tables: dict[int, object] = {}

    def structure_from_elements(fn):
        def hook(elements, *args, **kwargs):
            tr.count("groups.structure_from_elements.elements", len(elements))
            return fn(elements, *args, **kwargs)

        return hook

    def subgroup_span(fn):
        def hook(generators, add, *args, **kwargs):
            def counted_add(a, b):
                tr.count("groups.subgroup_span.adds")
                return add(a, b)

            out = fn(generators, counted_add, *args, **kwargs)
            if out is not None:
                tr.count("groups.subgroup_span.elements", len(out))
            return out

        return hook

    def all_classes(fn):
        def hook(*args, **kwargs):
            out = fn(*args, **kwargs)
            if id(out) not in seen_classes:  # a fresh enumeration, not a cache hit
                seen_classes[id(out)] = out
                tr.count("hyperjac.classes_enumerated", len(out))
            return out

        return hook

    def fast_jac_ops(fn):
        def hook(*args, **kwargs):
            add_cls, *rest = fn(*args, **kwargs)
            return (tr.wrap("hyperjac.add_cls", add_cls), *rest)

        return hook

    def tables(fn):
        def hook(*args, **kwargs):
            out = fn(*args, **kwargs)
            if id(out) not in seen_tables:
                seen_tables[id(out)] = out
                tr.count("ff.tables.builds")
                tr.count("ff.tables.entries", sum(map(len, out.add)) + sum(map(len, out.mul)))
            return out

        return hook

    def tower_mul(fn):
        def hook(a, b):
            tr.count("qfield.tower_mul.coeff_products", _nonzero(a) * _nonzero(b))
            return fn(a, b)

        return hook

    return {
        "groups.structure_from_elements": structure_from_elements,
        "groups.subgroup_span": subgroup_span,
        "hyperjac.all_classes": all_classes,
        "hyperjac.fast_jac_ops": fast_jac_ops,
        "ff.tables": tables,
        "qfield.TowerElem.__mul__": tower_mul,
    }


def _is_program_function(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    plain = isinstance(obj, types.FunctionType)
    cached = hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")
    return (plain or cached) and module.startswith("mqtorsion.")


def install(tr: Tracer, modules: dict) -> list:
    """Wrap the program's public functions and hot methods in place.

    Returns the lru_cache functions defined in ``mwtors`` (public or not),
    whose ``cache_info`` gives the memo hit and miss counts."""
    hooks = _hooks(tr)

    def traced(name, fn):
        hook = hooks.get(name)
        return tr.wrap(name, hook(fn) if hook else fn)

    wrappers: dict[int, object] = {}
    memo = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not _is_program_function(obj) or obj.__module__ != mod.__name__:
                continue
            if layer == "mwtors" and hasattr(obj, "cache_info"):
                memo.append(obj)
            if not attr.startswith("_"):
                wrappers[id(obj)] = traced(f"{layer}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and not attr.startswith("_"):
                setattr(mod, attr, wrappers[id(obj)])

    for layer, cls in (("qfield", modules["qfield"].TowerElem), ("ellcurve", modules["ellcurve"].EllipticCurve)):
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr.startswith("_") and not (layer == "qfield" and attr in TOWER_ARITH):
                continue
            setattr(cls, attr, traced(f"{layer}.{cls.__name__}.{attr}", obj))
    return memo


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = clock()
    import mqtorsion.cli as cli

    import_s = clock() - t0
    modules = {name: sys.modules[f"mqtorsion.{name}"] for name in LAYERS}
    tr = Tracer()
    memo = install(tr, modules)
    rc = 1
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        report = tr.dump()
        report["import_s"] = import_s
        infos = [fn.cache_info() for fn in memo]
        report["memo"] = {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}
        with open(out_path, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
