"""The three workloads: the CLI calls each one makes, built from the seed.

The program receives only the generated command lines.  Field literals are
built here from generator lists; which subfields exist and which models a
field admits is computed here too, from the F_2-span of the generators, so
that inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

MODELS_JSON = Path(__file__).resolve().parent.parent / "src" / "mqtorsion" / "data" / "models.json"

# generators of the acceptance matrix: 52 distinct subfields
MATRIX_GENS = (-1, 2, -2, 3, -3, 5, -7)
# the torsion models need sqrt(d) in K when zeta_M is not rational
ZETA_GEN = {"X1(3,9)": -3, "X1(4,8)": -1, "X1(6,6)": -3}
GENUS1 = ("X1(11)", "X1(14)", "X1(15)", "X1(2,10)", "X1(2,12)", "X1(3,9)", "X1(4,8)", "X1(6,6)")
CLASSIFY_TARGETS = {
    "11": "X1(11)", "13": "X1(13)", "14": "X1(14)", "15": "X1(15)", "16": "X1(16)", "18": "X1(18)",
    "2x10": "X1(2,10)", "2x12": "X1(2,12)", "3x9": "X1(3,9)", "4x8": "X1(4,8)", "6x6": "X1(6,6)",
}

# tower_derive: K = Q(sqrt of LEVEL_GENS[model], sqrt(+-p) for distinct primes
# p in TOWER_PRIMES), one field per (model, log2 degree) in TOWER_SET.  K holds
# the model's level field, so J(K)_tors = Z/2 x Z/8 and the 2-primary search
# halves and probes order 16 inside the tower (qfield).  The seeded primes
# divide neither a discriminant of the model nor its default reduction primes
# (7, 13 and 5, 7), so each adds exactly one prime to the twist discriminants
# of the Nagell-Lutz step (intutil) and the reductions stay unramified.  The
# shape of the work is fixed, so its cost does not move with the seed.
# X1(15) stops at degree 16: at 32 one field takes about 6 s and at 64 about
# 19 s, which leaves too few samples in a run.
LEVEL_GENS = {"X1(15)": (-3, 5), "X1(2,12)": (-1, 3)}
TOWER_PRIMES = (11, 17, 19, 23, 29)
TOWER_SET = (("X1(15)", 3), ("X1(15)", 4), ("X1(2,12)", 4), ("X1(2,12)", 5), ("X1(2,12)", 6))
# jac-structure at X1(18), p = 11 enumerates 13,104 classes (about 7 s); it
# belongs to verify_all
JAC_EXCLUDED = {("X1(18)", 11)}


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    kind: str  # verify | derive | table | classify | jac
    model: str = ""
    field: str = ""
    expect: tuple = ()  # jac: the fingerprint structure from models.json


@dataclass
class Workload:
    """A named list of CLI calls; why each workload exists is recorded in
    BENCHMARK.json and README.md."""

    name: str
    calls: list[Call]

    def report(self, medians: dict, raw_medians: dict, times: list[float], walls: list[float], loop_s: float):
        """Readable lines for the metrics named after this workload: per-call
        medians and call times at nominal speed, and the raw ones."""
        return []


# ---------------------------------------------------------------------------
# fields as F_2-spans of square classes
# ---------------------------------------------------------------------------


def _square_class(d: int) -> frozenset:
    """The square class of d as a set of primes, with -1 for the sign."""
    out = {-1} if d < 0 else set()
    n, p = abs(d), 2
    while n > 1:
        while n % p == 0:
            out ^= {p}
            n //= p
        p += 1
    return frozenset(out)


def span(gens) -> set[frozenset]:
    out = {frozenset()}
    for g in gens:
        v = _square_class(g)
        out |= {x ^ v for x in out}
    return out


def matrix_fields() -> list[tuple[int, ...]]:
    """A generator tuple for each of the 52 subfields spanned by MATRIX_GENS."""
    seen, out = set(), []
    for r in range(len(MATRIX_GENS) + 1):
        for gens in combinations(MATRIX_GENS, r):
            key = frozenset(span(gens))
            if key not in seen:
                seen.add(key)
                out.append(gens)
    return out


def admits(model: str, gens) -> bool:
    d = ZETA_GEN.get(model)
    return d is None or _square_class(d) in span(gens)


def _field_arg(gens) -> str:
    return "--field=" + (",".join(map(str, gens)) if gens else "Q")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class VerifyAll(Workload):
    def __init__(self, seed: int):
        super().__init__("verify_all", [Call(("verify", "--all"), "verify")])

    def report(self, medians, raw_medians, times, walls, loop_s):
        return [
            f"verify_all_s  {statistics.median(times):.4f} s ({statistics.median(walls):.4f})  "
            f"median of {len(walls)} runs"
        ]


class TowerDerive(Workload):
    def __init__(self, seed: int):
        rng = random.Random(seed)
        calls = []
        for model, n in TOWER_SET:
            primes = sorted(rng.sample(TOWER_PRIMES, n - len(LEVEL_GENS[model])))
            gens = [*LEVEL_GENS[model], *(p * rng.choice((1, -1)) for p in primes)]
            argv = ("torsion", "--model", model, _field_arg(gens), "--mode", "derive")
            calls.append(Call(argv, "derive", model, ",".join(map(str, gens))))
        super().__init__("tower_derive", calls)

    def report(self, medians, raw_medians, times, walls, loop_s):
        top = max(n for _, n in TOWER_SET)
        tops = [c.argv for c, (_, n) in zip(self.calls, TOWER_SET) if n == top]
        lines = [
            f"tower_derive_s  {sum(medians.values()):.4f} s ({sum(raw_medians.values()):.4f})  sum over "
            f"{len(self.calls)} fields of each field's median, {len(walls) // len(self.calls)} samples each",
            f"tower_deg{2 ** top}_s  {sum(medians[a] for a in tops):.4f} s "
            f"({sum(raw_medians[a] for a in tops):.4f})  the degree-{2 ** top} field",
        ]
        for call, (_, n) in zip(self.calls, TOWER_SET):
            lines.append(
                f"  {call.model} degree {2 ** n} field {call.field}: "
                f"median {medians[call.argv]:.4f} s ({raw_medians[call.argv]:.4f})"
            )
        return lines


class CliCalls(Workload):
    def __init__(self, seed: int):
        rng = random.Random(seed)
        models = json.loads(MODELS_JSON.read_text())["models"]
        fields = matrix_fields()
        degree4 = [g for g in fields if len(span(g)) == 4]
        calls = []
        # every fingerprint, and one degree-4 derive per genus-1 model: the
        # composition of the mix, and so its cost, does not move with the seed
        for m in models:
            for key, st in sorted(m["checks"]["structures"].items()):
                p, f = key.split(",")
                if (m["label"], int(p)) not in JAC_EXCLUDED:
                    argv = ("jac-structure", "--model", m["label"], "--prime", p, "--deg", f)
                    calls.append(Call(argv, "jac", m["label"], expect=tuple(st)))
        for model in GENUS1:
            gens = rng.choice([g for g in degree4 if admits(model, g)])
            argv = ("torsion", "--model", model, _field_arg(gens), "--mode", "derive")
            calls.append(Call(argv, "derive", model, ",".join(map(str, gens))))
        tables = [(m["label"], g) for m in models for g in fields if admits(m["label"], g)]
        for model, gens in rng.sample(tables, 8):
            calls.append(Call(("torsion", "--model", model, _field_arg(gens), "--mode", "table"), "table", model))
        targets = [(t, g) for t, model in sorted(CLASSIFY_TARGETS.items()) for g in fields if admits(model, g)]
        for target, gens in rng.sample(targets, 8):
            calls.append(Call(("classify", "--torsion", target, _field_arg(gens)), "classify"))
        rng.shuffle(calls)
        super().__init__("cli_calls", calls)

    def report(self, medians, raw_medians, times, walls, loop_s):
        p50, raw_p50 = statistics.median(times), statistics.median(walls)
        p90, raw_p90 = (statistics.quantiles(v, n=10, method="inclusive")[8] for v in (times, walls))
        beyond = sum(1 for t in times if t > p90)
        return [
            f"cli_call_ms_p50  {1000 * p50:.2f} ms ({1000 * raw_p50:.2f})  n={len(times)}",
            f"cli_call_ms_p90  {1000 * p90:.2f} ms ({1000 * raw_p90:.2f})  n={len(times)}, {beyond} beyond",
            f"cli_calls_per_s  {len(times) / loop_s:.3f} 1/s  raw, {len(self.calls)} distinct calls",
        ]


WORKLOADS = {"verify_all": VerifyAll, "tower_derive": TowerDerive, "cli_calls": CliCalls}
