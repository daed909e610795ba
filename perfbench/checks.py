"""Output checks, independent of the code under test where possible.

* ``verify``: exit 0, 33 ``pass`` check lines and a ``pass`` total line.
* ``derive``: exit 0, ``closed: true``, and ``lower`` equal to what
  ``torsion --mode table`` answers for the same model and field.
* ``jac``: the structure equals the ``checks.structures`` fingerprint in
  ``models.json``, both read as groups in invariant-factor form (the file
  stores X1(13) over F_9 as [3, 19] and the CLI prints [57]).
* every call: exit 0, and the same bytes on every identical invocation.

A sample fails once however many of its checks fail; the failures are
returned as one message per failed sample.
"""

from __future__ import annotations

import json

from workloads import Call

VERIFY_CHECKS = 33


def _factorize(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(summands) -> tuple[int, ...]:
    """Invariant factors n_1 | n_2 | ... of the sum of cyclic groups Z/n_i."""
    exps: dict[int, list[int]] = {}
    for n in summands:
        for p, e in _factorize(int(n)).items():
            exps.setdefault(p, []).append(e)
    width = max((len(es) for es in exps.values()), default=0)
    factors = [1] * width
    for p, es in exps.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[width - 1 - i] *= p**e
    return tuple(f for f in factors if f > 1)


def _verify_problem(out: str) -> str | None:
    lines = out.splitlines()
    passed = [line for line in lines[:-1] if line.startswith("pass  ")]
    if len(lines) != VERIFY_CHECKS + 1 or len(passed) != VERIFY_CHECKS:
        return f"expected {VERIFY_CHECKS} pass lines, got {len(passed)} of {len(lines) - 1}"
    if lines[-1] != f"pass  total: {VERIFY_CHECKS} checks":
        return f"bad total line {lines[-1]!r}"
    return None


def _problem(sample, table_lower) -> str | None:
    call = sample.call
    if sample.rc != 0:
        return f"exit code {sample.rc}: {sample.err.decode(errors='replace').strip()[-300:]}"
    out = sample.out.decode(errors="replace")
    if call.kind == "verify":
        return _verify_problem(out)
    try:
        answer = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if call.kind == "derive":
        if answer.get("closed") is not True:
            return "derive left an open interval"
        if answer.get("lower") != table_lower:
            return f"derive lower {answer.get('lower')} != table {table_lower}"
    if call.kind == "jac":
        got = invariant_factors(answer.get("structure", ()))
        if got != invariant_factors(call.expect):
            return f"structure {answer.get('structure')} != fingerprint {list(call.expect)}"
    return None


def table_answers(runner, calls) -> dict[tuple, object]:
    """``lower`` of ``torsion --mode table`` for every derive call (untimed)."""
    out = {}
    for call in calls:
        if call.kind != "derive" or call.argv in out:
            continue
        argv = tuple("table" if a == "derive" else a for a in call.argv)
        sample = runner.cli(Call(argv, "table"))
        try:
            out[call.argv] = json.loads(sample.out)["lower"] if sample.rc == 0 else None
        except (ValueError, KeyError):
            out[call.argv] = None
    return out


def check(runner, wl, samples) -> list[str]:
    tables = table_answers(runner, wl.calls)
    first: dict[tuple, bytes] = {}
    failures = []
    for sample in samples:
        problem = _problem(sample, tables.get(sample.call.argv))
        reference = first.setdefault(sample.call.argv, sample.out)
        if problem is None and sample.out != reference:
            problem = "output bytes differ from the first identical call"
        if problem:
            failures.append(f"{' '.join(sample.call.argv)}: {problem}")
    return failures
