"""Command-line surface.

Exit codes: 0 success (including conditional verdicts), 1 verification
mismatch, 2 invalid input, 3 derive mode left an open interval, 4 internal
cross-check failure, 141 (128 + SIGPIPE) the reader of stdout went away.
Identical invocations produce byte-identical output: keys are sorted and no
timestamps are emitted.  Invalid input, the arguments included, gives one
line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify as classify_mod
from . import ellcurve, ff, hyperjac, mwtors, qfield
from .groups import AbGroupStructure
from .mwtors import CrossCheckError, DataIntegrityError, ModelError, PreconditionError
from .qfield import QFieldError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_OPEN = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "tsv":
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}\t{value}")
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _resolve_model(spec: str) -> mwtors.CurveModel:
    if spec in mwtors.model_registry():
        return mwtors.get_model(spec)
    try:
        return mwtors.load_model_file(spec)
    except FileNotFoundError:
        raise ModelError(f"{spec!r} is neither a builtin label nor a model file")
    except OSError as exc:
        raise ModelError(f"cannot read model file {spec!r}: {exc.strerror}") from None


def cmd_jac_structure(args) -> int:
    model = _resolve_model(args.model)
    if args.prime == 2 or args.deg not in (1, 2):
        raise ModelError("need an odd prime and deg in {1, 2}")
    st = mwtors.jac_structure(model, args.prime, args.deg)
    payload = {
        "model": model.label,
        "prime": args.prime,
        "deg": args.deg,
        "structure": list(st.factors),
        "order": st.order,
    }
    if model.genus == 2:
        R = mwtors.reduction(model, args.prime)
        n1, n2, L, nj, _ = R.zeta if args.deg == 1 else R.zeta2
        if nj != st.order:
            raise CrossCheckError("zeta oracle disagrees with the census")
        payload["zeta_check"] = {"N1": n1, "N2": n2, "L": list(L), "order": nj}
    _emit(payload, args.format)
    return EXIT_OK


def cmd_torsion(args) -> int:
    model = _resolve_model(args.model)
    K = qfield.parse_field(args.field)
    primes = None
    if args.primes:
        try:
            primes = tuple(qfield.parse_integers(args.primes))
        except ValueError:
            raise ModelError(f"bad prime list {args.primes!r}") from None
    if args.model in mwtors.model_registry():
        result = mwtors.torsion_table(model.label, K, args.mode, primes)
    elif args.mode == "table":
        raise ModelError("table mode applies only to builtin models")
    else:
        result = mwtors.derive_torsion(model, K, primes)
    _emit(result.to_json(), args.format)
    if args.mode == "derive" and not result.closed:
        return EXIT_OPEN
    return EXIT_OK


def cmd_classify(args) -> int:
    K = qfield.parse_field(args.field)
    if args.ranks in (None, "defaults"):
        table = classify_mod.default_ranks()
    else:
        table = classify_mod.load_rank_file(args.ranks)
    verdict = classify_mod.classify(args.torsion, K, table)
    _emit(verdict.to_json(), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: the machine-checkable expectations shipped with the package
# ---------------------------------------------------------------------------


def _verify_models(report, labels):
    for label in labels:
        mwtors.verify_model_integrity(mwtors.get_model(label))
        report.append(("model-integrity " + label, True, ""))


def _verify_tables(report, labels):
    gens = (-1, 2, -2, 3, -3, 5, -7)
    fields = qfield.all_subfields(gens)
    for label in labels:
        model = mwtors.get_model(label)
        bad = []
        for K in fields:
            # derived and compared here, not by `torsion_table`, whose
            # CrossCheckError would end the run before the report
            try:
                r = mwtors.derive_torsion(model, K)
            except PreconditionError:
                continue
            tab = mwtors.table_lookup(label, K)
            if not r.closed:
                bad.append((K.signature(), "open"))
            elif tab is not None and r.lower != AbGroupStructure.from_summands(tab):
                bad.append((K.signature(), f"{r.lower} != {list(tab)}"))
        report.append((f"torsion-matrix {label}", not bad, str(bad[:3])))


def _verify_exceptional(report):
    for c in classify_mod.exceptional_registry():
        try:
            classify_mod.verify_exceptional(c)
            report.append((f"exceptional {c.name}", True, ""))
        except classify_mod.VerificationError as exc:
            report.append((f"exceptional {c.name}", False, str(exc)))


def _verify_scan(report):
    witness, scanned = ellcurve.exhaustive_small_field_scan(ff.make_field(3, 2), 16)
    report.append(("scan F9 no order-16", witness is None, f"scanned {scanned}"))


def _verify_symmetric_square(report):
    for label in ("X1(13)", "X1(16)", "X1(18)"):
        model = mwtors.get_model(label)
        for p in (3, 5):
            try:
                C = mwtors.reduction(model, p).curve2
            except ellcurve.BadReduction:
                report.append((f"symmetric-square {label} p={p}", True, "bad reduction, skipped"))
                continue
            try:
                hyperjac.symmetric_square_points(C)
            except CrossCheckError as exc:
                report.append((f"symmetric-square {label} p={p}", False, str(exc)))
                continue
            report.append((f"symmetric-square {label} p={p}", True, ""))


VERIFY_GROUPS = {
    "models": lambda report: _verify_models(report, sorted(mwtors.model_registry())),
    "torsion": lambda report: _verify_tables(report, sorted(mwtors.model_registry())),
    "exceptional": _verify_exceptional,
    "scan": _verify_scan,
    "symmetric-square": _verify_symmetric_square,
}


def cmd_verify(args) -> int:
    if args.only and args.only not in VERIFY_GROUPS and args.only not in mwtors.model_registry():
        raise ModelError(f"unknown verification group {args.only!r}")
    report: list[tuple[str, bool, str]] = []
    if args.only in mwtors.model_registry():
        _verify_models(report, [args.only])
        _verify_tables(report, [args.only])
    else:
        for name in [args.only] if args.only else VERIFY_GROUPS:
            VERIFY_GROUPS[name](report)
    ok = all(passed for _, passed, _ in report)
    if args.format == "text":
        for name, passed, detail in report:
            line = f"{'pass' if passed else 'FAIL'}  {name}"
            if detail and not passed:
                line += f"  ({detail})"
            print(line)
        print(f"{'pass' if ok else 'FAIL'}  total: {len(report)} checks")
    else:
        checks = [{"name": n, "passed": p, "detail": d} for n, p, d in report]
        _emit({"checks": checks, "ok": ok, "total": len(report)}, args.format)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """argparse with a one-line error message, exit 2; the subcommand
    parsers inherit it."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mqtorsion",
        description="Torsion of modular Jacobians over multi-quadratic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jac-structure", help="group structure of J(F_{p^f})")
    p.add_argument("--model", required=True, help="builtin label or model JSON file")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--deg", type=int, default=1)
    p.add_argument("--format", choices=("json", "tsv", "text"), default="json")
    p.set_defaults(func=cmd_jac_structure)

    p = sub.add_parser("torsion", help="J(K)_tors over a multi-quadratic field")
    p.add_argument("--model", required=True)
    p.add_argument("--field", required=True, help='"Q" or comma-separated squarefree generators, e.g. "-3,5"')
    p.add_argument("--mode", choices=("derive", "table"), default="derive")
    p.add_argument("--primes", help="override reduction primes, e.g. 7,11")
    p.add_argument("--format", choices=("json", "tsv", "text"), default="json")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("classify", help="existence of elliptic curves with target torsion")
    p.add_argument("--torsion", required=True, help='e.g. "14" or "2x12"')
    p.add_argument("--field", required=True)
    p.add_argument("--ranks", help='"defaults" or a rank-table JSON file')
    p.add_argument("--format", choices=("json", "tsv", "text"), default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the shipped machine-checkable expectations")
    p.add_argument("--all", action="store_true", help="run everything (default)")
    p.add_argument("--only", help="a group name or a builtin model label")
    p.add_argument("--format", choices=("json", "tsv", "text"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # nothing is left to say to a reader that went away; stdout goes to
        # devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ModelError, PreconditionError, QFieldError, ellcurve.CurveError, hyperjac.JacError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (CrossCheckError, DataIntegrityError) as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
