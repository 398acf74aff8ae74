"""Command-line front end.

Commands: validate, compute, identities, examples.  Models are referenced
by bundled name or by JSON file path.  Exit codes: 0 success, 1 computation
disagreement, 2 invalid model, 3 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

# Only what validate, compute and examples run is imported here; the model
# file reader, the identity checks (oracle, series algebra) and json load
# where they are used, so each command compiles only the modules it runs.
from .formulas import (
    SIGNATURE_ROUTES,
    RouteDisagreement,
    chern_number,
    empty_locus_warning,
    multiple_point_dimension,
    pontrjagin_number,
    signature,
    virtual_signature_class,
)
from .graded import GradedClass
from .model import ImmersionModel, validate
from .models import BUNDLED, bundled_model

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INVALID_MODEL = 2
EXIT_USAGE = 3

MODEL_NOTES = {
    "line-in-plane": "projective line embedded in the projective plane",
    "two-lines": "disjoint union of two lines in the plane (one double point)",
    "hypersurface-d1": "degree-1 hypersurface in projective 3-space",
    "hypersurface-d2": "degree-2 hypersurface in projective 3-space",
    "hypersurface-d3": "degree-3 hypersurface in projective 3-space",
    "hypersurface-d4": "degree-4 hypersurface in projective 3-space",
    "null-pushforward": "vanishing pushforward, nonzero Euler class",
    "nullhomotopic-cp2-in-s6": "projective plane immersed in the 6-sphere",
    "line-in-quadric": "ruling line in a quadric surface (zero Euler class)",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_model(ref: str) -> ImmersionModel:
    if ref in BUNDLED:
        return bundled_model(ref)
    path = Path(ref)
    if not path.exists():
        raise CliError(f"{ref}: not a bundled model name or an existing file", EXIT_INVALID_MODEL)
    from .modelfile import ModelFormatError, load_model
    try:
        return load_model(path)
    except ModelFormatError as exc:
        raise CliError(str(exc), EXIT_INVALID_MODEL) from None


def _print_json(obj) -> None:
    import json  # only --json output needs it
    print(json.dumps(obj, indent=2))


def _class_json(cls: GradedClass) -> dict:
    return {cls.ring.labels[i]: str(c) for i, c in sorted(cls.coords.items())}


def _parse_quantity(text: str) -> Tuple[str, Optional[Tuple[int, ...]]]:
    if text in ("signature", "bk"):
        return text, None
    for prefix in ("pontrjagin", "chern"):
        if text.startswith(prefix + "="):
            body = text[len(prefix) + 1:]
            try:
                J = tuple(int(p) for p in body.split(",")) if body else ()
            except ValueError:
                raise CliError(f"bad index sequence {body!r} in --quantity", EXIT_USAGE) from None
            return prefix, J
    raise CliError(
        f"unknown quantity {text!r}; expected signature, bk, pontrjagin=J or chern=J",
        EXIT_USAGE)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    model = _resolve_model(args.model)
    report = validate(model)
    if args.json:
        _print_json({
            "model": model.name,
            "ok": report.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in report.checks],
        })
    else:
        print(report)
    return EXIT_OK if report.ok else EXIT_INVALID_MODEL


def cmd_compute(args) -> int:
    kind, J = _parse_quantity(args.quantity)
    if kind != "signature" and args.route != "auto":
        raise CliError(f"--route {args.route} applies to the signature only, "
                       f"not to --quantity {args.quantity}", EXIT_USAGE)
    model = _resolve_model(args.model)
    report = validate(model)
    if not report.ok:
        for check in report.failures():
            print(f"invalid model: {check.name}: {check.detail}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    k = args.k
    warnings: List[str] = []
    out = {"model": model.name or args.model, "k": k, "quantity": args.quantity,
           "route": args.route}
    try:
        if kind == "signature":
            out["value"] = str(signature(model, k, route=args.route))
            text = out["value"]
        elif kind == "bk":
            cls = virtual_signature_class(model, k)
            out["value"] = _class_json(cls)
            text = repr(cls)
        else:
            res = (pontrjagin_number if kind == "pontrjagin" else chern_number)(model, k, J)
            warnings.extend(res.warnings)
            out["value"] = str(res.value)
            text = out["value"]
    except RouteDisagreement as exc:
        print(f"route disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    empty = empty_locus_warning(model, k)
    if empty is not None and empty not in warnings:  # a characteristic number carries it
        warnings.append(empty)
    out["dimension"] = list(multiple_point_dimension(model, k))
    out["warnings"] = warnings
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.json:
        _print_json(out)
    else:
        print(text)
    return EXIT_OK


def _identity_failures(max_k: int) -> List[str]:
    import random
    from fractions import Fraction
    from math import prod

    from .graded import cross
    from .oracle import (compose_enumerated, recursion_identity_holds, signature_enumerated,
                         virtual_class_enumerated)
    from .partitions import BELL, all_partitions, count_by_type, log_coefficient, type_vectors
    from .series import (DEFAULT_ORDER, compose, composed_derivative, identity_series, invert,
                         scaled_exp_series)

    failures: List[str] = []
    order = min(max(8, max_k), DEFAULT_ORDER)

    H = scaled_exp_series(order)
    G = invert(H)
    for k in range(1, 7):
        expected = log_coefficient(k) * H.coefficient(2) ** (k - 1)
        if G.coefficient(k) != expected:
            failures.append(f"series inversion coefficient {k}: {G.coefficient(k)}")
    if compose(H, G) != identity_series(order):
        failures.append("compose(H, invert(H)) is not the identity series")

    for n in range(1, 7):
        try:
            composed_derivative(n)
        except ArithmeticError as exc:
            failures.append(str(exc))

    for k in range(1, min(max_k, 6) + 1):
        count = sum(1 for _ in all_partitions(k))
        if count != BELL[k - 1]:
            failures.append(f"partition count for k={k}: {count} != {BELL[k - 1]}")
        by_type = sum(count_by_type(k, tv) for tv in type_vectors(k))
        if by_type != BELL[k - 1]:
            failures.append(f"type-vector counts for k={k} sum to {by_type}")

    rng = random.Random(7)
    poly_order = min(max_k, 5)
    a = [Fraction(rng.randint(-3, 3)) for _ in range(poly_order)]
    b = [Fraction(rng.randint(-3, 3)) for _ in range(poly_order)]
    for k in range(1, poly_order + 1):
        enum = compose_enumerated(a, b, k).value
        coll = sum(count_by_type(k, tv) * a[sum(tv) - 1]
                   * prod(b[i - 1] ** m for i, m in enumerate(tv, start=1) if m)
                   for tv in type_vectors(k))
        if enum != coll:
            failures.append(f"composition oracle mismatch at k={k}: {enum} != {coll}")

    for name in BUNDLED:
        model = bundled_model(name)
        for k in range(1, min(max_k, 3) + 1):
            n = len(model.source.labels)
            idx = tuple(rng.randrange(n) for _ in range(k))
            x = cross([model.source.basis_class(i) for i in idx])
            if not recursion_identity_holds(model, k, x):
                failures.append(f"recursion identity fails on {name}, k={k}, x={idx}")
        for k in range(1, min(max_k, 4) + 1):
            sig = signature(model, k, route="auto")
            orc = signature_enumerated(model, k).value
            if sig != orc:
                failures.append(f"signature oracle mismatch on {name}, k={k}")
            if virtual_signature_class(model, k) != virtual_class_enumerated(model, k).value:
                failures.append(f"virtual class oracle mismatch on {name}, k={k}")
    return failures


def cmd_identities(args) -> int:
    if args.max_k < 1:
        raise CliError(f"--max-k must be at least 1, got {args.max_k}", EXIT_USAGE)
    failures = _identity_failures(args.max_k)
    if args.json:
        _print_json({"ok": not failures, "failures": failures})
    else:
        for f in failures:
            print(f"FAIL: {f}")
        if not failures:
            print("all identities hold")
    return EXIT_OK if not failures else EXIT_DISAGREEMENT


def cmd_examples(args) -> int:
    if args.json:
        _print_json({name: MODEL_NOTES.get(name, "") for name in sorted(BUNDLED)})
    else:
        for name in sorted(BUNDLED):
            print(f"{name:28s} {MODEL_NOTES.get(name, '')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multipoint",
                     description="Multiple-point invariants of even-codimension immersions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against all consistency axioms")
    p.add_argument("model", help="bundled model name or JSON file path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compute", help="compute a multiple-point quantity")
    p.add_argument("model", help="bundled model name or JSON file path")
    p.add_argument("--k", type=int, required=True, help="multiplicity (k >= 1)")
    p.add_argument("--quantity", required=True,
                   help="signature | bk | pontrjagin=J | chern=J (J comma-separated degrees)")
    p.add_argument("--route", choices=[*SIGNATURE_ROUTES, "auto"], default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("identities", help="run the internal identity and oracle suites")
    p.add_argument("--max-k", type=int, default=5,
                   help="largest multiplicity checked; every suite caps it, the oracle "
                        "suites at 6 or below and the series order at 12")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("examples", help="list bundled example models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
