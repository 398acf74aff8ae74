"""Command-line front end.

Commands: validate, compute, identities, examples.  Models are referenced
by bundled name or by JSON file path.  Exit codes: 0 success, 1 computation
disagreement, 2 invalid model, 3 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

# No package module is imported here, so that each command compiles only
# the modules it runs: examples none (it prints MODEL_NOTES), validate the
# rings and models, a signature or bk compute also the signature kernel,
# and a Pontrjagin or Chern number also the formulas.  A file path adds the
# model file reader, identities the oracle and the series algebra, and
# --json adds json.
if TYPE_CHECKING:
    from .model import ImmersionModel

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


def _int(text: str) -> int:
    """int(text), refused with the text shown short, as argparse would not."""
    try:
        return int(text)
    except ValueError:
        from .records import _shown  # only a refusal reads it: examples loads no ring
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_model(ref: str) -> ImmersionModel:
    # MODEL_NOTES names every bundled model (a test pins its keys), so a
    # model file compiles no bundled model
    if ref in MODEL_NOTES:
        from .models import bundled_model
        return bundled_model(ref)
    path = Path(ref)
    if not os.path.exists(path):  # False, where Path.exists raises, on a name too long
        from .records import _shown
        raise CliError(f"{_shown(ref, str)}: not a bundled model name or an existing file",
                       EXIT_INVALID_MODEL)
    from .modelfile import ModelFormatError, load_model
    try:
        return load_model(path)
    except ModelFormatError as exc:
        raise CliError(str(exc), EXIT_INVALID_MODEL) from None


def _print_json(obj) -> None:
    import json  # only --json output needs it
    print(json.dumps(obj, indent=2))


def _parse_quantity(text: str, route: str) -> Tuple[str, Optional[Tuple[int, ...]]]:
    """The name in signatures.QUANTITIES and the index sequence J (None if
    it reads none) of a --quantity text, its --route checked in the table."""
    from .records import _shown
    from .signatures import QUANTITIES
    name, eq, body = text.partition("=")
    if name not in QUANTITIES or QUANTITIES[name][1] != bool(eq):
        forms = [f"{q}=J" if reads_J else q for q, (_, reads_J) in QUANTITIES.items()]
        raise CliError(f"unknown quantity {_shown(text)}; expected {', '.join(forms[:-1])} "
                       f"or {forms[-1]}", EXIT_USAGE)
    try:
        J = tuple(int(p) for p in body.split(",")) if body else ()
    except ValueError:
        raise CliError(f"bad index sequence {_shown(body)} in --quantity", EXIT_USAGE) from None
    if route not in QUANTITIES[name][0]:
        raise CliError(f"--route {_shown(route, str)} applies not to --quantity {_shown(text, str)}: "
                       f"{', '.join(QUANTITIES[name][0])}", EXIT_USAGE)
    return name, J if eq else None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    from .model import validate
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
    from .graded import GradedClass
    from .model import validate
    from .signatures import RouteDisagreement, evaluate, multiple_point_dimension
    quantity, J = _parse_quantity(args.quantity, args.route)
    model = _resolve_model(args.model)
    report = validate(model)
    if not report.ok:
        for check in report.failures():
            print(f"invalid model: {check.name}: {check.detail}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    try:
        result = evaluate(model, args.k, quantity, J, args.route)
    except RouteDisagreement as exc:
        print(f"route disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    value = result.value  # --json shows a class by its coordinates, by basis label and index
    coords = sorted(value.coords.items()) if isinstance(value, GradedClass) else None
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.json:
        _print_json({"model": model.name or args.model, "k": args.k, "quantity": args.quantity,
                     "route": args.route, "value": str(value) if coords is None
                     else {value.ring.labels[i]: str(c) for i, c in coords},
                     "coordinates": None if coords is None else {str(i): str(c) for i, c in coords},
                     "dimension": list(multiple_point_dimension(model, args.k)),
                     "warnings": result.warnings})
    else:
        print(value)
    return EXIT_OK


def cmd_identities(args) -> int:
    if args.max_k < 1:
        raise CliError(f"--max-k must be at least 1, got {args.max_k}", EXIT_USAGE)
    from .oracle import identity_failures
    failures = identity_failures(args.max_k)
    if args.json:
        _print_json({"ok": not failures, "failures": failures})
    else:
        for f in failures:
            print(f"FAIL: {f}")
        if not failures:
            print("all identities hold")
    return EXIT_OK if not failures else EXIT_DISAGREEMENT


def cmd_examples(args) -> int:
    # MODEL_NOTES names every bundled model (a test pins its keys), so
    # listing them builds no model and loads no ring
    if args.json:
        _print_json({name: MODEL_NOTES[name] for name in sorted(MODEL_NOTES)})
    else:
        for name in sorted(MODEL_NOTES):
            print(f"{name:28s} {MODEL_NOTES[name]}")
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
    p.add_argument("--k", type=_int, required=True, help="multiplicity (k >= 1)")
    p.add_argument("--quantity", required=True,
                   help="signature | bk | pontrjagin=J | chern=J (J comma-separated degrees)")
    p.add_argument("--route", default="auto",
                   help="a route of the quantity (default %(default)s: two independent kernels, "
                        "in exact agreement)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("identities", help="run the internal identity and oracle suites")
    p.add_argument("--max-k", type=_int, default=5,
                   help="largest multiplicity checked; every suite caps it, the oracle "
                        "suites at 6 or below and the series order at 12")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("examples", help="list bundled example models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
