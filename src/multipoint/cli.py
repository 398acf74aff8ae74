"""Command-line front end.

Commands: validate, compute, identities, examples.  Models are referenced
by bundled name or by JSON file path.  Exit codes: 0 success, 1 computation
disagreement, 2 invalid model, 3 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

# No package module is imported here, so that each command compiles only
# the modules it runs: examples none (it prints MODEL_NOTES), validate the
# rings and models, a signature or bk compute also the signature kernel,
# and a Pontrjagin or Chern number also the formulas.  A file path adds the
# model file reader, identities the oracle and the series algebra, and
# --json adds json.
if TYPE_CHECKING:
    from .graded import GradedClass
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


class _RouteNames:
    """The --route choices, read from the signature route registry only when
    argparse checks or lists them, so that building the parser for validate
    or examples does not import the signature kernel."""

    @staticmethod
    def _names() -> Tuple[str, ...]:
        from .signatures import SIGNATURE_ROUTES
        return (*SIGNATURE_ROUTES, "auto")

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


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
    from .model import validate
    from .signatures import RouteDisagreement, multiple_point_dimension, zero_warning
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
        # each evaluator is read from the package's exports, as a library
        # caller reads it (the benchmark tracer wraps those names)
        if kind == "signature":
            from . import signature
            out["value"] = str(signature(model, k, route=args.route))
            text = out["value"]
        elif kind == "bk":
            from . import virtual_signature_class
            cls = virtual_signature_class(model, k)
            out["value"] = _class_json(cls)
            text = repr(cls)
        else:
            from . import chern_number, pontrjagin_number
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
    if kind in ("signature", "bk"):  # a characteristic number carries its warnings
        why = zero_warning(model, k)
        if why is not None:
            warnings.append(why)
    out["dimension"] = list(multiple_point_dimension(model, k))
    out["warnings"] = warnings
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.json:
        _print_json(out)
    else:
        print(text)
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
    p.add_argument("--k", type=int, required=True, help="multiplicity (k >= 1)")
    p.add_argument("--quantity", required=True,
                   help="signature | bk | pontrjagin=J | chern=J (J comma-separated degrees)")
    # a metavar, or add_argument would list the choices, importing the formulas
    p.add_argument("--route", choices=_RouteNames(), default="auto", metavar="ROUTE",
                   help="signature route: %(choices)s (default %(default)s)")
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
