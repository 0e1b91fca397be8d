"""Command-line surface over the document format and the verify suites.

Exit codes: 0 success, 1 invariant or identity violation (the report is
emitted as machine-readable findings), 2 input error.  All output is
canonical JSON unless ``--format table`` asks for an aligned text table.
"""

from __future__ import annotations

import argparse
import sys

from .complexes import (
    BoundedComplex,
    ChainMap,
    HomReport,
    cohomology_dims,
    cone,
    hom_space_dims,
    tensor_complex,
)
from .documents import (
    DocumentError,
    canonical_json_bytes,
    document_dict,
    matrix_doc,
    parse_document,
)
from .graded import GradedModule, tensor_periodic
from .koszul import bgg_module
from .orbit import orbit_hom
from .periodic import (
    PeriodicComplex,
    compress,
    expand_window,
    periodic_cohomology,
    periodic_hom_dims,
    periodize_null_homotopy,
    unrolled_identity_contraction,
)
from .suites import available_suites, report_bytes, run_suite

__all__ = ["main"]


def _read_document(path: str):
    if path == "-":
        return parse_document(sys.stdin.buffer.read())
    with open(path, "rb") as handle:
        return parse_document(handle.read())


def _emit(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _emit_json(obj) -> None:
    _emit(canonical_json_bytes(obj))


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _finding(code: int, message: str, **extra) -> int:
    _emit_json({"ok": False, "error": message, **extra})
    return code


def _cmd_cohomology(args) -> int:
    doc = _read_document(args.input)
    if not isinstance(doc, (BoundedComplex, PeriodicComplex)):
        raise DocumentError("/kind", "cohomology expects a complex or periodic document")
    try:
        dims = cohomology_dims(doc) if isinstance(doc, BoundedComplex) else enumerate(periodic_cohomology(doc))
    except ValueError as exc:
        return _finding(1, str(exc))
    rows = [(str(i), str(h)) for i, h in dims]
    if args.format == "table":
        _emit(_table(["degree", "dim"], [list(r) for r in rows]).encode())
    else:
        _emit_json({"cohomology": [[int(a), int(b)] for a, b in rows], "ok": True})
    return 0


def _require_period(n: int) -> None:
    if n < 1:
        raise DocumentError("/n", "period must be at least 1")


def _cmd_compress(args) -> int:
    _require_period(args.n)
    doc = _read_document(args.input)
    if not isinstance(doc, BoundedComplex):
        raise DocumentError("/kind", "compress expects a complex document")
    _emit_json(document_dict(compress(doc, args.n)))
    return 0


def _cmd_expand(args) -> int:
    doc = _read_document(args.input)
    if not isinstance(doc, PeriodicComplex):
        raise DocumentError("/kind", "expand expects a periodic document")
    lo, hi = args.window
    if lo > hi:
        raise DocumentError("/window", "window lower bound exceeds upper bound")
    _emit_json(document_dict(expand_window(doc, lo, hi)))
    return 0


def _cmd_cone(args) -> int:
    doc = _read_document(args.input)
    if not isinstance(doc, ChainMap):
        raise DocumentError("/kind", "cone expects a chain-map document")
    try:
        triangle = cone(doc)
    except ValueError as exc:
        return _finding(1, str(exc))
    _emit_json(document_dict(triangle.complex))
    return 0


def hom_report_for(x, y) -> HomReport:
    """Dispatch Hom dimensions over two bounded or two periodic complexes."""
    if isinstance(x, BoundedComplex) and isinstance(y, BoundedComplex):
        return hom_space_dims(x, y)
    if isinstance(x, PeriodicComplex) and isinstance(y, PeriodicComplex):
        return periodic_hom_dims(x, y)
    raise TypeError("expected two complex documents or two periodic documents")


def _cmd_homdim(args) -> int:
    x = _read_document(args.x)
    y = _read_document(args.y)
    try:
        report = hom_report_for(x, y)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, TypeError):
            raise DocumentError("/kind", str(exc)) from None
        return _finding(1, str(exc))
    body = {
        "chain_maps": report.chain_maps,
        "null_homotopic": report.null_homotopic,
        "homotopy_classes": report.homotopy_classes,
        "ok": True,
    }
    if args.format == "table":
        _emit(
            _table(
                ["space", "dim"],
                [
                    ["chain maps", str(report.chain_maps)],
                    ["null homotopic", str(report.null_homotopic)],
                    ["homotopy classes", str(report.homotopy_classes)],
                ],
            ).encode()
        )
    else:
        _emit_json(body)
    return 0


def _cmd_orbit_homdim(args) -> int:
    _require_period(args.n)
    x = _read_document(args.x)
    y = _read_document(args.y)
    if not isinstance(x, BoundedComplex) or not isinstance(y, BoundedComplex):
        raise DocumentError("/kind", "orbit-homdim expects two complex documents")
    try:
        report = orbit_hom(x, y, args.n)
    except ValueError as exc:
        return _finding(1, str(exc))
    body = {
        "n": report.n,
        "summands": [[i, d] for i, d in report.summands],
        "total": report.total,
        "periodic_side": report.periodic_side,
        "matches": report.matches,
        "ok": report.matches,
    }
    if args.format == "table":
        rows = [[f"shift {i}", str(d)] for i, d in report.summands]
        rows.append(["total", str(report.total)])
        rows.append(["periodic", str(report.periodic_side)])
        _emit(_table(["summand", "dim"], rows).encode())
    else:
        _emit_json(body)
    return 0 if report.matches else 1


def _cmd_periodize(args) -> int:
    doc = _read_document(args.input)
    if not isinstance(doc, PeriodicComplex):
        raise DocumentError("/kind", "periodize expects a periodic document")
    try:
        s = unrolled_identity_contraction(doc)
    except ValueError as exc:
        return _finding(1, str(exc))
    if s is None:
        return _finding(1, "no windowed contraction exists; the identity is not null-homotopic")
    sigma = periodize_null_homotopy(doc, s)
    if args.format == "table":
        rows = [[str(r), f"{m.rows}x{m.cols}"] for r, m in enumerate(sigma.components)]
        _emit(_table(["residue", "shape"], rows).encode())
    else:
        _emit_json(
            {
                "components": [matrix_doc(m) for m in sigma.components],
                "verified": True,
                "ok": True,
            }
        )
    return 0


def _cmd_tensor(args) -> int:
    x = _read_document(args.x)
    y = _read_document(args.y)
    if not isinstance(x, BoundedComplex) or not isinstance(y, (BoundedComplex, PeriodicComplex)):
        raise DocumentError("/kind", "tensor expects complex (x) complex or complex (x) periodic")
    try:
        product = tensor_complex(x, y) if isinstance(y, BoundedComplex) else tensor_periodic(x, y)
    except ValueError as exc:
        return _finding(1, str(exc))
    _emit_json(document_dict(product))
    return 0


def _cmd_bgg(args) -> int:
    doc = _read_document(args.input)
    if not isinstance(doc, GradedModule):
        raise DocumentError("/kind", "bgg expects a graded-module document")
    try:
        built = bgg_module(doc)
    except ValueError as exc:
        return _finding(1, str(exc))
    coh = cohomology_dims(built.complex)
    if args.format == "table":
        _emit(_table(["degree", "dim h"], [[str(i), str(h)] for i, h in coh]).encode())
        return 0
    _emit_json(
        {
            "complex": document_dict(built.complex),
            "actions": [[matrix_doc(m) for m in per_degree] for per_degree in built.actions],
            "cohomology": [[i, h] for i, h in coh],
            "ok": True,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    try:
        report = run_suite(args.suite, args.seed)
    except KeyError as exc:
        raise DocumentError("/suite", str(exc.args[0])) from None
    if args.format == "table":
        rows = [[c["case"], "pass" if c["ok"] else "FAIL", c["detail"]] for c in report["cases"]]
        rows.append(["total", f"{report['passed']}/{report['passed'] + report['failed']}", ""])
        _emit(_table(["case", "status", "detail"], rows).encode())
    else:
        _emit(report_bytes(report))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perhom",
        description="Exact computations with bounded and n-periodic complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("cohomology", help="cohomology dimensions of a complex or periodic document")
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("compress", help="fold a complex into an n-periodic one")
    p.add_argument("input")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("expand", help="unroll a periodic complex onto a window")
    p.add_argument("input")
    p.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"), required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("cone", help="mapping cone of a chain-map document")
    p.add_argument("input")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("homdim", help="Hom-space dimensions in the homotopy category")
    p.add_argument("x")
    p.add_argument("y")
    add_format(p)
    p.set_defaults(func=_cmd_homdim)

    p = sub.add_parser("orbit-homdim", help="orbit Hom dimensions against the periodic side")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_orbit_homdim)

    p = sub.add_parser("periodize", help="fold a windowed contraction into a periodic one")
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=_cmd_periodize)

    p = sub.add_parser("tensor", help="tensor product of documents")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("bgg", help="apply the duality functor to a graded module")
    p.add_argument("input")
    add_format(p)
    p.set_defaults(func=_cmd_bgg)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(available_suites())}")
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
