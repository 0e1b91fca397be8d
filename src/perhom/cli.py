"""Command-line surface over the document format and the verify suites.

Each command is one row of the command table ``_COMMANDS``: its help line,
its arguments (positionals, then options, each as the name or flag and the
keywords of ``add_argument``) and its handler.  ``build_parser`` turns the
table into the parser once per process.  A handler maps the parsed
arguments to ``(body, table)``: the JSON value to emit, and the
``(headers, rows)`` of its text table, or None for a command without
``--format table``.  ``main`` alone writes output and picks the exit code:

- ``DocumentError`` or ``OSError`` (unreadable or malformed input, a wrong
  document kind, a bad option value): ``error: ...`` on stderr, exit 2;
- any other ``ValueError`` raised by a command (input that parses but
  breaks an invariant, or a question with no answer): the finding
  ``{"error": ..., "ok": false}`` as canonical JSON, exit 1;
- otherwise the table if ``--format table`` was given, else the body as
  canonical JSON; exit 1 when the body says ``"ok": false``, else 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple

from .complexes import (
    BoundedComplex,
    ChainMap,
    cohomology_dims,
    cone,
    hom_space_dims,
    tensor_complex,
)
from .documents import (
    DocumentError,
    canonical_json_bytes,
    document_dict,
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
from .suites import available_suites, run_suite

__all__ = ["main"]


def _read(path: str, kinds, message: str):
    """The document at ``path`` (``-`` reads stdin); a document that is not
    one of ``kinds`` is an input error at ``/kind`` saying ``message``."""
    if path == "-":
        value = parse_document(sys.stdin.buffer.read())
    else:
        with open(path, "rb") as handle:
            value = parse_document(handle.read())
    if not isinstance(value, kinds):
        raise DocumentError("/kind", message)
    return value


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


def _cmd_cohomology(args):
    doc = _read(args.input, (BoundedComplex, PeriodicComplex), "cohomology expects a complex or periodic document")
    dims = cohomology_dims(doc) if isinstance(doc, BoundedComplex) else tuple(enumerate(periodic_cohomology(doc)))
    body = {"cohomology": [[i, h] for i, h in dims], "ok": True}
    return body, (["degree", "dim"], [[str(i), str(h)] for i, h in dims])


def _cmd_compress(args):
    doc = _read(args.input, BoundedComplex, "compress expects a complex document")
    return document_dict(compress(doc, args.n)), None


def _cmd_expand(args):
    doc = _read(args.input, PeriodicComplex, "expand expects a periodic document")
    lo, hi = args.window
    if lo > hi:
        raise DocumentError("/window", "window lower bound exceeds upper bound")
    return document_dict(expand_window(doc, lo, hi)), None


def _cmd_cone(args):
    return document_dict(cone(_read(args.input, ChainMap, "cone expects a chain-map document")).complex), None


def _cmd_homdim(args):
    message = "expected two complex documents or two periodic documents"
    x = _read(args.x, (BoundedComplex, PeriodicComplex), message)
    y = _read(args.y, type(x), message)
    report = hom_space_dims(x, y) if isinstance(x, BoundedComplex) else periodic_hom_dims(x, y)
    spaces = ("chain_maps", "null_homotopic", "homotopy_classes")
    body = {**{key: getattr(report, key) for key in spaces}, "ok": True}
    return body, (["space", "dim"], [[key.replace("_", " "), str(body[key])] for key in spaces])


def _cmd_orbit_homdim(args):
    message = "orbit-homdim expects two complex documents"
    report = orbit_hom(_read(args.x, BoundedComplex, message), _read(args.y, BoundedComplex, message), args.n)
    body = {
        "n": report.n,
        "summands": [[i, d] for i, d in report.summands],
        "total": report.total,
        "periodic_side": report.periodic_side,
        "matches": report.matches,
        "ok": report.matches,
    }
    rows = [[f"shift {i}", str(d)] for i, d in report.summands]
    rows.append(["total", str(report.total)])
    rows.append(["periodic", str(report.periodic_side)])
    return body, (["summand", "dim"], rows)


def _cmd_periodize(args):
    doc = _read(args.input, PeriodicComplex, "periodize expects a periodic document")
    s = unrolled_identity_contraction(doc)
    if s is None:
        raise ValueError("no windowed contraction exists; the identity is not null-homotopic")
    sigma = periodize_null_homotopy(doc, s)
    body = {"components": list(sigma.components), "verified": True, "ok": True}
    return body, (["residue", "shape"], [[str(r), f"{m.rows}x{m.cols}"] for r, m in enumerate(sigma.components)])


def _cmd_tensor(args):
    message = "tensor expects complex (x) complex or complex (x) periodic"
    x = _read(args.x, BoundedComplex, message)
    y = _read(args.y, (BoundedComplex, PeriodicComplex), message)
    return document_dict(tensor_complex(x, y) if isinstance(y, BoundedComplex) else tensor_periodic(x, y)), None


def _cmd_bgg(args):
    built = bgg_module(_read(args.input, GradedModule, "bgg expects a graded-module document"))
    coh = cohomology_dims(built.complex)
    body = {
        "complex": document_dict(built.complex),
        "actions": [list(per_degree) for per_degree in built.actions],
        "cohomology": [[i, h] for i, h in coh],
        "ok": True,
    }
    return body, (["degree", "dim h"], [[str(i), str(h)] for i, h in coh])


def _cmd_verify(args):
    try:
        report = run_suite(args.suite, args.seed)
    except KeyError as exc:
        raise DocumentError("/suite", str(exc.args[0])) from None
    rows = [[c["case"], "pass" if c["ok"] else "FAIL", c["detail"]] for c in report["cases"]]
    rows.append(["total", f"{report['passed']}/{report['passed'] + report['failed']}", ""])
    return report, (["case", "status", "detail"], rows)


class _Command(NamedTuple):
    help: str
    # (name or flag, add_argument keywords): positionals, then options.
    arguments: tuple[tuple[str, dict], ...]
    handler: Callable[[argparse.Namespace], tuple[dict, tuple | None]]


_INPUT = ("input", {})
_X = ("x", {})
_Y = ("y", {})
_N = ("--n", {"type": int, "required": True})
_FORMAT = ("--format", {"choices": ("json", "table"), "default": "json"})

_COMMANDS = {
    "cohomology": _Command(
        "cohomology dimensions of a complex or periodic document", (_INPUT, _FORMAT), _cmd_cohomology
    ),
    "compress": _Command("fold a complex into an n-periodic one", (_INPUT, _N), _cmd_compress),
    "expand": _Command(
        "unroll a periodic complex onto a window",
        (_INPUT, ("--window", {"type": int, "nargs": 2, "metavar": ("LO", "HI"), "required": True})),
        _cmd_expand,
    ),
    "cone": _Command("mapping cone of a chain-map document", (_INPUT,), _cmd_cone),
    "homdim": _Command("Hom-space dimensions in the homotopy category", (_X, _Y, _FORMAT), _cmd_homdim),
    "orbit-homdim": _Command(
        "orbit Hom dimensions against the periodic side", (_X, _Y, _N, _FORMAT), _cmd_orbit_homdim
    ),
    "periodize": _Command("fold a windowed contraction into a periodic one", (_INPUT, _FORMAT), _cmd_periodize),
    "tensor": _Command("tensor product of documents", (_X, _Y), _cmd_tensor),
    "bgg": _Command("apply the duality functor to a graded module", (_INPUT, _FORMAT), _cmd_bgg),
    "verify": _Command(
        "run a verification suite",
        (
            ("suite", {"help": f"one of: {', '.join(available_suites())}"}),
            ("--seed", {"type": int, "default": 0}),
            _FORMAT,
        ),
        _cmd_verify,
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in the table, built once per process."""
    parser = argparse.ArgumentParser(
        prog="perhom",
        description="Exact computations with bounded and n-periodic complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, options in command.arguments:
            p.add_argument(arg, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 1) < 1:
            raise DocumentError("/n", "period must be at least 1")
        body, table = _COMMANDS[args.command].handler(args)
    except (DocumentError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        body, table = {"error": str(exc), "ok": False}, None
    if table is not None and args.format == "table":
        data = _table(*table).encode()
    else:
        data = canonical_json_bytes(body)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return 0 if body.get("ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
