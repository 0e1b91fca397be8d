"""Layer spans recorded from outside the program.

`Tracer.install` wraps the public functions of each `perhom` layer.  It
rebinds every module attribute (in every loaded ``perhom`` module) that is
the original function object, the `Matrix` arithmetic methods and
`BlockSystem.matrix` on their classes, and the entries of the verify-suite
table.  `Tracer.remove` puts every original back, so the untimed code and
the timed code are the same objects.

A span's self time is its duration minus the durations of its direct
child spans.  Counts (`cells`, `macs`, `cells_out`, `unknowns`, `bytes`)
are exact functions of the inputs and repeat from run to run.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _field(m) -> str:
    return "qq" if m.field.p is None else "fp"


def _shape_cells(m) -> int:
    return m.rows * m.cols


# (module, attribute, span name, field-tag argument, counts).  The field
# tag, when given, is the index of the argument whose field ("qq" or "fp")
# suffixes the span name; each count is (key, function of (args, result)).
_LINALG = [
    ("linalg", "rref", "linalg.rref", 0, [("cells", lambda a, r: _shape_cells(a[0]))]),
    ("linalg", "kron", "linalg.kron", 0, [("cells_out", lambda a, r: _shape_cells(a[0]) * _shape_cells(a[1]))]),
    ("linalg", "assemble_blocks", "linalg.assemble_blocks", None, []),
]

# Matrix methods: (attribute, span name, counts); wrapped on the class.
_METHODS = [
    ("__matmul__", "linalg.matmul", [("macs", lambda a, r: a[0].rows * a[0].cols * a[1].cols)]),
    ("__add__", "linalg.elementwise", []),
    ("__sub__", "linalg.elementwise", []),
    ("__neg__", "linalg.elementwise", []),
]

SOLVERS = [
    ("complexes", "hom_space_dims"),
    ("periodic", "periodic_hom_dims"),
    ("orbit", "orbit_hom"),
    ("complexes", "find_null_homotopy"),
    ("periodic", "find_periodic_homotopy"),
    ("periodic", "unrolled_identity_contraction"),
    ("periodic", "periodize_null_homotopy"),
    ("linalg", "solve_linear"),
    ("linalg", "kernel_basis"),
]

CONSTRUCTIONS = [
    ("complexes", "cone"),
    ("complexes", "tensor_complex"),
    ("periodic", "compress"),
    ("periodic", "periodic_cone"),
    ("graded", "tensor_periodic"),
    ("graded", "compress_modules"),
    ("koszul", "lambda_dual"),
    ("koszul", "total_complex"),
    ("koszul", "bgg_module"),
    ("koszul", "bgg_complex"),
    ("koszul", "bgg_periodic"),
]

CHECKS = [
    ("complexes", "validate"),
    ("complexes", "validate_chain_map"),
    ("complexes", "homotopy_defect"),
    ("periodic", "validate_periodic"),
    ("periodic", "validate_periodic_map"),
    ("periodic", "periodic_homotopy_defect"),
    ("graded", "validate_module"),
    ("graded", "validate_module_complex"),
    ("koszul", "validate_bgg"),
]

_DOCUMENTS = [
    ("documents", "parse_document", [("bytes", lambda a, r: len(a[0]))]),
    ("documents", "canonical_json_bytes", [("bytes", lambda a, r: len(r))]),
    ("documents", "document_dict", []),
    # The bgg command serializes its action matrices through matrix_doc
    # directly, outside document_dict.
    ("documents", "matrix_doc", []),
]

SUITES = [
    "bgg-cohomology",
    "bgg-square",
    "bgg-wellformed",
    "cone-compress",
    "embedding",
    "flags",
    "periodize",
    "tensor-square",
    "twist",
    "unit-splitting",
]

FIELDS = ("qq", "fp")


def layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for f in FIELDS:
        out += [(f"linalg.rref.{f}.calls", "count", "lower"), (f"linalg.rref.{f}.self_s", "s", "lower"),
                (f"linalg.rref.{f}.cells", "count", "lower")]
    for f in FIELDS:
        out += [(f"linalg.matmul.{f}.calls", "count", "lower"), (f"linalg.matmul.{f}.self_s", "s", "lower"),
                (f"linalg.matmul.{f}.macs", "count", "lower")]
    for f in FIELDS:
        out += [(f"linalg.kron.{f}.calls", "count", "lower"), (f"linalg.kron.{f}.self_s", "s", "lower"),
                (f"linalg.kron.{f}.cells_out", "count", "lower")]
    for f in FIELDS:
        out += [(f"linalg.elementwise.{f}.calls", "count", "lower"), (f"linalg.elementwise.{f}.self_s", "s", "lower")]
    out += [("linalg.assemble_blocks.calls", "count", "lower"), ("linalg.assemble_blocks.self_s", "s", "lower")]
    out += [(f"linalg.BlockSystem.matrix.{k}", "s" if k == "self_s" else "count", "lower")
            for k in ("calls", "self_s", "unknowns", "cells")]
    for mod, fn in SOLVERS + CONSTRUCTIONS + CHECKS:
        out += [(f"{mod}.{fn}.calls", "count", "lower"), (f"{mod}.{fn}.self_s", "s", "lower")]
    out += [("checks.self_s", "s", "lower"), ("checks.share", "ratio", "lower")]
    out += [("documents.parse_document.self_s", "s", "lower"), ("documents.parse_document.bytes", "bytes", "lower"),
            ("documents.canonical_json_bytes.self_s", "s", "lower"),
            ("documents.canonical_json_bytes.bytes", "bytes", "lower"),
            ("documents.document_dict.self_s", "s", "lower"), ("documents.matrix_doc.self_s", "s", "lower")]
    out += [(f"suites.{s}.s", "s", "lower") for s in SUITES]
    out += [("trace.coverage", "ratio", "higher"), ("trace.overhead", "ratio", "lower")]
    return out


class Tracer:
    """Span recorder; spans count only while `active` is true."""

    def __init__(self):
        self.active = False
        self.top_level_s = 0.0
        self.checks_s = 0.0
        self._check_depth = 0
        self.stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, tag_arg=None, counts=(), is_check=False):
        tracer = self

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name if tag_arg is None else f"{name}.{_field(args[tag_arg])}"
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._check_depth += is_check
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer._check_depth -= is_check
                if is_check and not tracer._check_depth:
                    tracer.checks_s += elapsed
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                else:
                    tracer.top_level_s += elapsed
                st = tracer.stats[label]
                st["calls"] += 1
                st["self_s"] += elapsed - frame[0]
                st["total_s"] += elapsed
            for key, count in counts:
                st[key] = st.get(key, 0) + count(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "perhom" and not modname.startswith("perhom."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, ph) -> None:
        """Wrap every layer function of the imported package `ph`."""
        for mod, attr, name, tag, counts in _LINALG:
            fn = getattr(getattr(ph, mod), attr)
            self._rebind(fn, self._wrap(fn, name, tag, counts))
        methods = [(ph.linalg.Matrix, attr, name, 0, counts) for attr, name, counts in _METHODS]
        methods.append((ph.linalg.BlockSystem, "matrix", "linalg.BlockSystem.matrix", None, [
            ("unknowns", lambda a, r: a[0].unknown_dim), ("cells", lambda a, r: _shape_cells(r))]))
        for cls, attr, name, tag, counts in methods:
            fn = vars(cls)[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, tag, counts))
        layers = [(m, f, (), False) for m, f in SOLVERS + CONSTRUCTIONS]
        layers += [(m, f, (), True) for m, f in CHECKS] + [(m, f, c, False) for m, f, c in _DOCUMENTS]
        for mod, attr, counts, is_check in layers:
            fn = getattr(getattr(ph, mod), attr)
            self._rebind(fn, self._wrap(fn, f"{mod}.{attr}", None, counts, is_check))
        table = ph.suites.SUITES
        for suite in SUITES:
            fn = table[suite]
            self._patched.append((table, suite, fn))
            table[suite] = self._wrap(fn, f"suites.{suite}")

    def remove(self) -> None:
        """Restore every original function, method and table entry."""
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def report(self, op_wall_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics for `layer_metrics`, given the traced pass's
        summed operation time and the untraced pass's."""
        out: dict[str, float] = {}
        for name, _, _ in layer_metrics():
            if name.startswith(("checks.", "trace.")):
                continue
            span, key = name.rsplit(".", 1)
            st = self.stats.get(span, {})
            # A suite's figure is its inclusive time: suites are the roots.
            out[name] = st.get("total_s" if key == "s" else key, 0)
        out["checks.self_s"] = sum(self.stats[f"{m}.{f}"]["self_s"] for m, f in CHECKS if f"{m}.{f}" in self.stats)
        # The share counts everything a check calls, such as its products.
        out["checks.share"] = self.checks_s / op_wall_s if op_wall_s else 0.0
        out["trace.coverage"] = self.top_level_s / op_wall_s if op_wall_s else 0.0
        out["trace.overhead"] = op_wall_s / untraced_s if untraced_s else 0.0
        return out
