"""Spans around calls into lorentzmin's public functions.

The package itself carries no instrumentation, so the tracer replaces
module attributes from outside for the length of one traced pass: every
reference to a public function in any ``lorentzmin`` module is swapped for
a wrapper that records a span, and restored afterwards.  Surfaces built
while tracing get their ``jet`` and ``position`` closures wrapped too.

Spans are aggregated, never stored one by one: per operation, per span
name and per parent span name, the tracer keeps the call count, the total
and self seconds, and the same two figures for calls not nested in a span
of the same name ("outer").  Self time is a span's duration minus the time
of its child spans.  Hot leaf calls (``Curve.at``, ``indefinite_dot``,
``format_float``) open no span; their count and time are summed into the
parent span, which keeps memory bounded.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import statistics
import sys
import time

#: (module, attribute, span name).  A name missing from the package is
#: skipped and listed in ``Tracer.missing``, so a refactor of the package
#: degrades the per-layer table instead of breaking the benchmark.
FUNCTION_SPANS = (
    ("curves", "make_example", "curves.build"),
    ("curves", "validate_family", "curves.build"),
    ("curves", "builtin_curve", "curves.build"),
    ("curves", "null_check", "surfaces.premise"),
    ("curves", "derivative_inner", "surfaces.premise"),
    ("surfaces", "check_case_b_premises", "surfaces.premise"),
    ("surfaces", "check_case_c_conditions", "surfaces.premise"),
    ("surfaces", "check_case_ii_premises", "surfaces.premise"),
    ("surfaces", "check_case_iii_conditions", "surfaces.premise"),
    ("diffgeo", "point_forms", "diffgeo.point_forms"),
    ("diffgeo", "mean_curvature_norm", "diffgeo.hnorm"),
    ("diffgeo", "fd_discrepancy", "diffgeo.fd"),
    ("harness", "verify", "harness.verify"),
    ("harness", "sweep", "harness.sweep"),
    ("harness", "export_samples", "harness.export"),
    ("harness", "dumps_json", "harness.serialize"),
    ("cli", "main", "cli.main"),
)
CONSTRUCTORS = ("translation_surface", "sphere_case_b", "sphere_case_c",
                "hyperbolic_case_ii", "hyperbolic_case_iii", "de_sitter_control")
#: (module, class, attribute, span name)
METHOD_SPANS = (
    ("report", "ConditionReport", "from_max", "report.reduce"),
    ("report", "ConditionReport", "from_min", "report.reduce"),
    ("harness", "VerificationReport", "to_dict", "harness.serialize"),
)
FUNCTION_LEAVES = (
    ("indefinite", "indefinite_dot", "indefinite.dot"),
    ("harness", "format_float", "harness.format_float"),
)
METHOD_LEAVES = (("curves", "Curve", "at", "curves.at"),)

# record fields
CALLS, TOTAL, SELF, OUTER_CALLS, OUTER = range(5)


def _module(name: str):
    return importlib.import_module(f"lorentzmin.{name}")


def replace_everywhere(current, wrapper) -> list[tuple]:
    """Point every global of every lorentzmin module that is ``current`` at
    ``wrapper``; return (module, name, old) triples for restoring."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lorentzmin" or mod_name.startswith("lorentzmin.")):
            continue
        names = [k for k, v in vars(mod).items() if v is current]
        for name in names:
            setattr(mod, name, wrapper)
            undo.append((mod, name, current))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, name, old in reversed(undo):
        setattr(owner, name, old)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._depth: dict[str, int] = {}
        self._undo: list[tuple] = []
        self.current: dict[tuple[str, str], list] = {}
        self.ops: list[tuple[str, dict]] = []
        self.missing: list[str] = []
        #: first surface of each family built while tracing, unwrapped
        self.surfaces: dict[str, object] = {}

    # -- wrappers ---------------------------------------------------------

    def _record(self, name: str, parent: str) -> list:
        rec = self.current.get((name, parent))
        if rec is None:
            rec = self.current[(name, parent)] = [0, 0.0, 0.0, 0, 0.0]
        return rec

    def span(self, name: str, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                rec = self._record(name, parent)
                rec[CALLS] += 1
                rec[TOTAL] += dt
                rec[SELF] += dt - frame[1]
                if depth[name] == 0:
                    rec[OUTER_CALLS] += 1
                    rec[OUTER] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def leaf(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            parent = stack[-1] if stack else None
            rec = self._record(name, parent[0] if parent else "")
            rec[CALLS] += 1
            rec[OUTER_CALLS] += 1
            rec[TOTAL] += dt
            rec[SELF] += dt
            rec[OUTER] += dt
            if parent:
                parent[1] += dt
            return result

        return wrapper

    def _constructor(self, fn):
        def build(*args, **kwargs):
            surface = fn(*args, **kwargs)
            self.surfaces.setdefault(surface.family or surface.label, surface)
            changes = {"position": self.span("surfaces.position", surface.position)}
            if surface.jet is not None:
                changes["jet"] = self.span("surfaces.jet", surface.jet)
            return dataclasses.replace(surface, **changes)

        return self.span("surfaces.construct", functools.wraps(fn)(build))

    # -- installation -----------------------------------------------------

    def _patch_function(self, module: str, attr: str, make) -> None:
        current = getattr(_module(module), attr, None)
        if current is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._undo += replace_everywhere(current, make(current))

    def _patch_method(self, module: str, cls_name: str, attr: str, make) -> None:
        cls = getattr(_module(module), cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    @contextlib.contextmanager
    def installed(self):
        try:
            for module, attr, name in FUNCTION_SPANS:
                self._patch_function(module, attr, functools.partial(self.span, name))
            for attr in CONSTRUCTORS:
                self._patch_function("surfaces", attr, self._constructor)
            for module, cls, attr, name in METHOD_SPANS:
                self._patch_method(module, cls, attr, functools.partial(self.span, name))
            for module, attr, name in FUNCTION_LEAVES:
                self._patch_function(module, attr, functools.partial(self.leaf, name))
            for module, cls, attr, name in METHOD_LEAVES:
                self._patch_method(module, cls, attr, functools.partial(self.leaf, name))
            yield self
        finally:
            restore(self._undo)
            self._undo = []

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        self.current = {}

    def end_op(self, op_name: str) -> None:
        self.ops.append((op_name, self.current))
        self.current = {}

    def totals(self) -> dict[tuple[str, str], list]:
        out: dict[tuple[str, str], list] = {}
        for _, records in self.ops:
            for key, rec in records.items():
                acc = out.setdefault(key, [0, 0.0, 0.0, 0, 0.0])
                for i, value in enumerate(rec):
                    acc[i] += value
        return out

    def dump(self) -> list[dict]:
        """Per-operation span aggregates, for the trace file."""
        fields = ("calls", "total_s", "self_s", "outer_calls", "outer_s")
        return [
            {"op": op_name,
             "spans": [dict(name=name, parent=parent, **dict(zip(fields, rec)))
                       for (name, parent), rec in sorted(records.items())]}
            for op_name, records in self.ops
        ]


def _sum(totals, name: str, field: int, parent=None, not_parent=None) -> float:
    return sum(rec[field] for (n, p), rec in totals.items()
               if n == name and (parent is None or p == parent)
               and (not_parent is None or p != not_parent))


def total_s(totals, name: str) -> float:
    """Seconds spent in spans called ``name``, not counting nested ones."""
    return _sum(totals, name, OUTER)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return {"surfaces.jets_per_node": "jets/node", "report.worst_tol_ratio": "ratio",
            "harness.bytes_written": "bytes"}[name]


def layer_metrics(totals, nodes: int) -> dict[str, float]:
    """The per-layer table, from one traced pass.  ``nodes`` counts the
    grid nodes of the pass; times are seconds per pass."""
    jet_calls = _sum(totals, "surfaces.jet", CALLS)
    return {
        "curves.at_calls": _sum(totals, "curves.at", CALLS),
        "curves.at_s": _sum(totals, "curves.at", TOTAL),
        "curves.build_s": _sum(totals, "curves.build", OUTER),
        "surfaces.jet_calls": jet_calls,
        "surfaces.jet_self_s": _sum(totals, "surfaces.jet", SELF),
        "surfaces.jets_per_node": jet_calls / nodes if nodes else 0.0,
        "surfaces.position_calls": _sum(totals, "surfaces.position", CALLS),
        "surfaces.position_self_s": _sum(totals, "surfaces.position", SELF),
        "surfaces.premise_calls": _sum(totals, "surfaces.premise", OUTER_CALLS),
        "surfaces.premise_harness_calls": _sum(
            totals, "surfaces.premise", OUTER_CALLS, not_parent="surfaces.construct"),
        "surfaces.premise_constructor_calls": _sum(
            totals, "surfaces.premise", OUTER_CALLS, parent="surfaces.construct"),
        "surfaces.premise_s": _sum(totals, "surfaces.premise", OUTER),
        "surfaces.construct_s": _sum(totals, "surfaces.construct", OUTER),
        "diffgeo.point_forms_calls": _sum(totals, "diffgeo.point_forms", CALLS),
        "diffgeo.point_forms_self_s": _sum(totals, "diffgeo.point_forms", SELF),
        "diffgeo.hnorm_calls": _sum(totals, "diffgeo.hnorm", CALLS),
        "diffgeo.hnorm_self_s": _sum(totals, "diffgeo.hnorm", SELF),
        "diffgeo.forms_self_s": _sum(totals, "diffgeo.point_forms", SELF)
        + _sum(totals, "diffgeo.hnorm", SELF),
        "diffgeo.fd_calls": _sum(totals, "diffgeo.fd", CALLS),
        "diffgeo.fd_s": _sum(totals, "diffgeo.fd", OUTER),
        "indefinite.dot_calls": _sum(totals, "indefinite.dot", CALLS),
        "report.reduce_calls": _sum(totals, "report.reduce", CALLS),
        "report.reduce_s": _sum(totals, "report.reduce", OUTER),
        "harness.verify_self_s": _sum(totals, "harness.verify", SELF),
        "harness.entry_self_s": sum(_sum(totals, name, SELF) for name in
                                    ("harness.verify", "harness.sweep", "harness.export")),
        "harness.serialize_s": _sum(totals, "harness.serialize", OUTER)
        + _sum(totals, "harness.format_float", TOTAL),
        "cli.main_self_s": _sum(totals, "cli.main", SELF),
    }


def probe_split(surfaces, repeats: int = 3) -> dict[str, float]:
    """Time the public ``gauss_curvature`` (the E-field stencil),
    ``mean_curvature_norm`` (the Gram projection) and ``point_forms`` (both)
    on the 5x5 subset of each surface's grid, untraced.  Each figure is the
    median of ``repeats`` sweeps over the same nodes."""
    diffgeo = _module("diffgeo")
    probes = {"efield": diffgeo.gauss_curvature,
              "projection": diffgeo.mean_curvature_norm,
              "point_forms": diffgeo.point_forms}
    out = dict.fromkeys(probes, 0.0)
    nodes = 0
    for surface in surfaces:
        pts = surface.grid((5, 5))
        nodes += len(pts)
        for key, fn in probes.items():
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for x, y in pts:
                    fn(surface, x, y)
                samples.append(time.perf_counter() - t0)
            out[key] += statistics.median(samples)
    out["nodes"] = nodes
    return out
