"""Per-layer tracing from outside the program.

Each public function of a layer is wrapped at the module it is looked up
from: ``homology_at`` is called through ``bredon.chains``, so the wrapper
goes on ``bredon.chains.homology_at``.  A wrapper records a span whose
parent is the span open when it was called, so a span's self time is its
duration minus its children's.  Counts are read from arguments and
results when the span closes; the time that takes is taken out of the
enclosing span's self time.

A wrap point whose name no longer exists is reported, and the metrics
that depend on it are reported as missing; nothing else changes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _subsets(args, result):
    return {"subsets": result.size}


def _realize(args, result):
    return {"elements": result.order}


def _classes(args, result):
    return {"classes": result.count}


def _complex(args, result):
    nnz = sum(1 for mat in result.differentials for row in mat.rows for v in row if v)
    return {
        "cells": sum(len(level) for level in result.cells),
        "coords": sum(result.dims),
        "max_coords": max(result.dims, default=0),
        "nnz": nnz,
    }


def _smith(args, result):
    a = args[0]
    return {
        "max_rows_x_cols": a.nrows * a.ncols,
        "max_entry_bits": max((abs(d).bit_length() for d in result.diagonal), default=0),
    }


def _routes(args, result):
    report = result[0]
    return {"run": len(report["methods"]), "skipped": len(report["skipped"])}


@dataclass(frozen=True)
class WrapPoint:
    module: str
    attr: str  # "name" or "Class.method"
    span: str
    count: Callable | None = None


WRAP_POINTS = (
    WrapPoint("bredon.cli", "cmd_homology", "cli.command"),
    WrapPoint("bredon.cli", "run_analysis", "cli.analysis", _routes),
    WrapPoint("bredon.cli", "enumerate_spherical", "coxeter.enumerate", _subsets),
    WrapPoint("bredon.formulas", "enumerate_spherical", "coxeter.enumerate", _subsets),
    WrapPoint("bredon.characters", "realize_group", "groups.realize", _realize),
    WrapPoint("bredon.characters", "conjugacy_classes", "groups.classes", _classes),
    WrapPoint("bredon.characters", "RepRingCache.table", "characters.table"),
    WrapPoint("bredon.characters", "dixon_table", "characters.dixon"),
    WrapPoint("bredon.characters", "trivial_table", "characters.closed_table"),
    WrapPoint("bredon.characters", "rank1_table", "characters.closed_table"),
    WrapPoint("bredon.characters", "dihedral_table", "characters.closed_table"),
    WrapPoint("bredon.characters", "tensor_table", "characters.tensor"),
    WrapPoint("bredon.characters", "RepRingCache.induction", "characters.induction"),
    WrapPoint("bredon.characters", "induction_matrix", "characters.induction_matrix"),
    WrapPoint("bredon.cli", "assemble_complex", "chains.assemble", _complex),
    WrapPoint("bredon.chains", "build_cells", "chains.build_cells"),
    WrapPoint("bredon.chains", "homology_at", "snf.homology"),
    WrapPoint("bredon.snf", "smith_normal_form", "snf.smith", _smith),
    WrapPoint("bredon.cli", "applicable_closed_forms", "formulas.closed"),
    WrapPoint("bredon.cli", "closed_form_homology", "formulas.closed"),
    WrapPoint("bredon.cli", "diagram_factors", "formulas.kunneth"),
    WrapPoint("bredon.cli", "kunneth_product", "formulas.kunneth"),
    WrapPoint("bredon.cli", "k_homology", "formulas.k_theory"),
)


class _Stats:
    __slots__ = ("calls", "leaves", "self_s", "total_s", "counts")

    def __init__(self):
        self.calls = 0
        self.leaves = 0  # spans that opened no child span
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts: dict[str, int] = {}


class Tracer:
    """Installs the wrappers, collects span statistics for one pass."""

    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.missing: dict[str, str] = {}  # span name -> reason
        self.stats: dict[str, _Stats] = {}
        self._stack: list[list] = []  # open spans: [start, child time, child count]
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for point in self.points:
            owner, name = self._resolve(point)
            if owner is None:
                continue
            original = inspect.getattr_static(owner, name)  # unbound for methods
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(point, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _resolve(self, point: WrapPoint):
        try:
            owner = importlib.import_module(point.module)
        except ImportError as exc:
            self._lose(point, f"cannot import {point.module}: {exc}")
            return None, None
        *path, name = point.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            self._lose(point, f"{point.module}.{point.attr} not found")
            return None, None
        return owner, name

    def _lose(self, point: WrapPoint, reason: str) -> None:
        if point.span not in self.missing:
            self.missing[point.span] = reason
            print(f"trace: {reason}; metrics from span {point.span} are missing", file=sys.stderr)

    def _wrap(self, point: WrapPoint, fn):
        tracer = self
        name = point.span
        count = point.count

        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append([perf_counter(), 0.0, 0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                start, child_s, children = stack.pop()
                tracer._record(name, end - start, child_s, children)
            if count is not None:
                tracer._count(point, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- recording -------------------------------------------------------

    def _stats(self, name: str) -> _Stats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = _Stats()
        return stats

    def _record(self, name, duration, child_s, children) -> None:
        stats = self._stats(name)
        stats.calls += 1
        stats.leaves += children == 0
        stats.self_s += duration - child_s
        stats.total_s += duration
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[2] += 1

    def _count(self, point: WrapPoint, args, result) -> None:
        start = perf_counter()
        try:
            values = point.count(args, result)
        except Exception as exc:  # a later refactor changed the returned shape
            self._lose(point, f"cannot count {point.module}.{point.attr}: {exc!r}")
            values = {}
        counts = self._stats(point.span).counts
        for key, value in values.items():
            if key.startswith("max_"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        if self._stack:
            # bookkeeping is not the enclosing layer's work
            self._stack[-1][1] += perf_counter() - start

    def reset(self) -> None:
        self.stats = {}


def _self(*spans):
    return lambda st: sum(st(s).self_s for s in spans), spans


def _calls(span):
    return lambda st: st(span).calls, (span,)


def _counted(span, key):
    return lambda st: st(span).counts.get(key, 0), (span,)


def _hit_ratio(st):
    lookups = st("characters.table")
    return lookups.leaves / lookups.calls if lookups.calls else 0.0


def _report_s(st):
    return st("cli.command").total_s - st("cli.analysis").total_s


# metric name -> (unit, (function of the span statistics, spans it reads))
LAYER_METRICS = {
    "coxeter.enumerate_s": ("s", _self("coxeter.enumerate")),
    "coxeter.spherical_subsets": ("count", _counted("coxeter.enumerate", "subsets")),
    "groups.realize_s": ("s", _self("groups.realize")),
    "groups.realize_calls": ("count", _calls("groups.realize")),
    "groups.elements": ("count", _counted("groups.realize", "elements")),
    "groups.classes_s": ("s", _self("groups.classes")),
    "groups.class_count": ("count", _counted("groups.classes", "classes")),
    "characters.dixon_s": ("s", _self("characters.dixon")),
    "characters.dixon_tables": ("count", _calls("characters.dixon")),
    "characters.closed_tables": ("count", _calls("characters.closed_table")),
    "characters.tensor_s": ("s", _self("characters.tensor")),
    "characters.tensor_tables": ("count", _calls("characters.tensor")),
    "characters.induction_s": (
        "s", _self("characters.induction", "characters.induction_matrix")
    ),
    "characters.induction_blocks": ("count", _calls("characters.induction_matrix")),
    "characters.table_lookups": ("count", _calls("characters.table")),
    "characters.table_hit_ratio": ("ratio", (_hit_ratio, ("characters.table",))),
    "chains.build_cells_s": ("s", _self("chains.build_cells")),
    "chains.assemble_s": ("s", _self("chains.assemble")),
    "chains.cells": ("count", _counted("chains.assemble", "cells")),
    "chains.coords": ("count", _counted("chains.assemble", "coords")),
    "chains.max_coords": ("count", _counted("chains.assemble", "max_coords")),
    "chains.nnz": ("count", _counted("chains.assemble", "nnz")),
    "snf.homology_s": ("s", _self("snf.homology", "snf.smith")),
    "snf.smith_calls": ("count", _calls("snf.smith")),
    "snf.max_rows_x_cols": ("count", _counted("snf.smith", "max_rows_x_cols")),
    "snf.max_entry_bits": ("bits", _counted("snf.smith", "max_entry_bits")),
    "formulas.closed_s": ("s", _self("formulas.closed")),
    "formulas.kunneth_s": ("s", _self("formulas.kunneth")),
    "formulas.k_theory_s": ("s", _self("formulas.k_theory")),
    "cli.analysis_s": ("s", _self("cli.analysis")),
    "cli.report_s": ("s", (_report_s, ("cli.command", "cli.analysis"))),
    "cli.routes_run": ("count", _counted("cli.analysis", "run")),
    "cli.routes_skipped": ("count", _counted("cli.analysis", "skipped")),
}


def layer_values(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of the spans recorded since the last reset;
    None marks a metric whose wrap point or count is missing."""
    empty = _Stats()

    def st(name):
        return tracer.stats.get(name, empty)

    out = {}
    for metric, (_, (fn, spans)) in LAYER_METRICS.items():
        lost = any(span in tracer.missing for span in spans)
        out[metric] = None if lost else fn(st)
    return out
