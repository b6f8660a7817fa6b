"""In-memory spans around calls into the fstarcount layers.

The benchmark does not change the library: for a traced run it swaps
each instrumented function, in every module namespace that holds a
reference to it, for a wrapper that records a span (name, start, end,
parent, query id) and an optional count, and it puts the originals back
afterwards.  Counts that need extra arithmetic are computed after the
span has ended, so they do not inflate the span's time.
"""

from __future__ import annotations

import gzip
import json
import time
from functools import cached_property
from math import comb

import fstarcount
from fstarcount import bases, coloring, cones, exact, rational, simplices

# Span record layout (lists are cheaper than objects on the hot path).
NAME, START, END, PARENT, QUERY, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = None
        self.extra: dict[str, float] = {}  # computed counters by metric name

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.query, 0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    def parent_name(self, index: int):
        parent = self.spans[index][PARENT]
        return self.spans[parent][NAME] if parent >= 0 else None

    def ancestors(self, index: int):
        parent = self.spans[index][PARENT]
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent][PARENT]

    def add(self, metric: str, value: float) -> None:
        """Accumulate a computed counter; only timed queries (integer
        query ids) count, not the oracle checks."""
        if isinstance(self.query, int):
            self.extra[metric] = self.extra.get(metric, 0) + value

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "query",
                                  "count"], "spans": self.spans}, handle)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(index, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _parallelepiped_counts(tracer: Tracer):
    def after(index, args, result):
        basis = args[0]
        items, denom = result
        if tracer.parent_name(index) == "cones.parallelepiped":
            return  # inner span-coordinate scan; counted by the outer one
        tracer.spans[index][COUNT] = len(items)
        if tracer.parent_name(index) == "cones.atomic":
            d = basis.dim
            tracer.add("cones.atomic_candidates", sum(
                comb((d * denom - sum(t)) // denom + d, d) for _, t in items))
        if any(span[NAME].startswith("rational.")
               for span in tracer.ancestors(index)):
            tracer.add("rational.cone_det", len(items))
        full = basis
        while full.__dict__.get("_reduced") is not None:
            full = full._reduced[0]
        box = 1
        for c in range(full.ambient_dim):
            coords = [g[c] for g in full.generators]
            box *= (sum(x for x in coords if x > 0)
                    - sum(x for x in coords if x < 0) + 1)
        tracer.add("cones.box_points", box)
    return after


def _set_count(tracer: Tracer, value):
    def after(index, args, result):
        tracer.spans[index][COUNT] = value(args, result)
    return after


class Instrumented:
    """Context manager that installs the wrappers and restores the
    original functions on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _patch(self, name: str, attr: str, modules, after=None) -> None:
        original = getattr(modules[0], attr)
        wrapper = _wrap(self.tracer, name, original, after)
        for module in modules:
            if getattr(module, attr, None) is original:
                self.saved.append((module, attr, module.__dict__[attr]))
                setattr(module, attr, wrapper)

    def __enter__(self) -> Tracer:
        t = self.tracer
        one = _set_count(t, lambda args, result: 1)
        pkg = fstarcount
        # exact: every ConeBasis and Simplex builds a solve template.
        init = exact.SolveTemplate.__init__
        self.saved.append((exact.SolveTemplate, "__init__", init))
        exact.SolveTemplate.__init__ = _wrap(t, "exact.template", init, one)
        # cones: span reduction runs on the first access of _reduced.
        reduced = cones.ConeBasis.__dict__["_reduced"]
        self.saved.append((cones.ConeBasis, "_reduced", reduced))
        wrapped = cached_property(_wrap(
            t, "cones.reduce", reduced.func,
            _set_count(t, lambda args, result: int(result is not None))))
        wrapped.__set_name__(cones.ConeBasis, "_reduced")
        cones.ConeBasis._reduced = wrapped
        self._patch("cones.parallelepiped", "_parallelepiped_scaled",
                    [cones], _parallelepiped_counts(t))
        self._patch("cones.atomic", "enumerate_atomic",
                    [cones, simplices, rational, pkg],
                    _set_count(t, lambda args, result: len(result)))
        self._patch("cones.partition", "verify_partition", [cones, pkg],
                    _set_count(t, lambda args, r: r.points_checked))
        # simplices
        self._patch("simplices.count", "count_points", [simplices, pkg],
                    _set_count(t, lambda args, result: result))
        self._patch("simplices.fstar", "fstar_simplex", [simplices, pkg])
        self._patch("simplices.hstar", "hstar_simplex", [simplices, pkg])
        self._patch("simplices.complex_fstar", "fstar_complex",
                    [simplices, pkg])
        self._patch("simplices.interpolate", "fstar_interpolate",
                    [simplices, pkg],
                    _set_count(t, lambda args, result: int(args[0].is_open)))
        # rational
        self._patch("rational.residue", "residue_fstar", [rational, pkg])
        self._patch("rational.profile", "count_via_profile", [rational, pkg])
        # coloring
        self._patch("coloring.faces", "coloring_complex_faces",
                    [coloring, pkg])
        self._patch("coloring.realize", "realize_coloring_complex",
                    [coloring, pkg],
                    _set_count(t, lambda args, result: len(result.cells)))
        # bases
        for attr in ("fstar_from_poly", "hstar_from_poly", "poly_from_fstar",
                     "poly_from_hstar"):
            self._patch("bases.convert", attr, [bases, coloring, pkg], one)
        return t

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def layer_times(tracer: Tracer, queries) -> dict[str, dict[str, float]]:
    """Per span name: self time, inclusive time (outermost spans only),
    span count and summed counts, over spans whose query id is in
    `queries`."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if span[QUERY] not in queries:
            continue
        entry = out.setdefault(span[NAME], {"self_s": 0.0, "total_s": 0.0,
                                            "spans": 0, "count": 0})
        duration = span[END] - span[START]
        entry["self_s"] += duration - child_time[i]
        entry["spans"] += 1
        entry["count"] += span[COUNT]
        if span[PARENT] < 0 or spans[span[PARENT]][NAME] != span[NAME]:
            entry["total_s"] += duration
    return out
