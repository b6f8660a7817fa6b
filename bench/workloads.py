"""Seeded query workloads for the fstarcount benchmark.

Each workload turns a seed into a list of plain-data inputs (ints and
"p/q" strings, so the same seed gives byte-identical JSON), runs one
query per input through the library's public functions, and checks each
output against an oracle that does not share the queried code path.

Inputs follow a fixed cycle of slots (dimension, size class); the seed
only chooses the concrete coordinates.  Every run therefore sees the
same mix of query sizes, which keeps latency percentiles comparable
between seeds.

Library calls go through module attributes (``simplices.fstar_simplex``
rather than a bound name) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

from fstarcount import (bases, coloring, cones, exact, rational, serialize,
                        simplices)


class Mismatch(Exception):
    """A query output disagrees with its oracle."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _vertices(raw) -> tuple:
    return tuple(tuple(Fraction(x) for x in v) for v in raw)


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def _box(vertices) -> int:
    """Product of the bounding box extents of the vertices."""
    volume = 1
    for coords in zip(*vertices):
        volume *= max(coords) - min(coords)
    return volume


def _integral_simplex(rng: random.Random, dim: int, det: tuple[int, int],
                      box: tuple[int, int], entry: int) -> list[list[int]]:
    """Vertices of an integral d-simplex with edge vectors drawn from
    [-entry, entry], normalized volume within `det` and bounding box
    volume within `box`.  Query cost follows both, so the bands keep the
    cost of one slot steady from seed to seed."""
    while True:
        edges = [[rng.randint(-entry, entry) for _ in range(dim)]
                 for _ in range(dim)]
        if (box[0] <= _box([[0] * dim] + edges) <= box[1]
                and det[0] <= abs(_det(edges)) <= det[1]):
            break
    origin = [rng.randint(-2, 2) for _ in range(dim)]
    return [origin] + [[o + e for o, e in zip(origin, row)] for row in edges]


def _rational_simplex(rng: random.Random, dim: int,
                      denominators: tuple[int, ...],
                      cone_det: tuple[int, int]) -> list[list[str]]:
    """Vertices ("p/q" strings) of a d-simplex with coordinates in [-2, 2]
    over the given denominators, at least one of them non-integral, whose
    cone at height = period has a determinant within `cone_det`."""
    while True:
        verts = []
        for _ in range(dim + 1):
            q = rng.choice(denominators)
            verts.append([Fraction(rng.randint(-2 * q, 2 * q), q)
                          for _ in range(dim)])
        period = lcm(*(x.denominator for v in verts for x in v))
        edges = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
        volume = abs(_det(edges))
        if period > 1 and cone_det[0] <= period ** (dim + 1) * volume \
                <= cone_det[1]:
            return [[serialize.rational_to_str(x) for x in v] for v in verts]


class Workload:
    """One family of queries.  Subclasses define the slot cycle and the
    per-slot input generator, the query, its oracle check and the CLI
    sample."""

    name = ""
    slots: tuple = ()
    cycle_seconds = 1.0  # one slot cycle's query time at the seed commit

    def stream(self, seed: int):
        """Endless inputs, slot cycle after slot cycle, from one seeded
        random stream."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            for slot in self.slots:
                yield self.make(rng, slot)

    def make(self, rng: random.Random, slot) -> dict:
        raise NotImplementedError

    def run(self, inp: dict) -> dict:
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> None:
        """Raise Mismatch (or any exception) unless out is correct."""
        raise NotImplementedError

    def cli_sample(self, pool: list[dict]) -> list[tuple[list, dict, bytes]]:
        """(CLI argv with "{file}" standing for the input file, the file's
        JSON payload, expected stdout) for a fixed sample of the pool; the
        expected bytes come from an oracle or an oracle-checked result."""
        raise NotImplementedError

    def corrupt(self, out: dict) -> dict:
        """A copy of a correct output with one answer off by one: an f*
        entry, or a count where the query returns counts."""
        raise NotImplementedError


def _canonical(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _bump_first(entries) -> list:
    return [entries[0] + 1] + list(entries[1:])


class FatSimplex(Workload):
    """Open integral simplices of dimension 3-4 with normalized volume
    from about 10 to about 1000 (f* by the atomic walk, h* of the
    closure by the parallelepiped scan), plus rational open simplices of
    dimension 1-2 (residue f* and the mixed-height profile count)."""

    name = "fat-simplex"
    cycle_seconds = 1.1
    # ("integral", dim, det band, box band, edge entry bound) or
    # ("rational", dim, denominators, cone det band).  Sorted by cost the
    # cycle is 6 cheap slots, a pair of one kind (3D det 50-60), 4 more
    # and a top pair (3D det 900-1000): p50 falls inside the first pair
    # and p90 inside the top pair, not between two kinds.
    slots = (
        ("integral", 3, (6, 8), (12, 24), 2),
        ("integral", 3, (50, 60), (84, 128), 4),
        ("integral", 4, (50, 60), (192, 360), 3),
        ("rational", 2, (2, 4), (12, 24)),
        ("integral", 3, (220, 260), (350, 495), 6),
        ("rational", 1, (2, 3, 4, 5), (4, 40)),
        ("integral", 3, (900, 1000), (1260, 1755), 9),
        ("integral", 4, (50, 60), (192, 360), 3),
        ("integral", 3, (6, 8), (12, 24), 2),
        ("rational", 2, (3,), (12, 24)),
        ("integral", 3, (50, 60), (84, 128), 4),
        ("integral", 4, (220, 260), (630, 1050), 4),
        ("rational", 1, (2, 3, 4, 5), (4, 40)),
        ("integral", 3, (900, 1000), (1260, 1755), 9),
    )

    def make(self, rng, slot):
        if slot[0] == "integral":
            return {"kind": "integral",
                    "vertices": _integral_simplex(rng, *slot[1:])}
        verts = _rational_simplex(rng, *slot[1:])
        period = lcm(*(Fraction(x).denominator for v in verts for x in v))
        return {"kind": "rational", "vertices": verts, "period": period,
                "dilate": rng.randint(1, 3 * period)}

    def run(self, inp):
        verts = _vertices(inp["vertices"])
        s = simplices.Simplex(verts, is_open=True)
        if inp["kind"] == "integral":
            f = simplices.fstar_simplex(s)
            h = simplices.hstar_simplex(s.as_closed())
            return {"fstar": list(f.entries), "hstar": list(h.entries)}
        qp = rational.residue_fstar(s, inp["period"])
        count = rational.count_via_profile(s, inp["dilate"])
        return {"residues": [list(f.entries) for f in qp.residue_fstar],
                "profile_count": count}

    def check(self, inp, out):
        verts = _vertices(inp["vertices"])
        s = simplices.Simplex(verts, is_open=True)
        d = s.dim
        if inp["kind"] == "integral":
            f = simplices.fstar_interpolate(s)
            _expect(out["fstar"] == list(f.entries), "f* != interpolation")
            # Ehrhart-Macdonald reciprocity gives the closed polynomial from
            # the interpolated open one: L_closed(k) = (-1)^d L_open(-k).
            p_open = bases.poly_from_fstar(f).coefficients
            closed = exact.Polynomial((-1) ** (d + i) * c
                                      for i, c in enumerate(p_open))
            h = bases.hstar_from_poly(closed, d)
            _expect(out["hstar"] == list(h.entries),
                    "h* != conversion of the interpolated closed polynomial")
            return
        m = inp["period"]
        qp = rational.EhrhartQuasiPolynomial(
            m, d, tuple(bases.FStarVector(tuple(r), d)
                        for r in out["residues"]))
        # d+1 heights per residue class pin down every residue polynomial.
        for height in range(1, (d + 1) * m + 1):
            _expect(simplices.count_points(s, height)
                    == rational.quasi_eval(qp, height),
                    f"quasi_eval != count_points at {height}")
        _expect(simplices.count_points(s, inp["dilate"])
                == out["profile_count"], "profile count != count_points")

    def cli_sample(self, pool):
        # Small inputs, so that the calls time the CLI itself: start-up,
        # import, parse and emit.
        sample = []
        for inp in (pool[0], pool[8]):  # 3D det 6-8
            s = simplices.Simplex(_vertices(inp["vertices"]), is_open=True)
            f = simplices.fstar_interpolate(s)
            sample.append((["fstar", "--simplex", "{file}"],
                           {"vertices": inp["vertices"], "openness": "open"},
                           _canonical({"ambient_degree": f.ambient_degree,
                                       "fstar": [str(x) for x in f.entries],
                                       "method": "atomic"})))
        for inp in (pool[5], pool[9]):  # rational segment and triangle
            out = self.run(inp)
            self.check(inp, out)
            d = len(inp["vertices"]) - 1
            sample.append((["rational-fstar", "--period", str(inp["period"]),
                            "--simplex", "{file}"],
                           {"vertices": inp["vertices"], "openness": "open"},
                           _canonical({
                               "ambient_degree": d, "period": inp["period"],
                               "residues": [
                                   {"heights_mod": l + 1,
                                    "fstar": [str(x) for x in r]}
                                   for l, r in enumerate(out["residues"])]})))
        return sample

    def corrupt(self, out):
        out = dict(out)
        if "fstar" in out:
            out["fstar"] = _bump_first(out["fstar"])
        else:
            out["residues"] = [_bump_first(out["residues"][0])] \
                + out["residues"][1:]
        return out


class ColoringComplex(Workload):
    """Coloring complexes of hypergraphs on 4-5 vertices with 2-3 edges:
    tens to hundreds of unimodular open cells in R^n, each a few exact
    solve templates and a one-point atomic walk."""

    name = "coloring-complex"
    cycle_seconds = 0.7
    # (vertex count, edge sizes); two slots each for the median and the
    # upper tail keep p50 and p90 inside a size class, not on a boundary.
    slots = (
        (4, (3, 3, 3)),
        (4, (2, 3)),
        (4, (2, 2)),
        (4, (2, 2, 3)),
        (4, (2, 2, 2)),
        (4, (2, 2, 2)),
        (5, (3, 3)),
        (5, (3, 3, 3)),
        (5, (2, 3)),
        (5, (2, 3, 3)),
    )

    def make(self, rng, slot):
        n, sizes = slot
        while True:
            edges = [sorted(rng.sample(range(1, n + 1), k)) for k in sizes]
            if len({tuple(e) for e in edges}) == len(edges):
                return {"vertices": n, "edges": edges}

    @staticmethod
    def _graph(inp):
        return coloring.Hypergraph(inp["vertices"],
                                   tuple(frozenset(e) for e in inp["edges"]))

    def run(self, inp):
        graph = self._graph(inp)
        cx = coloring.realize_coloring_complex(graph)
        f = simplices.fstar_complex(cx)
        _, hstar = coloring.coloring_complex_hstar(graph)
        return {"cells": len(cx.cells), "fstar": list(f.entries),
                "hstar": list(hstar.entries)}

    def check(self, inp, out):
        f = coloring.coloring_complex_fvector(self._graph(inp))
        _expect(out["fstar"] == [Fraction(x) for x in f],
                "geometric f* != combinatorial f-vector")
        _expect(out["cells"] == sum(f), "cell count != face count")

    def cli_sample(self, pool):
        sample = []
        for inp in pool[1:5]:
            out = self.run(inp)
            self.check(inp, out)
            sample.append((["coloring-complex", "--hypergraph", "{file}"], inp,
                           _canonical({
                               "dimension": len(out["fstar"]) - 1,
                               "f": [str(x) for x in out["fstar"]],
                               "fstar": [str(x) for x in out["fstar"]],
                               "hstar": [serialize.rational_to_str(x)
                                         for x in out["hstar"]]})))
        return sample

    def complex_sample(self, pool):
        """complex-fstar runs on realized complexes, for the --parallel
        comparison; same shape as cli_sample."""
        sample = []
        for inp in pool[7:10]:  # the three largest slots, 30-90 cells
            graph = self._graph(inp)
            cells = coloring.realize_coloring_complex(graph).cells
            f = coloring.coloring_complex_fvector(graph)
            sample.append((["complex-fstar", "--complex", "{file}"],
                           {"cells": [serialize.simplex_to_json(c)
                                      for c in cells]},
                           _canonical({"ambient_degree": len(f) - 1,
                                       "fstar": [str(x) for x in f]})))
        return sample

    def corrupt(self, out):
        return dict(out, fstar=_bump_first(out["fstar"]))


class DilateCount(Workload):
    """Brute-force counts of open and closed integral simplices of
    dimension 2-4 at every dilate up to 5-10, plus the atomic partition
    check of seeded cones: the lattice scan in its wide-box regime."""

    name = "dilate-count"
    cycle_seconds = 0.6
    # ("count", dim, open, top dilate, det band, box band, entry) or
    # ("partition", dim, max_level, det band, box band, entry).  Sorted by
    # cost: partitions and 4D counts, the 2D pair, then 3D counts with the
    # closed pair on top, so p50 and p90 each fall inside one kind.
    slots = (
        ("count", 2, True, 10, (180, 220), (210, 285), 16),
        ("partition", 2, 16, (25, 35), (30, 90), 6),
        ("count", 3, True, 8, (55, 65), (96, 147), 4),
        ("count", 4, False, 4, (20, 25), (100, 200), 3),
        ("count", 3, False, 8, (55, 65), (96, 147), 4),
        ("count", 2, False, 10, (180, 220), (210, 285), 16),
        ("partition", 3, 6, (25, 35), (30, 90), 3),
        ("count", 3, True, 8, (55, 65), (96, 147), 4),
        ("count", 4, True, 5, (20, 25), (100, 200), 3),
        ("count", 3, False, 8, (55, 65), (96, 147), 4),
    )

    def make(self, rng, slot):
        if slot[0] == "count":
            _, dim, is_open, dilate, det, box, entry = slot
            return {"kind": "count",
                    "vertices": _integral_simplex(rng, dim, det, box, entry),
                    "open": is_open, "dilate": dilate}
        _, dim, max_level, det, box, entry = slot
        verts = _integral_simplex(rng, dim, det, box, entry)
        return {"kind": "partition", "max_level": max_level,
                "generators": [[x - o for x, o in zip(v, verts[0])]
                               for v in verts[1:]]}

    def run(self, inp):
        if inp["kind"] == "count":
            s = simplices.Simplex(_vertices(inp["vertices"]),
                                  is_open=inp["open"])
            return {"counts": [simplices.count_points(s, k)
                               for k in range(1, inp["dilate"] + 1)]}
        report = cones.verify_partition(cones.ConeBasis(inp["generators"]),
                                        inp["max_level"])
        return {"passed": report.passed, "points": report.points_checked,
                "atomic": report.atomic_count}

    def _fstar(self, inp) -> bases.FStarVector:
        """f* of the queried set as a disjoint union of open faces."""
        ids = list(range(len(inp["vertices"])))
        coords = dict(zip(ids, inp["vertices"]))
        remove = ([[i for i in ids if i != j] for j in ids]
                  if inp["open"] else [])
        cx = simplices.open_faces([ids], coords, remove)
        return simplices.fstar_complex(cx)

    def check(self, inp, out):
        if inp["kind"] == "count":
            f = self._fstar(inp)
            _expect(out["counts"] == [bases.eval_fstar(f, k) for k in
                                      range(1, inp["dilate"] + 1)],
                    "count != eval_fstar of the open faces' f*")
            return
        _expect(out["passed"] is True, "partition check failed")

    def cli_sample(self, pool):
        # The 2D and 3D simplices of the first cycle counted at dilate 2:
        # small inputs, so that the calls time the CLI itself.
        sample = []
        for inp in (pool[0], pool[2], pool[4], pool[5]):
            value = bases.eval_fstar(self._fstar(inp), 2)
            sample.append((["count", "--dilate", "2", "--simplex", "{file}"],
                           {"vertices": inp["vertices"],
                            "openness": "open" if inp["open"] else "closed"},
                           _canonical({"count": str(value)})))
        return sample

    def corrupt(self, out):
        if "counts" in out:
            return dict(out, counts=_bump_first(out["counts"]))
        return dict(out, passed=False)


WORKLOADS = {w.name: w for w in (FatSimplex(), ColoringComplex(),
                                 DilateCount())}
