"""Coloring complexes of hypergraphs.

The two-coloring vectors of a hypergraph that are constant on some edge
(improper colorings), ordered componentwise, form a simplicial complex:
a face is a chain of improper vectors that are all constant on one
common edge.  Every face is a unimodular simplex with 0/1 vertex
coordinates, so the complex's counting polynomial is determined by its
f-vector, and its h*-vector can have negative entries even though the
f*-vector never does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .bases import (FStarVector, HStarVector, hstar_from_poly,
                    poly_from_fstar)

if TYPE_CHECKING:
    from .simplices import OpenComplex

Vertex = tuple[int, ...]
Face = frozenset

# Most chain faces, summed over the edges, of a Hypergraph: the bound on
# what coloring_complex_faces enumerates.  Two 2-vertex edges on 8
# vertices (94,584 chains) peak at about 75 MB and take 1 s; one 2-vertex
# edge on 9 vertices would be 545,834 chains and 417 MB.
_MAX_FACES = 10**5


def _chain_count(r: int) -> int:
    """Chains of the Boolean lattice on r coordinates without its top and
    bottom: Fubini(r) - 1, but computed only until it passes _MAX_FACES."""
    fubini = [1]  # ordered set partitions of 0, 1, 2, ... elements
    while len(fubini) <= r and fubini[-1] <= _MAX_FACES + 1:
        n = len(fubini)
        fubini.append(sum(math.comb(n, k) * fubini[n - k]
                          for k in range(1, n + 1)))
    return fubini[-1] - 1


@dataclass(frozen=True)
class Hypergraph:
    vertex_count: int
    edges: tuple[frozenset, ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("at least one vertex required")
        edges = tuple(frozenset(int(v) for v in e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for e in edges:
            if len(e) < 2:
                raise ValueError("edges must contain at least two vertices")
            if not all(1 <= v <= self.vertex_count for v in e):
                raise ValueError("edge vertex outside 1..vertex_count")
        # The improper vectors of edge e are the Boolean lattice on the
        # n - |e| + 1 coordinates (e's common value and the other
        # vertices) without its top and bottom: count its chains up front.
        chains = sum(_chain_count(self.vertex_count - len(e) + 1)
                     for e in edges)
        if chains > _MAX_FACES:
            raise ValueError(f"coloring complex too large: more than "
                             f"{_MAX_FACES} chain faces summed over the edges")


def improper_vertex_set(graph: Hypergraph, edge: frozenset) -> set[Vertex]:
    """All 0/1 vectors constant on the edge, except all-zero/all-one."""
    edge = frozenset(edge)
    if edge not in graph.edges:
        raise ValueError("not an edge of the hypergraph")
    others = [v for v in range(1, graph.vertex_count + 1) if v not in edge]
    vectors = set()
    for constant in (0, 1):
        for rest in itertools.product((0, 1), repeat=len(others)):
            x = [constant] * graph.vertex_count
            for v, bit in zip(others, rest):
                x[v - 1] = bit
            if any(x) and not all(x):
                vectors.add(tuple(x))
    return vectors


def edge_chain_faces(graph: Hypergraph, edge: frozenset) -> set[Face]:
    """All chains (under componentwise order) inside the improper vertex
    set of one edge."""
    vectors = sorted(improper_vertex_set(graph, edge))
    above = {
        x: [y for y in vectors
            if y != x and all(a <= b for a, b in zip(x, y))]
        for x in vectors
    }
    faces: set[Face] = set()

    def grow(chain: tuple[Vertex, ...]) -> None:
        faces.add(frozenset(chain))
        for y in above[chain[-1]]:
            grow(chain + (y,))

    for x in vectors:
        grow((x,))
    return faces


def coloring_complex_faces(graph: Hypergraph) -> frozenset[Face]:
    """Every face of the coloring complex: the union over the edges of
    their chain faces."""
    faces: set[Face] = set()
    for edge in graph.edges:
        faces |= edge_chain_faces(graph, edge)
    return frozenset(faces)


def coloring_complex_fvector(graph: Hypergraph) -> tuple[int, ...]:
    """Face counts by dimension; empty tuple for the empty complex."""
    faces = coloring_complex_faces(graph)
    counts = [0] * max((len(face) for face in faces), default=0)
    for face in faces:
        counts[len(face) - 1] += 1
    return tuple(counts)


def coloring_complex_hstar(graph: Hypergraph,
                           ) -> tuple[FStarVector, HStarVector]:
    """(f*, h*) of the coloring complex.  Every face is unimodular, so
    the f*-vector equals the f-vector; h* is its basis conversion at the
    complex dimension."""
    f = coloring_complex_fvector(graph)
    if not f:
        return (FStarVector((Fraction(0),), 0),
                HStarVector((Fraction(0),), 0))
    d = len(f) - 1
    fstar = FStarVector(tuple(Fraction(c) for c in f), d)
    hstar = hstar_from_poly(poly_from_fstar(fstar), d)
    return fstar, hstar


def realize_coloring_complex(graph: Hypergraph) -> OpenComplex:
    """Geometric realization: each chain face as the open simplex on its
    0/1 vectors, suitable for direct lattice counting."""
    from .simplices import OpenComplex, Simplex
    faces = coloring_complex_faces(graph)
    cells = [Simplex(tuple(sorted(face)), is_open=True)
             for face in sorted(faces, key=lambda fc: (len(fc), sorted(fc)))]
    return OpenComplex(tuple(cells))
