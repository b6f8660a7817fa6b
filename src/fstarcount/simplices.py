"""Simplices, open complexes and their lattice-point counting functions.

A Simplex is given by its vertices (exact rational coordinates) and an
openness flag; the open simplex is the relative interior of its closure.
count_points is the brute-force oracle: it scans the bounding box of the
dilated simplex and tests membership by an exact barycentric solve.
The f*-vector of an open integral simplex is read off the levels of the
atomic points of the homogenized cone, the h*-vector of a closed
integral simplex off the heights of its fundamental-parallelepiped
points; both agree with interpolation of the counting function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .bases import FStarVector, HStarVector, _forward_differences, fstar_pad
from .cones import ConeBasis, enumerate_atomic, parallelepiped_points, \
    scan_constrained
from .exact import IntVector, RatVector, Scalar, SolveTemplate


@dataclass(frozen=True)
class Simplex:
    """d+1 affinely independent vertices in ambient dimension n >= d."""

    vertices: tuple[RatVector, ...]
    is_open: bool = False

    def __post_init__(self):
        verts = tuple(tuple(Fraction(x) for x in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        n = len(verts[0])
        if any(len(v) != n for v in verts):
            raise ValueError("vertices must share one ambient dimension")
        if len(verts) > n + 1:
            raise ValueError("too many vertices for the ambient dimension")
        try:
            self._barycentric
        except ValueError:
            raise ValueError("vertices must be affinely independent") from None

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def as_open(self) -> "Simplex":
        return self if self.is_open else Simplex(self.vertices, True)

    def as_closed(self) -> "Simplex":
        return self if not self.is_open else Simplex(self.vertices, False)

    @cached_property
    def _barycentric(self) -> SolveTemplate:
        # Columns are the homogenized vertices (v_j, 1); full column rank
        # exactly when the vertices are affinely independent.
        rows = [[v[r] for v in self.vertices] for r in range(self.ambient_dim)]
        rows.append([Fraction(1)] * len(self.vertices))
        return SolveTemplate(rows)


def homogenize(simplex: Simplex, height: int) -> ConeBasis:
    """Cone generators (height*v, height) over the vertices, in vertex
    order.  height must clear every coordinate denominator."""
    if height < 1:
        raise ValueError("height must be positive")
    generators = []
    for v in simplex.vertices:
        scaled = [x * height for x in v]
        if any(x.denominator != 1 for x in scaled):
            raise ValueError("height does not clear denominators")
        generators.append([int(x) for x in scaled] + [height])
    return ConeBasis(generators)


def _dilate_points(simplex: Simplex, dilate: int) -> Iterator[IntVector]:
    """Lattice points of dilate * simplex, in lexicographic order."""
    if dilate < 1:
        raise ValueError("dilate must be positive")
    template = simplex._barycentric
    n = simplex.ambient_dim
    denom = template.denom
    bounds = []
    for c in range(n):
        coords = [v[c] for v in simplex.vertices]
        bounds.append((math.ceil(dilate * min(coords)),
                       math.floor(dilate * max(coords))))
    lower = 1 if simplex.is_open else 0
    constraints = []
    for row in template.rows:
        base = dilate * row[n]
        constraints.append((row[:n], lower - base, dilate * denom - base))
    for row in template.residual_rows:
        base = dilate * row[n]
        constraints.append((row[:n], -base, -base))
    for z, _ in scan_constrained(bounds, constraints):
        yield z


def count_points(simplex: Simplex, dilate: int) -> int:
    """|Z^n intersect dilate*simplex|, strict barycentric inequalities
    when the simplex is open."""
    return sum(1 for _ in _dilate_points(simplex, dilate))


def lattice_points(simplex: Simplex, dilate: int) -> tuple[IntVector, ...]:
    return tuple(_dilate_points(simplex, dilate))


def fstar_simplex(simplex: Simplex,
                  ambient_degree: int | None = None) -> FStarVector:
    """f*-vector of an open integral simplex: entry i is the number of
    atomic points at level i+1 in the homogenized cone."""
    if not simplex.is_open:
        raise ValueError("simplex must be open")
    if not simplex.is_integral():
        raise ValueError("vertices must be integral")
    d = simplex.dim
    target = d if ambient_degree is None else ambient_degree
    if target < d:
        raise ValueError("ambient degree too small")
    counts = [0] * (d + 1)
    for atom in enumerate_atomic(homogenize(simplex, 1)):
        counts[atom.level - 1] += 1
    entries = tuple(Fraction(c) for c in counts)
    return fstar_pad(FStarVector(entries, d), target)


def fstar_interpolate(simplex: Simplex,
                      ambient_degree: int | None = None) -> FStarVector:
    """Independent route to the f*-vector: brute-force counts at the
    first ambient_degree+1 dilates, then their forward differences."""
    if not simplex.is_integral():
        raise ValueError("vertices must be integral")
    target = simplex.dim if ambient_degree is None else ambient_degree
    if target < simplex.dim:
        raise ValueError("ambient degree too small")
    counts = [count_points(simplex, k) for k in range(1, target + 2)]
    return FStarVector(_forward_differences(counts), target)


def hstar_simplex(simplex: Simplex) -> HStarVector:
    """h*-vector of a closed integral simplex: entry i is the number of
    fundamental-parallelepiped lattice points at height i."""
    if simplex.is_open:
        raise ValueError("simplex must be closed")
    if not simplex.is_integral():
        raise ValueError("vertices must be integral")
    d = simplex.dim
    counts = [0] * (d + 1)
    for point in parallelepiped_points(homogenize(simplex, 1)):
        counts[point[-1]] += 1
    return HStarVector(tuple(Fraction(c) for c in counts), d)


def is_unimodular(simplex: Simplex) -> bool:
    """True when the normalized volume is 1, i.e. the open simplex
    carries a single atomic point.  The volume is the product of the
    Hermite diagonal of the homogenized cone, and the solve template's
    denominator is 1 exactly when that product is."""
    if not simplex.is_integral():
        raise ValueError("vertices must be integral")
    return homogenize(simplex, 1).solver.denom == 1


@dataclass(frozen=True)
class OpenComplex:
    """A disjoint union of open simplices.  Pairwise disjointness is the
    producer's responsibility; verify_disjoint spot-checks it."""

    cells: tuple[Simplex, ...]

    def __post_init__(self):
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        if any(not cell.is_open for cell in cells):
            raise ValueError("all cells must be open")
        if len({cell.ambient_dim for cell in cells}) > 1:
            raise ValueError("cells must share one ambient dimension")

    @property
    def dim(self) -> int:
        return max((cell.dim for cell in self.cells), default=0)


def count_points_complex(complex_: OpenComplex, dilate: int) -> int:
    return sum(count_points(cell, dilate) for cell in complex_.cells)


def verify_disjoint(complex_: OpenComplex,
                    dilates: Sequence[int] = (1, 2)) -> bool:
    """Debug check: per-cell counts must add up to the count of the
    union at every sampled dilate."""
    for k in dilates:
        per_cell = [lattice_points(cell, k) for cell in complex_.cells]
        union = set().union(*per_cell) if per_cell else set()
        if sum(len(pts) for pts in per_cell) != len(union):
            return False
    return True


def fstar_complex(complex_: OpenComplex,
                  ambient_degree: int | None = None) -> FStarVector:
    """Sum of the cells' padded f*-vectors."""
    target = complex_.dim if ambient_degree is None else ambient_degree
    if target < complex_.dim:
        raise ValueError("ambient degree too small for the complex")
    total = [Fraction(0)] * (target + 1)
    for cell in complex_.cells:
        for i, c in enumerate(fstar_simplex(cell, target).entries):
            total[i] += c
    return FStarVector(tuple(total), target)


# Most faces, summed over the facets and the removed facets, that
# open_faces enumerates before it builds a Simplex for each kept one.
# On a 13-vertex facet in 12 dimensions (8,191 faces) open_faces takes
# about 5 s and 90 MB, and each further vertex doubles both.
_MAX_FACES = 10**4


def _face_keys(facets: Iterable[Sequence]) -> set[tuple]:
    faces: set[tuple] = set()
    for ids in facets:
        for size in range(1, len(ids) + 1):
            faces.update(itertools.combinations(ids, size))
    return faces


def open_faces(facets: Iterable[Iterable],
               coords: Mapping[object, Sequence[Scalar]],
               remove: Iterable[Iterable] = ()) -> OpenComplex:
    """All open faces of the simplicial complex generated by the facets,
    each face once; faces of the removed subcomplex are excluded."""
    facets = [sorted(set(facet)) for facet in facets]
    remove = [sorted(set(facet)) for facet in remove]
    ambient = max((len(v) for v in coords.values()), default=0)
    for i, ids in enumerate(facets):
        if len(ids) > ambient + 1:
            raise ValueError(f"facets[{i}]: too many vertices for the "
                             f"ambient dimension")
    if sum(2 ** len(ids) - 1 for ids in facets + remove) > _MAX_FACES:
        raise ValueError(f"complex too large: more than {_MAX_FACES} faces "
                         f"summed over the facets and removed facets")
    kept = _face_keys(facets) - _face_keys(remove)
    cells = [Simplex(tuple(tuple(coords[i]) for i in face), is_open=True)
             for face in sorted(kept, key=lambda f: (len(f), f))]
    return OpenComplex(tuple(cells))


def realize_fstar_complex(target: Sequence[int]) -> OpenComplex:
    """A disjoint union of open unimodular simplices, target[i] of them
    in dimension i, whose f*-vector is exactly the target vector."""
    entries = [int(x) for x in target]
    if any(x < 0 for x in entries):
        raise ValueError("target entries must be non-negative")
    ambient = len(entries) + 1
    cells = []
    offset = 0
    for i, count in enumerate(entries):
        for _ in range(count):
            verts = []
            for j in range(i + 1):
                v = [0] * ambient
                v[j] = 1
                v[-1] = offset  # separating coordinate keeps cells disjoint
                verts.append(v)
            cells.append(Simplex(tuple(tuple(x) for x in verts), is_open=True))
            offset += 1
    return OpenComplex(tuple(cells))
