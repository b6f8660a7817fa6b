"""Simplicial cone machinery: fundamental simplices, levels, atomic
lattice points and the discrete-cone partition check.

A ConeBasis is an ordered list of d linearly independent integer
generators v_1, ..., v_d in ambient dimension n >= d.  Every point of
the real cone has a unique coefficient vector lambda with z = V lambda.
Writing lev(lambda) for the integer with lev-1 < sum(lambda) <= lev and
deg(lambda) for the smallest index j with lambda_j > 1 (d+1 if none),
a lattice point with all lambda_i > 0 is *atomic* exactly when
deg(lambda) >= lev(lambda).  The atomic points all lie in the half-open
fundamental simplex {V lambda : lambda > 0, sum(lambda) <= d}, and
translating the discrete cone of the first lev generators to each atomic
point partitions the lattice points of the open cone.

Enumeration works in scaled integer coordinates: with t = denom * lambda
(an integer vector computed by a precomputed exact solve template) every
membership test below is pure integer arithmetic.  One scan,
`_scan_scaled`, bounds t either to the half-open parallelepiped
(0 <= t_i < denom) or to the open cone up to a level L (t_i >= 1,
sum(t) <= L * denom); a cone of lower dimension runs it in a lattice
basis of its span, from the same echelon pass, and maps each point back.
Under it, `scan_constrained` steps each coordinate through the interval
its constraint rows leave feasible, so no value is tried and rejected.
An AtomicPoint keeps t itself (`scaled`) with denom, and its level is
one integer ceiling; the Fraction lambda is built only for output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .exact import IntVector, RatVector, Scalar, SolveTemplate, dot

Constraint = tuple[Sequence[int], int, int]


def scan_constrained(bounds: Sequence[tuple[int, int]],
                     constraints: Sequence[Constraint],
                     ) -> Iterator[tuple[IntVector, list[int]]]:
    """Enumerate integer points z of a box subject to linear constraints
    lo <= coeffs . z <= hi.

    Depth-first over coordinates.  At each node the coordinate's feasible
    interval is computed from the constraint rows, the partial sums so
    far and the extremes the later coordinates can still add (one ceiling
    or floor division per non-zero entry), and the scan steps through
    that interval, adding the column to the partial sums.  A zero entry
    needs no test below the root: the parent's interval already kept its
    row satisfiable, and the root tests every row once.  Yields
    (z, values) in lexicographic order; `values` (aligned with the
    constraints) is a reused buffer -- copy it before storing.
    """
    n = len(bounds)
    if any(lo > hi for lo, hi in bounds):
        return
    rows = [tuple(row) for row, _, _ in constraints]
    lowers = [lo for _, lo, _ in constraints]
    uppers = [hi for _, _, hi in constraints]
    m = len(rows)
    # Suffix extremes of the possible contribution of coordinates j..n-1.
    suf_min = [[0] * m for _ in range(n + 1)]
    suf_max = [[0] * m for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        lo, hi = bounds[j]
        for r in range(m):
            a, b = rows[r][j] * lo, rows[r][j] * hi
            if a > b:
                a, b = b, a
            suf_min[j][r] = suf_min[j + 1][r] + a
            suf_max[j][r] = suf_max[j + 1][r] + b
    if any(suf_max[0][r] < lowers[r] or suf_min[0][r] > uppers[r]
           for r in range(m)):
        return
    # (row, entry) for the non-zero entries of each column.
    columns = [[(r, rows[r][j]) for r in range(m) if rows[r][j]]
               for j in range(n)]
    point = [0] * n
    stack = [[0] * m for _ in range(n + 1)]

    def descend(j: int) -> Iterator[tuple[IntVector, list[int]]]:
        current = stack[j]
        if j == n:
            yield tuple(point), current
            return
        lo, hi = bounds[j]
        smin, smax = suf_min[j + 1], suf_max[j + 1]
        column = columns[j]
        # lowers - rest_max <= current + a * v <= uppers - rest_min
        for r, a in column:
            low = lowers[r] - current[r] - smax[r]
            high = uppers[r] - current[r] - smin[r]
            if a < 0:
                low, high, a = -high, -low, -a
            v = -(-low // a)
            if v > lo:
                lo = v
            v = high // a
            if v < hi:
                hi = v
        if lo > hi:
            return
        nxt = stack[j + 1]
        nxt[:] = current
        for r, a in column:
            nxt[r] += a * lo
        for v in range(lo, hi + 1):
            point[j] = v
            yield from descend(j + 1)
            for r, a in column:
                nxt[r] += a

    yield from descend(0)


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients of a point of the open cone, with its level and the
    smallest 1-based index whose coefficient exceeds 1 (d+1 if none)."""

    lambdas: RatVector
    level: int
    degree: int

    def __post_init__(self):
        expected = CoefficientVector._derive(self.lambdas)
        if (self.level, self.degree) != expected:
            raise ValueError("level/degree inconsistent with coefficients")

    @staticmethod
    def _derive(lambdas: RatVector) -> tuple[int, int]:
        if any(x <= 0 for x in lambdas):
            raise ValueError("coefficients must be positive")
        total = sum(lambdas)
        level = -((-total.numerator) // total.denominator)  # ceil
        degree = next((j + 1 for j, x in enumerate(lambdas) if x > 1),
                      len(lambdas) + 1)
        return level, degree

    @classmethod
    def from_lambdas(cls, lambdas: Iterable[Scalar]) -> "CoefficientVector":
        lambdas = tuple(Fraction(x) for x in lambdas)
        return cls(lambdas, *cls._derive(lambdas))


def is_atomic(c: CoefficientVector) -> bool:
    """No coefficient before the level index exceeds 1."""
    return c.degree >= c.level


@dataclass(frozen=True)
class AtomicPoint:
    """An atomic lattice point with its coefficients in integers:
    scaled = denom * lambda, with denom the cone's solve denominator."""

    point: IntVector
    scaled: IntVector
    denom: int

    @property
    def level(self) -> int:
        return -(-sum(self.scaled) // self.denom)  # ceil(sum(lambda))

    @property
    def height(self) -> int:
        return self.point[-1]


class ConeBasis:
    """Ordered, linearly independent integer generators of a simplicial
    cone.  The generator order is significant and preserved."""

    def __init__(self, generators: Iterable[Sequence[int]]):
        gens = tuple(tuple(int(x) for x in g) for g in generators)
        if not gens:
            raise ValueError("at least one generator required")
        n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise ValueError("generators must share one ambient dimension")
        if len(gens) > n:
            raise ValueError("generators not linearly independent")
        self.generators = gens
        self.ambient_dim = n
        self.dim = len(gens)
        # Raises "generators not linearly independent" on a rank defect.
        self.solver = SolveTemplate(
            [[gens[i][r] for i in range(self.dim)] for r in range(n)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConeBasis) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"ConeBasis({list(map(list, self.generators))!r})"

    @cached_property
    def _reduced(self) -> Optional[tuple["ConeBasis", tuple[IntVector, ...]]]:
        """For fewer generators than ambient dimensions: the same cone
        expressed over a lattice basis of span intersect Z^n, so that
        enumerations can run in the (small) span coordinates.  None when
        the cone is already full-dimensional.  Both come from the
        solver's echelon pass (see exact._echelon)."""
        if self.ambient_dim == self.dim:
            return None
        return ConeBasis(zip(*self.solver._hermite)), self.solver._span


def coefficients_of(basis: ConeBasis,
                    point: Sequence[int]) -> Optional[CoefficientVector]:
    """Exact coefficients of a lattice point, or None when the point is
    not in the open cone (off the span or some coefficient <= 0)."""
    if len(point) != basis.ambient_dim:
        raise ValueError("point dimension mismatch")
    scaled = basis.solver.scaled_solution([int(x) for x in point])
    if scaled is None or any(t <= 0 for t in scaled):
        return None
    denom = basis.solver.denom
    return CoefficientVector.from_lambdas(
        Fraction(t, denom) for t in scaled)


def _scan_scaled(basis: ConeBasis, max_level: Optional[int] = None,
                 ) -> Iterator[tuple[IntVector, list[int]]]:
    """(point, values) for the lattice points of the half-open
    parallelepiped (max_level None) or of the open cone up to max_level,
    with values[:d] = basis.solver.denom * lambda in a reused buffer."""
    reduced = basis._reduced
    if reduced is not None:
        # Scan the span coordinates y and map back: z = sum_j y_j span_j.
        inner_basis, span = reduced
        span_rows = list(zip(*span))
        return ((tuple(dot(y, row) for row in span_rows), values)
                for y, values in _scan_scaled(inner_basis, max_level))
    # Full-dimensional: no residual rows, one constraint per t_i.
    denom = basis.solver.denom
    columns = list(zip(*basis.generators))
    if max_level is None:
        # Bounding box of the parallelepiped: each coordinate lies
        # between the sums of its negative and of its positive entries.
        bounds = [(sum(x for x in col if x < 0), sum(x for x in col if x > 0))
                  for col in columns]
        constraints = [(row, 0, denom - 1) for row in basis.solver.rows]
    else:
        # Bounding box of conv(0, L v_1, ..., L v_d); the sum row keeps
        # the level at most L.
        top = max_level * denom
        bounds = [(min(0, max_level * min(col)), max(0, max_level * max(col)))
                  for col in columns]
        constraints = [(row, 1, top) for row in basis.solver.rows]
        sum_row = tuple(map(sum, zip(*basis.solver.rows)))
        constraints.append((sum_row, basis.dim, top))
    return scan_constrained(bounds, constraints)


def _parallelepiped_scaled(basis: ConeBasis,
                           ) -> tuple[list[tuple[IntVector, list[int]]], int]:
    """Lattice points of {V lambda : 0 <= lambda_i < 1} with their scaled
    coefficient vectors, sorted by point, plus the scaling denominator."""
    d = basis.dim
    items = [(z, values[:d]) for z, values in _scan_scaled(basis)]
    items.sort(key=lambda item: item[0])
    return items, basis.solver.denom


def parallelepiped_points(basis: ConeBasis) -> tuple[IntVector, ...]:
    """All lattice points V lambda with 0 <= lambda_i < 1, sorted."""
    return tuple(z for z, _ in _parallelepiped_scaled(basis)[0])


def _bounded_exponents(slots: int, total: int) -> Iterator[tuple[int, ...]]:
    # All non-negative integer vectors with component sum <= total.
    if slots == 0:
        yield ()
        return
    for v in range(total + 1):
        for rest in _bounded_exponents(slots - 1, total - v):
            yield (v,) + rest


def _scaled_atomic(basis: ConeBasis,
                   ) -> tuple[list[tuple[IntVector, IntVector]], int]:
    """Atomic points as (point, scaled coefficients) sorted by point,
    plus the scaling denominator.

    Every lattice point of the closed fundamental simplex decomposes
    uniquely as a parallelepiped lattice point plus a non-negative
    integer combination of the generators, so the candidates are walked
    without scanning the full bounding box.
    """
    d = basis.dim
    gens = basis.generators
    base_points, denom = _parallelepiped_scaled(basis)
    found = []
    for base_point, base_coeffs in base_points:
        budget = (d * denom - sum(base_coeffs)) // denom
        for exponents in _bounded_exponents(d, budget):
            t = [base_coeffs[i] + exponents[i] * denom for i in range(d)]
            if 0 in t:
                continue
            total = sum(t)
            level = -((-total) // denom)  # ceil(total / denom)
            if any(t[j] > denom for j in range(level - 1)):
                continue  # not atomic
            z = tuple(base_point[c]
                      + sum(exponents[i] * gens[i][c] for i in range(d))
                      for c in range(basis.ambient_dim))
            found.append((z, tuple(t)))
    found.sort(key=lambda item: item[0])
    return found, denom


def enumerate_atomic(basis: ConeBasis) -> tuple[AtomicPoint, ...]:
    """All atomic lattice points of the cone, sorted by point.

    These are the points of the half-open fundamental simplex whose
    coefficient vector satisfies the atomicity characterization; there
    are finitely many, all at level <= d.
    """
    found, denom = _scaled_atomic(basis)
    return tuple(AtomicPoint(z, t, denom) for z, t in found)


def atomic_inductive_oracle(basis: ConeBasis) -> tuple[AtomicPoint, ...]:
    """Atomic points computed literally from the inductive definition:
    level-1 points of the half-open fundamental simplex are kept, and
    each higher level keeps the points not reachable from a kept
    lower-level point by adding generators up to that point's level.

    Test oracle for enumerate_atomic; scans the open cone up to level d.
    """
    d = basis.dim
    denom = basis.solver.denom
    by_level: dict[int, list[tuple[IntVector, IntVector]]] = {}
    for z, vals in _scan_scaled(basis, d):
        t = tuple(vals[:d])
        total = sum(t)
        level = -((-total) // denom)
        by_level.setdefault(level, []).append((z, t))
    kept: list[tuple[IntVector, IntVector, int]] = []
    for level in range(1, d + 1):
        new = []
        for z, t in by_level.get(level, ()):
            for _, t_low, level_low in kept:
                diff = [a - b for a, b in zip(t, t_low)]
                if (all(x == 0 for x in diff[level_low:])
                        and all(x >= 0 and x % denom == 0
                                for x in diff[:level_low])):
                    break  # reachable from a kept lower-level point
            else:
                new.append((z, t, level))
        kept.extend(new)
    kept.sort(key=lambda item: item[0])
    return tuple(AtomicPoint(z, t, denom) for z, t, _ in kept)


@dataclass(frozen=True)
class PartitionReport:
    """Result of checking that the atomic discrete cones cover every
    open-cone lattice point up to a level exactly once."""

    passed: bool
    max_level: int
    points_checked: int
    atomic_count: int
    violations: tuple[tuple[IntVector, int], ...] = field(default=())


def verify_partition(basis: ConeBasis, max_level: int) -> PartitionReport:
    """Check, for every lattice point z of the open cone with level at
    most max_level, that exactly one atomic point a has
    z in a + discrete cone of the first lev(a) generators."""
    if max_level < 1:
        raise ValueError("max level must be positive")
    atomics, denom = _scaled_atomic(basis)
    # Group by the componentwise remainder mod denom: translation by an
    # integer generator combination never changes it.
    groups: dict[tuple[int, ...], list[tuple[IntVector, int]]] = {}
    for _, t in atomics:
        total = sum(t)
        level = -((-total) // denom)
        key = tuple(x % denom for x in t)
        groups.setdefault(key, []).append((t, level))
    checked = 0
    violations = []
    d = basis.dim
    for z, vals in _scan_scaled(basis, max_level):
        checked += 1
        covers = 0
        key = tuple(vals[j] % denom for j in range(d))
        for t_a, level_a in groups.get(key, ()):
            diff_ok = all(vals[j] == t_a[j] for j in range(level_a, d))
            if diff_ok and all(vals[j] >= t_a[j] for j in range(level_a)):
                covers += 1
        if covers != 1:
            violations.append((z, covers))
    return PartitionReport(passed=not violations, max_level=max_level,
                           points_checked=checked, atomic_count=len(atomics),
                           violations=tuple(violations))
