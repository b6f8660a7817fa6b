"""Counting functions of rational open simplices.

Dilates of a rational simplex are counted by a quasipolynomial: one
polynomial per residue class of the dilate modulo a period m.  With the
anchoring used here, residue class l in {0..m-1} describes the heights
h = (k-1)m + l + 1 for k >= 1, and its f*-vector entry i equals the
number of atomic points of the cone over the simplex embedded at height
m whose level is i+1 and whose last coordinate is i*m + l + 1.

The alternative route embeds each vertex at its own minimal integral
height m_i; the counting function then expands over restricted
partition functions of the height multiset, weighted by the atomic
points' (level, height) profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .bases import FStarVector, eval_fstar
from .cones import ConeBasis, enumerate_atomic
from .simplices import Simplex, homogenize

# restricted_partition keeps target + 1 counts; larger targets are refused
# before that list is allocated.
_MAX_PARTITION_TARGET = 10 ** 6


def restricted_partition(weights: Sequence[int], target: int) -> int:
    """Number of ways to write target as a non-negative integer
    combination of the weights (order of summands irrelevant).
    0 for negative targets; 1 for target 0; a ValueError above
    10**6."""
    if any(int(w) < 1 for w in weights):
        raise ValueError("weights must be positive integers")
    if target < 0:
        return 0
    if target > _MAX_PARTITION_TARGET:
        raise ValueError(f"partition target must be at most "
                         f"{_MAX_PARTITION_TARGET}")
    ways = [0] * (target + 1)
    ways[0] = 1
    for w in weights:
        for value in range(w, target + 1):
            ways[value] += ways[value - w]
    return ways[target]


@dataclass(frozen=True)
class EhrhartQuasiPolynomial:
    """Period m plus one f*-vector per residue class; the vector at
    index l covers the heights congruent to l+1 mod m."""

    period: int
    ambient_degree: int
    residue_fstar: tuple[FStarVector, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        if self.ambient_degree < 0:
            raise ValueError("ambient degree must be non-negative")
        if len(self.residue_fstar) != self.period:
            raise ValueError("one residue vector per residue class required")


def residue_fstar(simplex: Simplex, period: int) -> EhrhartQuasiPolynomial:
    """Quasipolynomial of an open rational simplex for a period that
    makes period*simplex integral.

    Atomic points of the height-`period` cone at level i+1 have last
    coordinate i*period + l + 1 for a unique residue l; bucketing them
    by (l, i) gives the residue f*-vectors.
    """
    if not simplex.is_open:
        raise ValueError("simplex must be open")
    if period < 1:
        raise ValueError("period must be positive")
    basis = homogenize(simplex, period)  # raises if the period is no good
    d = simplex.dim
    buckets = [[Fraction(0)] * (d + 1) for _ in range(period)]
    for atom in enumerate_atomic(basis):
        i = atom.level - 1
        residue = atom.height - i * period - 1
        if not 0 <= residue < period:
            raise AssertionError("atomic height outside its level's residues")
        buckets[residue][i] += 1
    return EhrhartQuasiPolynomial(
        period, d,
        tuple(FStarVector(tuple(b), d) for b in buckets))


def quasi_eval(qp: EhrhartQuasiPolynomial, height: int) -> int:
    """Value at a dilate h >= 1, via h = (k-1)m + l + 1."""
    if height < 1:
        raise ValueError("height must be positive")
    m = qp.period
    residue = (height - 1) % m
    k = (height - 1) // m + 1
    value = eval_fstar(qp.residue_fstar[residue], k)
    if value.denominator != 1:
        raise AssertionError("quasipolynomial value must be an integer")
    return int(value)


def mixed_profile(simplex: Simplex) -> tuple[dict[tuple[int, int], int],
                                             tuple[int, ...]]:
    """Embed vertex j at its minimal integral height m_j (lcm of its
    coordinate denominators) and count the atomic points of the
    resulting cone by (level-1, last coordinate).  Returns those counts
    and the heights in vertex order.

    Heights can exceed the sum of the generator heights (witness: the
    open segment (0, 2/3) has an atomic point at height 5 while the
    generator heights sum to 4); they never exceed generators * max
    height, the ceiling the fundamental simplex does guarantee, so a
    higher one is a broken invariant (AssertionError)."""
    if not simplex.is_open:
        raise ValueError("simplex must be open")
    heights = tuple(lcm(*(x.denominator for x in v), 1)
                    for v in simplex.vertices)
    generators = [tuple(int(x * m) for x in v) + (m,)
                  for v, m in zip(simplex.vertices, heights)]
    bound = len(generators) * max(heights)
    counts: dict[tuple[int, int], int] = {}
    for atom in enumerate_atomic(ConeBasis(generators)):
        if atom.height > bound:
            raise AssertionError("atomic height above generators * max "
                                 "height")
        key = (atom.level - 1, atom.height)
        counts[key] = counts.get(key, 0) + 1
    return counts, heights


def _profile_count(counts: Mapping[tuple[int, int], int],
                   heights: Sequence[int], dilate: int) -> int:
    """The count of dilate*simplex from its mixed_profile (counts,
    heights)."""
    if dilate < 1:
        raise ValueError("dilate must be positive")
    return sum(c * restricted_partition(heights[:i + 1], dilate - s)
               for (i, s), c in counts.items())


def count_via_profile(simplex: Simplex, dilate: int) -> int:
    """Count lattice points of dilate*simplex from the mixed-height
    profile: each atomic point at level i+1 and height s contributes the
    restricted partition count of dilate - s over the first i+1 vertex
    heights."""
    return _profile_count(*mixed_profile(simplex), dilate)
