"""Conversions between the monomial, f* and h* representations of a
counting polynomial of bounded degree.

For an ambient degree d, a polynomial p of degree at most d has unique
expansions

    p(k) = sum_i fstar_i * C(k-1, i)        (f* basis)
    p(k) = sum_i hstar_i * C(k+d-i, d)      (h* basis)

where C is the generalized binomial coefficient.  The f* coefficients do
not change when d grows (padding with zeros), the h* coefficients do.

Both expansions are read off values of p, with no linear solve:

    fstar_i = (Delta^i p)(1)                  (Newton's forward differences,
                                               Delta p(k) = p(k+1) - p(k))
    hstar_i = sum_{j<=i} (-1)^j C(d+1, j) p(i-j)

The h* formula holds because sum_{k>=0} C(k+d-i, d) z^k = z^i / (1-z)^(d+1),
so sum_i hstar_i z^i is the series (1-z)^(d+1) sum_{k>=0} p(k) z^k, a
polynomial of degree at most d; its first d+1 coefficients are the sums
above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .exact import Polynomial, RatVector, Scalar, binomial_poly, gen_binomial


def _check_shape(entries: RatVector, ambient_degree: int) -> None:
    if ambient_degree < 0:
        raise ValueError("ambient degree must be non-negative")
    if len(entries) != ambient_degree + 1:
        raise ValueError("entry count must be ambient_degree + 1")


@dataclass(frozen=True)
class FStarVector:
    entries: RatVector
    ambient_degree: int

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        _check_shape(entries, self.ambient_degree)

    def is_nonnegative_integral(self) -> bool:
        return all(e.denominator == 1 and e >= 0 for e in self.entries)


@dataclass(frozen=True)
class HStarVector:
    entries: RatVector
    ambient_degree: int

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        _check_shape(entries, self.ambient_degree)


def _forward_differences(values: Sequence[Scalar]) -> list[Scalar]:
    """(Delta^i p)(1) for i = 0..d from the values p(1), ..., p(d+1): the
    coefficients of p in the basis C(k-1, i)."""
    row, out = list(values), []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def fstar_from_poly(p: Polynomial, d: int) -> FStarVector:
    """Expand p in the basis C(k-1, i), i = 0..d."""
    if d < p.degree:
        raise ValueError("ambient degree too small")
    values = [p(k) for k in range(1, d + 2)]
    return FStarVector(_forward_differences(values), d)


def poly_from_fstar(f: FStarVector) -> Polynomial:
    p = Polynomial()
    for i, c in enumerate(f.entries):
        p = p + binomial_poly(-1, i) * c
    return p


def hstar_from_poly(p: Polynomial, d: int) -> HStarVector:
    """Expand p in the basis C(k+d-i, d), i = 0..d."""
    if d < p.degree:
        raise ValueError("ambient degree too small")
    values = [p(k) for k in range(d + 1)]
    return HStarVector([sum((-1) ** j * comb(d + 1, j) * values[i - j]
                            for j in range(i + 1))
                        for i in range(d + 1)], d)


def poly_from_hstar(h: HStarVector) -> Polynomial:
    d = h.ambient_degree
    p = Polynomial()
    for i, c in enumerate(h.entries):
        p = p + binomial_poly(d - i, d) * c
    return p


def fstar_pad(f: FStarVector, d: int) -> FStarVector:
    """Extend by zeros to ambient degree d; the polynomial is unchanged."""
    if d < f.ambient_degree:
        raise ValueError("ambient degree too small")
    pad = (Fraction(0),) * (d - f.ambient_degree)
    return FStarVector(f.entries + pad, d)


def hstar_fstar_identity_check(f: FStarVector, d: int | None = None) -> bool:
    """Check the polynomial identity tying the two coefficient vectors:

        sum_i hstar_i z^i
            = p(0) (1-z)^(d+1) + sum_j fstar_j z^(j+1) (1-z)^(d-j)

    where p is the polynomial of f, h* its h*-vector for degree d, and
    p(0) = sum_j fstar_j (-1)^j.
    """
    if d is None:
        d = f.ambient_degree
    if d < f.ambient_degree:
        raise ValueError("ambient degree too small")
    p = poly_from_fstar(f)
    h = hstar_from_poly(p, d)
    one_minus_z = Polynomial((1, -1))
    p0 = sum(c * (-1) ** j for j, c in enumerate(f.entries))
    rhs = one_minus_z ** (d + 1) * p0
    for j, c in enumerate(f.entries):
        term = Polynomial((0,) * (j + 1) + (1,)) * one_minus_z ** (d - j)
        rhs = rhs + term * c
    return Polynomial(h.entries) == rhs


def eval_fstar(f: FStarVector, k: Scalar) -> Fraction:
    """Value of the expanded polynomial at an integer dilate k."""
    if isinstance(k, int):
        return Fraction(sum(c * gen_binomial(k - 1, i)
                            for i, c in enumerate(f.entries)))
    return poly_from_fstar(f)(k)
