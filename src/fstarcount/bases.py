"""Conversions between the monomial, f* and h* representations of a
counting polynomial of bounded degree.

For an ambient degree d, a polynomial p of degree at most d has unique
expansions

    p(k) = sum_i fstar_i * C(k-1, i)        (f* basis)
    p(k) = sum_i hstar_i * C(k+d-i, d)      (h* basis)

where C is the generalized binomial coefficient.  The f* coefficients do
not change when d grows (padding with zeros), the h* coefficients do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (Polynomial, RatVector, Scalar, binomial_poly,
                    gen_binomial, solve_exact)


@dataclass(frozen=True)
class FStarVector:
    entries: RatVector
    ambient_degree: int

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.ambient_degree + 1:
            raise ValueError("entry count must be ambient_degree + 1")

    def is_nonnegative_integral(self) -> bool:
        return all(e.denominator == 1 and e >= 0 for e in self.entries)


@dataclass(frozen=True)
class HStarVector:
    entries: RatVector
    ambient_degree: int

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.ambient_degree + 1:
            raise ValueError("entry count must be ambient_degree + 1")


def _coefficients_in_basis(p: Polynomial, basis: list[Polynomial],
                           d: int) -> RatVector:
    # Solve against basis evaluations at the sample points k = 1 .. d+1;
    # both bases are bases of the degree-<=d polynomials, so the system
    # is square and uniquely solvable.
    points = range(1, d + 2)
    matrix = [[b(k) for b in basis] for k in points]
    rhs = [p(k) for k in points]
    solution = solve_exact(matrix, rhs)
    if solution is None:
        raise AssertionError("basis change system must be consistent")
    return solution


def fstar_from_poly(p: Polynomial, d: int) -> FStarVector:
    """Expand p in the basis C(k-1, i), i = 0..d."""
    if d < p.degree:
        raise ValueError("ambient degree too small")
    basis = [binomial_poly(-1, i) for i in range(d + 1)]
    return FStarVector(_coefficients_in_basis(p, basis, d), d)


def poly_from_fstar(f: FStarVector) -> Polynomial:
    p = Polynomial()
    for i, c in enumerate(f.entries):
        p = p + binomial_poly(-1, i) * c
    return p


def hstar_from_poly(p: Polynomial, d: int) -> HStarVector:
    """Expand p in the basis C(k+d-i, d), i = 0..d."""
    if d < p.degree:
        raise ValueError("ambient degree too small")
    basis = [binomial_poly(d - i, d) for i in range(d + 1)]
    return HStarVector(_coefficients_in_basis(p, basis, d), d)


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
