"""Exact arithmetic substrate: rationals, vectors, exact linear solving,
generalized binomial coefficients and dense univariate polynomials.

Scalars are `fractions.Fraction` (arbitrary precision, always in lowest
terms with positive denominator), so every operation in this package is
exact; there is no floating point anywhere.

Vectors are plain tuples: `IntVector = tuple[int, ...]` and
`RatVector = tuple[Fraction, ...]`.  A matrix is a tuple of row vectors.

One integer echelon pass (`_echelon`, a Hermite normal form) gives a
`SolveTemplate` its rows and a cone the lattice basis of its span; the
Fraction elimination `_rref` serves only `solve_exact` and
`matrix_rank`, which no other module calls: they are the tests'
independent references for the integer solver and the basis changes.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import Iterable, Optional, Sequence, Union

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]

Scalar = Union[int, Fraction]


def gen_binomial(k: int, i: int) -> int:
    """Binomial coefficient k over i as the falling factorial
    k (k-1) ... (k-i+1) / i!, defined for every integer k and i >= 0.

    gen_binomial(k, 0) == 1 for all k, and e.g. gen_binomial(-1, 2) == 1.
    """
    if i < 0:
        raise ValueError("lower index must be non-negative")
    num = 1
    for j in range(i):
        num *= k - j
    return num // factorial(i)  # exact: the product is divisible by i!


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return sum(a * b for a, b in zip(u, v))


def _rref(rows: list[list[Fraction]]) -> list[int]:
    """Reduced row echelon form in place; returns the pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def matrix_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    return len(_rref(work))


def solve_exact(matrix: Sequence[Sequence[Scalar]],
                rhs: Sequence[Scalar]) -> Optional[RatVector]:
    """Solve `matrix @ x = rhs` exactly for a matrix with full column rank.

    Returns the unique solution, or None when rhs is outside the column
    span (possible only for more rows than columns).  Raises ValueError
    when the columns are linearly dependent.
    """
    if len(rhs) != len(matrix):
        raise ValueError("right-hand side length mismatch")
    n_cols = len(matrix[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(matrix, rhs)]
    pivots = _rref(aug)
    column_pivots = [p for p in pivots if p < n_cols]
    if len(column_pivots) < n_cols:
        raise ValueError("generators not linearly independent")
    if n_cols in pivots:
        return None
    solution = [Fraction(0)] * n_cols
    for r, c in enumerate(column_pivots):
        solution[c] = aug[r][-1]
    return tuple(solution)


def _echelon(matrix: Sequence[Sequence[Scalar]],
             ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(H, U, W) with U . A = [H; 0] for an n x d matrix A of full column
    rank: H is its Hermite normal form (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4), upper triangular with a positive
    diagonal and the entries above it reduced modulo that diagonal.

    Rational rows are scaled by the lcm of their denominators, a scale
    folded into U; W lists the columns of the inverse of U's unimodular
    part.  For integer A, W[:d] is a basis of span(A) meet Z^n and
    column j of H holds the coordinates of column j of A in it."""
    n, d = len(matrix), len(matrix[0])
    work = []  # the rows of [A | U]
    for i, row in enumerate(matrix):
        scale = lcm(*(x.denominator for x in row), 1)
        work.append([int(x * scale) for x in row]
                    + [scale if j == i else 0 for j in range(n)])
    inverse = [[int(i == j) for j in range(n)] for i in range(n)]

    def subtract(i: int, j: int, q: int) -> None:
        # Row i -= q * row j; the inverse gains q * column i on column j.
        if q:
            work[i] = [a - q * b for a, b in zip(work[i], work[j])]
            inverse[j] = [a + q * b for a, b in zip(inverse[j], inverse[i])]

    for c in range(d):
        for r in range(c + 1, n):
            while work[r][c]:  # Euclid on rows c and r
                subtract(c, r, work[c][c] // work[r][c])
                work[c], work[r] = work[r], work[c]
                inverse[c], inverse[r] = inverse[r], inverse[c]
        if c >= n or work[c][c] == 0:
            raise ValueError("generators not linearly independent")
        if work[c][c] < 0:
            work[c] = [-x for x in work[c]]
            inverse[c] = [-x for x in inverse[c]]
        for r in range(c):
            subtract(r, c, work[r][c] // work[c][c])
    return [row[:d] for row in work[:d]], [row[d:] for row in work], inverse


class SolveTemplate:
    """Precomputed exact solver for `matrix @ x = z` with a fixed matrix
    and many right-hand sides.

    One echelon pass yields an integer matrix `rows` and a positive
    integer `denom` with  x_i = (rows[i] . z) / denom,  valid exactly
    when every residual row annihilates z (for square full-rank matrices
    there are none, and `denom` is least).  Keeping the scaled integer
    form lets enumeration loops stay in pure integer arithmetic.
    """

    __slots__ = ("rows", "denom", "residual_rows", "_hermite", "_span")

    def __init__(self, matrix: Sequence[Sequence[Scalar]]):
        hermite, u, inverse = _echelon(matrix)
        d = len(hermite)
        # rows = det(H) H^-1 U[:d] by integer back-substitution; the
        # residual rows are U[d:].
        det = prod(hermite[i][i] for i in range(d))
        solved: list[list[int]] = [[]] * d
        for i in reversed(range(d)):
            acc = [det * x for x in u[i]]
            for j in range(i + 1, d):
                if hermite[i][j]:
                    acc = [a - hermite[i][j] * b
                           for a, b in zip(acc, solved[j])]
            solved[i] = [a // hermite[i][i] for a in acc]
        g = gcd(det, *(x for row in solved for x in row))
        self.denom = det // g
        self.rows = tuple(tuple(x // g for x in row) for row in solved)
        self.residual_rows = tuple(tuple(row) for row in u[d:])
        self._hermite = hermite
        self._span = tuple(tuple(col) for col in inverse[:d])

    def scaled_solution(self, z: Sequence[int]) -> Optional[list[int]]:
        """denom * x as integers, or None when z is off the column span."""
        for row in self.residual_rows:
            if dot(row, z) != 0:
                return None
        return [dot(row, z) for row in self.rows]


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    coefficients[i] is the coefficient of the i-th power; trailing zeros
    are trimmed, and the zero polynomial has degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, point: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * point + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coefficients])

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial([c * x for x in self.coefficients])
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        out = Polynomial((1,))
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial)
                and self.coefficients == other.coefficients)

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")


def binomial_poly(shift: int, i: int) -> Polynomial:
    """The binomial coefficient (k + shift) over i as a polynomial in k."""
    p = Polynomial((1,))
    for j in range(i):
        p = p * Polynomial((shift - j, 1))
    return p * Fraction(1, factorial(i))
