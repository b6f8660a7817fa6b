import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from fstarcount.cones import ConeBasis
from fstarcount.exact import (Polynomial, SolveTemplate, binomial_poly,
                              gen_binomial, matrix_rank, solve_exact)


class TestGenBinomial:
    def test_ordinary(self):
        assert gen_binomial(4, 2) == 6

    def test_negative_upper(self):
        assert gen_binomial(-1, 2) == 1

    def test_zero_lower(self):
        for k in (-3, 0, 7):
            assert gen_binomial(k, 0) == 1

    def test_factor_hits_zero(self):
        assert gen_binomial(1, 3) == 0

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            gen_binomial(3, -1)

    def test_pascal_rule(self):
        for k in range(-10, 11):
            for i in range(1, 9):
                assert (gen_binomial(k, i) - gen_binomial(k - 1, i)
                        == gen_binomial(k - 1, i - 1))


class TestSolveExact:
    def test_identity(self):
        assert solve_exact(((1, 0), (0, 1)), (3, 5)) == (3, 5)

    def test_hand_elimination(self):
        # columns (0,2) and (1,2); checked by substitution
        solution = solve_exact(((0, 1), (2, 2)), (1, 3))
        assert solution == (Fraction(1, 2), Fraction(1))
        assert solution[0] * 0 + solution[1] * 1 == 1
        assert solution[0] * 2 + solution[1] * 2 == 3

    def test_inconsistent(self):
        assert solve_exact(((1, 0), (0, 1), (0, 0)), (1, 1, 1)) is None

    def test_rank_deficient(self):
        with pytest.raises(ValueError, match="not linearly independent"):
            solve_exact(((1, 2), (2, 4)), (1, 2))

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            while True:
                rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(n)] for _ in range(n)]
                if matrix_rank(rows) == n:
                    break
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(n)]
            rhs = [sum(row[j] * x[j] for j in range(n)) for row in rows]
            assert solve_exact(rows, rhs) == tuple(x)


def template_solve(template, z):
    scaled = template.scaled_solution(z)
    if scaled is None:
        return None
    return tuple(Fraction(t, template.denom) for t in scaled)


class TestSolveTemplate:
    def test_matches_solve_exact(self):
        rng = random.Random(21)
        for trial in range(80):
            cols = rng.randint(1, 4)
            rows_n = cols + rng.randint(0, 3)
            top = rng.randint(1, 3) if trial % 2 else 1
            while True:
                matrix = [[Fraction(rng.randint(-4, 4), rng.randint(1, top))
                           for _ in range(cols)] for _ in range(rows_n)]
                if matrix_rank(matrix) == cols:
                    break
            template = SolveTemplate(matrix)
            # On the span: an integral right-hand side with known solution.
            x = [rng.randint(-3, 3) for _ in range(cols)]
            rhs = [sum(row[j] * x[j] for j in range(cols)) for row in matrix]
            scale = lcm(*(v.denominator for v in rhs), 1)
            on_span = [int(v * scale) for v in rhs]
            assert template_solve(template, on_span) == tuple(
                Fraction(v * scale) for v in x)
            # Arbitrary and nudged right-hand sides, mostly off the span
            # when the system is overdetermined.
            nudged = list(on_span)
            nudged[-1] += 1
            for z in ([rng.randint(-5, 5) for _ in range(rows_n)], nudged):
                assert template_solve(template, z) == solve_exact(matrix, z)
            if rows_n == cols:
                # Square: denom is the least common denominator of the
                # inverse, whose columns solve against the unit vectors.
                inverse = [solve_exact(matrix, [int(i == j)
                                                for j in range(rows_n)])
                           for i in range(rows_n)]
                assert template.denom == lcm(
                    *(v.denominator for col in inverse for v in col))
                assert template.residual_rows == ()

    def test_rank_deficient(self):
        with pytest.raises(ValueError):
            SolveTemplate([[1, 2], [2, 4], [0, 0]])


class TestIntegerLattice:
    """The lattice basis of a cone's span, as ConeBasis._reduced reads it
    from the solve template's echelon pass."""

    @staticmethod
    def span_coordinates(span, z):
        return solve_exact([[v[c] for v in span] for c in range(len(z))], z)

    def test_span_basis_random(self):
        rng = random.Random(3)
        for n in (3, 4, 5):
            # Entries within the box radius keep each generator's
            # primitive vector inside the box.
            radius = 2 if n < 5 else 1
            checked = 0
            while checked < 8:
                d = rng.randint(1, n - 1)
                gens = [[rng.randint(-radius, radius) for _ in range(n)]
                        for _ in range(d)]
                if matrix_rank(gens) < d:
                    continue
                inner, span = ConeBasis(gens)._reduced
                assert len(span) == d
                for g, y in zip(gens, inner.generators):
                    assert [sum(y[j] * span[j][c] for j in range(d))
                            for c in range(n)] == g
                gen_matrix = [[g[c] for g in gens] for c in range(n)]
                in_span = 0
                box = range(-radius, radius + 1)
                for z in itertools.product(box, repeat=n):
                    if solve_exact(gen_matrix, z) is None:
                        continue
                    coords = self.span_coordinates(span, z)
                    assert coords is not None
                    assert all(x.denominator == 1 for x in coords)
                    in_span += 1
                assert in_span > 1
                checked += 1

    def test_span_basis_even_sublattice(self):
        _, span = ConeBasis([(2, 0, 0), (0, 2, 0)])._reduced
        # span is the xy-plane; its integer points include the unit vectors
        for target in ((1, 0, 0), (0, 1, 0), (3, -2, 0)):
            coords = self.span_coordinates(span, target)
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)
        assert self.span_coordinates(span, (0, 0, 1)) is None

    def test_span_basis_skew(self):
        _, span = ConeBasis([(1, 2, 3)])._reduced
        assert len(span) == 1
        # the primitive vector along the line
        assert span[0] in ((1, 2, 3), (-1, -2, -3))


class TestPolynomial:
    def test_eval(self):
        assert Polynomial((1, 0, 1))(2) == 5
        assert Polynomial(())(Fraction(9, 7)) == 0
        half = Fraction(1, 2)
        assert Polynomial((1, Fraction(3, 2), half))(3) == 10

    def test_degree_convention(self):
        assert Polynomial(()).degree == -1
        assert Polynomial((0, 0)).degree == -1
        assert Polynomial((5,)).degree == 0
        assert Polynomial((0, 0, 3)).degree == 2

    def test_arithmetic_examples(self):
        one_minus = Polynomial((1, -1))
        assert (one_minus ** 2).coefficients == (1, -2, 1)
        assert (one_minus ** 3 * 2).coefficients == (2, -6, 6, -2)
        mixed = Polynomial((0, 1)) * one_minus + one_minus ** 2
        assert mixed.coefficients == (1, -1)

    def test_ring_distributivity_random(self):
        rng = random.Random(99)
        for _ in range(40):
            def rand_poly():
                return Polynomial([Fraction(rng.randint(-6, 6),
                                            rng.randint(1, 3))
                                   for _ in range(rng.randint(0, 5))])
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) * r == p * r + q * r
            assert (p - q) * r == p * r - q * r
            assert p * q == q * p

    def test_degree_under_multiplication(self):
        rng = random.Random(5)
        for _ in range(20):
            p = Polynomial([rng.randint(1, 4)
                            for _ in range(rng.randint(1, 4))])
            q = Polynomial([rng.randint(1, 4)
                            for _ in range(rng.randint(1, 4))])
            assert (p * q).degree == p.degree + q.degree

    def test_immutable(self):
        p = Polynomial((1, 2))
        with pytest.raises(AttributeError):
            p.coefficients = (3,)


def test_binomial_poly_matches_gen_binomial():
    for shift in (-1, 0, 2):
        for i in range(5):
            p = binomial_poly(shift, i)
            for k in range(-4, 6):
                assert p(k) == gen_binomial(k + shift, i)
