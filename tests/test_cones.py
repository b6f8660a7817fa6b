import itertools
import math
import random
from fractions import Fraction

import pytest

from fstarcount.cones import (CoefficientVector, ConeBasis,
                              atomic_inductive_oracle, coefficients_of,
                              enumerate_atomic, is_atomic,
                              parallelepiped_points, verify_partition)
from fstarcount.exact import solve_exact
from fstarcount.simplices import Simplex, homogenize


def random_cone(rng, dims=(1, 2, 3), bound=4, extra_dims=(0,)):
    """d random generators in Z^(d + e), e drawn from extra_dims."""
    while True:
        d = rng.choice(dims)
        n = d + rng.choice(extra_dims)
        gens = [tuple(rng.randint(-bound, bound) for _ in range(n))
                for _ in range(d)]
        try:
            return ConeBasis(gens)
        except ValueError:
            continue


class TestConeBasis:
    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError, match="not linearly independent"):
            ConeBasis([(1, 2), (2, 4)])
        with pytest.raises(ValueError):
            ConeBasis([(1,), (2,)])

    def test_order_preserved(self):
        basis = ConeBasis([(0, 1), (2, 1)])
        assert basis.generators == ((0, 1), (2, 1))
        assert ConeBasis([(2, 1), (0, 1)]) != basis


class TestCoefficientsOf:
    def test_hand_solved(self):
        c = coefficients_of(ConeBasis([(0, 2), (1, 2)]), (1, 3))
        assert c.lambdas == (Fraction(1, 2), Fraction(1))
        assert c.level == 2 and c.degree == 3

    def test_identity_generators(self):
        c = coefficients_of(ConeBasis([(1, 0), (0, 1)]), (1, 1))
        assert c.lambdas == (1, 1) and c.level == 2 and c.degree == 3

    def test_boundary_not_open(self):
        assert coefficients_of(ConeBasis([(1, 0), (0, 1)]), (1, 0)) is None

    def test_off_span(self):
        basis = homogenize(Simplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 1)
        assert coefficients_of(basis, (1, 0, 0, 0)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coefficients_of(ConeBasis([(1, 0), (0, 1)]), (1, 1, 1))


class TestAtomicity:
    def test_level_one_always_atomic(self):
        c = CoefficientVector.from_lambdas((Fraction(1, 2), Fraction(1, 2)))
        assert c.level == 1 and c.degree == 3
        assert is_atomic(c)

    def test_early_large_coefficient(self):
        c = CoefficientVector.from_lambdas((Fraction(3, 2), Fraction(1, 4)))
        assert c.level == 2 and c.degree == 1
        assert not is_atomic(c)

    def test_all_ones(self):
        c = CoefficientVector.from_lambdas((1, 1))
        assert is_atomic(c)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            CoefficientVector.from_lambdas((1, 0))


class TestEnumerateAtomic:
    def test_unimodular_quadrant(self):
        atoms = enumerate_atomic(ConeBasis([(1, 0), (0, 1)]))
        assert [(a.point, a.level) for a in atoms] == [((1, 1), 2)]

    def test_unit_segment_cone(self):
        atoms = enumerate_atomic(ConeBasis([(0, 1), (1, 1)]))
        assert [(a.point, a.level) for a in atoms] == [((1, 2), 2)]

    def test_length_two_segment_cone(self):
        atoms = enumerate_atomic(ConeBasis([(0, 1), (2, 1)]))
        assert [(a.point, a.level) for a in atoms] == [
            ((1, 1), 1), ((2, 2), 2), ((3, 2), 2)]

    def test_primitive_generator_level_one(self):
        atoms = enumerate_atomic(ConeBasis([(3, 5)]))
        assert [(a.point, a.level) for a in atoms] == [((3, 5), 1)]

    def test_output_sorted(self):
        rng = random.Random(1)
        for _ in range(10):
            atoms = enumerate_atomic(random_cone(rng))
            points = [a.point for a in atoms]
            assert points == sorted(points)

    def test_levels_bounded_by_dim(self):
        rng = random.Random(2)
        for _ in range(20):
            basis = random_cone(rng)
            for atom in enumerate_atomic(basis):
                assert 1 <= atom.level <= basis.dim

    def test_heights_recorded(self):
        atoms = enumerate_atomic(ConeBasis([(0, 1), (2, 1)]))
        assert [a.height for a in atoms] == [1, 2, 2]


class TestInductiveOracleAgreement:
    def test_worked_examples(self):
        for gens in ([(1, 0), (0, 1)], [(0, 1), (2, 1)], [(0, 1), (1, 1)],
                     [(2, 3)], [(1, 1), (-1, 1)]):
            assert (enumerate_atomic(ConeBasis(gens))
                    == atomic_inductive_oracle(ConeBasis(gens)))

    def test_random_cones(self):
        rng = random.Random(77)
        for _ in range(30):
            basis = random_cone(rng)
            assert enumerate_atomic(basis) == atomic_inductive_oracle(basis)

    def test_ambient_larger_than_dim(self):
        # homogenized standard 2-simplex lives in R^3 with 3 generators,
        # its boundary edge cone in R^3 with 2: both exercise the
        # span-reduction path
        simplex = Simplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)], is_open=True)
        basis = homogenize(simplex, 1)
        assert enumerate_atomic(basis) == atomic_inductive_oracle(basis)
        edge = ConeBasis([(1, 0, 1), (0, 1, 1)])
        assert enumerate_atomic(edge) == atomic_inductive_oracle(edge)

    def test_level_one_equals_first_level_set(self):
        rng = random.Random(13)
        for _ in range(10):
            basis = random_cone(rng)
            oracle = atomic_inductive_oracle(basis)
            direct = enumerate_atomic(basis)
            assert ([a.point for a in oracle if a.level == 1]
                    == [a.point for a in direct if a.level == 1])

    def test_every_level_one_point_is_atomic(self):
        from fstarcount.cones import _scan_scaled
        rng = random.Random(29)
        for _ in range(10):
            basis = random_cone(rng)
            atoms = {a.point for a in enumerate_atomic(basis)}
            denom = basis.solver.denom
            for z, vals in _scan_scaled(basis, basis.dim):
                if sum(vals[:basis.dim]) <= denom:  # level 1
                    assert z in atoms


def _naive_scan(basis, corners, keep):
    """{z: denom * lambda} for the lattice points z in the bounding box of
    `corners` whose coefficients lambda (from solve_exact) pass keep."""
    matrix = list(zip(*basis.generators))
    found = {}
    for z in itertools.product(*(range(min(c), max(c) + 1)
                                 for c in zip(*corners))):
        lambdas = solve_exact(matrix, z)
        if lambdas is not None and keep(lambdas):
            found[z] = [x * basis.solver.denom for x in lambdas]
    return found


def _combinations(basis, weights):
    # sum_i w_i v_i for each weight vector w
    return [tuple(sum(w * g[c] for w, g in zip(ws, basis.generators))
                  for c in range(basis.ambient_dim))
            for ws in weights]


class TestScanAgainstSolveExact:
    """_scan_scaled serves enumerate_atomic (through the parallelepiped)
    and atomic_inductive_oracle and verify_partition (through the open
    cone), so both of its bound sets are pinned to solve_exact here, on
    full-rank and on rank-deficient cones."""

    @staticmethod
    def cones():
        rng = random.Random(3)
        return ([random_cone(rng, bound=3) for _ in range(12)]
                + [random_cone(rng, dims=(1, 2), bound=2, extra_dims=(1, 2))
                   for _ in range(12)]
                + [ConeBasis([(1, 0, 1), (0, 1, 1)]),
                   ConeBasis([(2, 0, 1, 1), (0, 2, 1, -1), (1, 1, 0, 1)])])

    @staticmethod
    def scanned(basis, max_level=None):
        from fstarcount.cones import _scan_scaled
        return {z: values[:basis.dim]
                for z, values in _scan_scaled(basis, max_level)}

    def test_parallelepiped(self):
        for basis in self.cones():
            corners = _combinations(
                basis, itertools.product((0, 1), repeat=basis.dim))
            naive = _naive_scan(basis, corners,
                                lambda ls: all(0 <= x < 1 for x in ls))
            assert self.scanned(basis) == naive, basis
            assert parallelepiped_points(basis) == tuple(sorted(naive))

    def test_open_cone_to_level(self):
        level = 2
        for basis in self.cones():
            # conv(0, level * v_1, ..., level * v_d) holds the points
            corners = _combinations(basis, [[0] * basis.dim] + [
                [level * (i == j) for j in range(basis.dim)]
                for i in range(basis.dim)])
            naive = _naive_scan(basis, corners, lambda ls: (
                all(x > 0 for x in ls) and sum(ls) <= level))
            assert self.scanned(basis, level) == naive, basis


class TestAtomicPointIntegers:
    """AtomicPoint keeps scaled = denom * lambda as integers and reads
    its level as one integer ceiling; both are pinned here to lambda from
    the Fraction solve_exact on the generator columns."""

    @staticmethod
    def cones():
        rng = random.Random(4242)
        cones = [random_cone(rng, dims=(1, 2, 3), bound=3)
                 for _ in range(30)]
        cones += [random_cone(rng, dims=(1, 2, 3), bound=3,
                              extra_dims=(1, 2)) for _ in range(20)]
        # homogenized lower-dimensional simplices in a larger ambient space
        for _ in range(15):
            d = rng.randint(0, 2)
            n = d + rng.randint(1, 2)
            while True:
                vertices = [tuple(rng.randint(-2, 3) for _ in range(n))
                            for _ in range(d + 1)]
                try:
                    simplex = Simplex(vertices, is_open=True)
                except ValueError:
                    continue
                cones.append(homogenize(simplex, 1))
                break
        return cones

    def test_scaled_and_level_match_solve_exact(self):
        checked = deficient = 0
        for basis in self.cones():
            columns = list(zip(*basis.generators))
            deficient += basis.dim < basis.ambient_dim
            for route in (enumerate_atomic, atomic_inductive_oracle):
                for atom in route(basis):
                    lambdas = solve_exact(columns, atom.point)
                    assert atom.denom == basis.solver.denom
                    assert list(atom.scaled) == [atom.denom * x
                                                 for x in lambdas]
                    assert atom.level == math.ceil(sum(lambdas))
                    checked += 1
        assert deficient >= 30 and checked >= 300, (deficient, checked)


class TestParallelepiped:
    def test_unimodular(self):
        assert parallelepiped_points(ConeBasis([(1, 0), (0, 1)])) == ((0, 0),)

    def test_index_two_segment(self):
        assert parallelepiped_points(ConeBasis([(0, 1), (2, 1)])) == (
            (0, 0), (1, 1))

    def test_rotated_determinant_two(self):
        points = parallelepiped_points(ConeBasis([(1, 1), (-1, 1)]))
        assert set(points) == {(0, 0), (0, 1)}

    def test_count_equals_determinant(self):
        rng = random.Random(55)

        def determinant(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = 0
            for j in range(n):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * determinant(minor)
            return total

        for _ in range(25):
            basis = random_cone(rng)
            det = determinant([list(g) for g in basis.generators])
            assert len(parallelepiped_points(basis)) == abs(det)


class TestVerifyPartition:
    def test_quadrant(self):
        report = verify_partition(ConeBasis([(1, 0), (0, 1)]), 5)
        assert report.passed and report.atomic_count == 1
        assert report.points_checked == 10  # x, y >= 1 with x + y <= 5

    def test_segment_cone(self):
        assert verify_partition(ConeBasis([(0, 1), (2, 1)]), 6).passed

    def test_single_generator(self):
        report = verify_partition(ConeBasis([(2, 3)]), 4)
        assert report.passed and report.atomic_count == 1

    def test_random_cones(self):
        rng = random.Random(1234)
        for _ in range(25):
            basis = random_cone(rng)
            report = verify_partition(basis, basis.dim + 2)
            assert report.passed, (basis.generators, report.violations[:3])
            assert not report.violations


class TestScanConstrained:
    def test_against_naive_filter(self):
        """Points, their order and each yielded values buffer equal a
        filtered itertools.product, on 400 cases with 0-4 coordinates and
        0-4 rows: inverted bounds, zero entries (whole zero rows with a
        range that misses 0 among them), negative entries and equality
        rows."""
        from fstarcount.cones import scan_constrained
        rng = random.Random(606)
        seen = dict.fromkeys(["inverted", "infeasible zero row", "negative",
                              "equality", "empty", "non-empty"], 0)
        for case in range(400):
            n, m = case % 5, rng.randint(0, 4)
            bounds = []
            for _ in range(n):
                lo = rng.randint(-4, 2)
                width = -1 if rng.random() < 0.04 else rng.randint(0, 5)
                bounds.append((lo, lo + width))
            constraints = []
            for _ in range(m):
                row = tuple(rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3))
                            for _ in range(n))
                kind = rng.random()
                if kind < 0.1:
                    row = (0,) * n
                    lo = rng.choice((-3, 1))  # a range without 0
                    hi = lo + 2
                elif kind < 0.35:
                    lo = hi = rng.randint(-6, 6)
                else:
                    lo = rng.randint(-8, 4)
                    hi = lo + rng.randint(-1, 12)
                constraints.append((row, lo, hi))
            got = [(z, list(values))
                   for z, values in scan_constrained(bounds, constraints)]
            naive = []
            for z in itertools.product(*(range(lo, hi + 1)
                                         for lo, hi in bounds)):
                values = [sum(r * x for r, x in zip(row, z))
                          for row, _, _ in constraints]
                if all(lo <= v <= hi
                       for v, (_, lo, hi) in zip(values, constraints)):
                    naive.append((z, values))
            assert got == naive, (bounds, constraints)
            seen["inverted"] += any(lo > hi for lo, hi in bounds)
            seen["infeasible zero row"] += any(
                not any(row) and not lo <= 0 <= hi
                for row, lo, hi in constraints)
            seen["negative"] += any(x < 0 for row, _, _ in constraints
                                    for x in row)
            seen["equality"] += any(lo == hi for _, lo, hi in constraints)
            seen["empty" if not naive else "non-empty"] += 1
        assert min(seen.values()) >= 10, seen

    def test_values_match_rows(self):
        from fstarcount.cones import scan_constrained
        constraints = [((1, 2), -100, 100), ((1, -1), 0, 0)]
        for z, vals in scan_constrained([(0, 3), (0, 3)], constraints):
            assert vals[0] == z[0] + 2 * z[1]
            assert z[0] == z[1]


class TestVerifierDetectsBrokenPartition:
    def test_missing_atomic_point_reported(self, monkeypatch):
        import fstarcount.cones as cones
        real = cones._scaled_atomic

        def truncated(basis):
            found, denom = real(basis)
            return found[:-1], denom

        monkeypatch.setattr(cones, "_scaled_atomic", truncated)
        report = verify_partition(ConeBasis([(0, 1), (2, 1)]), 6)
        assert not report.passed
        assert report.violations
        assert all(count == 0 for _, count in report.violations)


class TestSignAndScaleEdgeCases:
    def test_negative_generator(self):
        basis = ConeBasis([(-2,)])
        assert parallelepiped_points(basis) == ((-1,), (0,))
        atoms = enumerate_atomic(basis)
        assert [(a.point, a.level) for a in atoms] == [((-2,), 1), ((-1,), 1)]
        assert atoms == atomic_inductive_oracle(basis)
        assert verify_partition(basis, 4).passed

    def test_mixed_sign_generators(self):
        basis = ConeBasis([(-1, 2), (3, -1)])
        assert enumerate_atomic(basis) == atomic_inductive_oracle(basis)
        assert verify_partition(basis, 4).passed

    def test_non_primitive_generator_off_axis(self):
        basis = ConeBasis([(2, 4)])
        assert len(parallelepiped_points(basis)) == 2
        assert enumerate_atomic(basis) == atomic_inductive_oracle(basis)
        assert verify_partition(basis, 5).passed

    def test_big_integer_exactness(self):
        big = 10 ** 25
        basis = ConeBasis([(big, 1), (1, 0)])
        c = coefficients_of(basis, (big + 1, 1))
        assert c is not None and c.lambdas == (1, 1)


def test_permutation_invariance_of_level_profile():
    rng = random.Random(909)
    for _ in range(10):
        basis = random_cone(rng, dims=(2, 3))
        profile = sorted(a.level for a in enumerate_atomic(basis))
        for _ in range(4):
            order = list(range(basis.dim))
            rng.shuffle(order)
            permuted = ConeBasis([basis.generators[i] for i in order])
            assert sorted(a.level
                          for a in enumerate_atomic(permuted)) == profile


def test_inconsistent_level_degree_rejected():
    import pytest
    from fractions import Fraction
    from fstarcount.cones import CoefficientVector
    with pytest.raises(ValueError):
        CoefficientVector((Fraction(1, 2), Fraction(1, 2)), level=2, degree=3)
