import itertools
import math
import random
from fractions import Fraction

import pytest

from fstarcount.bases import eval_fstar, fstar_pad, poly_from_fstar
from fstarcount.cones import enumerate_atomic
from fstarcount.exact import solve_exact
from fstarcount.simplices import (OpenComplex, Simplex, count_points,
                                  count_points_complex, fstar_complex,
                                  fstar_interpolate, fstar_simplex,
                                  homogenize, hstar_simplex, is_unimodular,
                                  lattice_points, open_faces,
                                  realize_fstar_complex, verify_disjoint)

STD2_CLOSED = Simplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
STD2_OPEN = STD2_CLOSED.as_open()
REEVE = Simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])


def random_integral_simplices(seed, count):
    """Open and closed integral simplices, some of lower dimension than
    their ambient space."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        d = rng.choice((1, 2, 3))
        ambient = d + rng.choice((0, 0, 1))
        verts = [tuple(rng.randint(-2, 2) for _ in range(ambient))
                 for _ in range(d + 1)]
        try:
            found.append(Simplex(verts, is_open=rng.random() < 0.5))
        except ValueError:
            continue
    return found


class TestSimplexValidation:
    def test_affinely_dependent(self):
        with pytest.raises(ValueError, match="affinely independent"):
            Simplex([(0, 0), (1, 1), (2, 2)])

    def test_too_many_vertices(self):
        with pytest.raises(ValueError):
            Simplex([(0,), (1,), (2,)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Simplex([(0, 0), (1,)])

    def test_basic_attributes(self):
        assert STD2_CLOSED.dim == 2
        assert STD2_CLOSED.ambient_dim == 3
        assert STD2_CLOSED.is_integral()
        assert not Simplex([(Fraction(1, 2),)]).is_integral()


class TestHomogenize:
    def test_unit_segment(self):
        assert homogenize(Simplex([(0,), (1,)]), 1).generators == (
            (0, 1), (1, 1))

    def test_rational_segment_height_two(self):
        assert homogenize(Simplex([(0,), (Fraction(1, 2),)]), 2).generators \
            == ((0, 2), (1, 2))

    def test_standard_simplex(self):
        assert homogenize(STD2_CLOSED, 1).generators == (
            (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))

    def test_insufficient_height(self):
        with pytest.raises(ValueError, match="does not clear denominators"):
            homogenize(Simplex([(0,), (Fraction(1, 3),)]), 2)


class TestCountPoints:
    def test_closed_standard(self):
        assert count_points(STD2_CLOSED, 3) == 10

    def test_open_standard(self):
        assert count_points(STD2_OPEN, 3) == 1

    def test_open_rational_segment(self):
        assert count_points(Simplex([(0,), (Fraction(1, 2),)], True), 5) == 2

    def test_dilate_must_be_positive(self):
        with pytest.raises(ValueError):
            count_points(STD2_CLOSED, 0)

    def test_lattice_points_sorted_and_consistent(self):
        points = lattice_points(STD2_CLOSED, 2)
        assert list(points) == sorted(points)
        assert len(points) == count_points(STD2_CLOSED, 2) == 6

    @staticmethod
    def _box(simplex, k):
        return [range(math.floor(k * min(c)), math.ceil(k * max(c)) + 1)
                for c in zip(*simplex.vertices)]

    def test_against_solve_exact(self):
        # The oracle's scan against a plain product over the bounding box
        # of k*s, kept where solve_exact on the columns (v_j, 1) gives
        # lambda >= 0 (closed) or lambda > 0 (open).  Boxes are capped so
        # that the Fraction solves stay within a second.
        rng = random.Random(8108)
        corpus = []
        while len(corpus) < 30:
            d = len(corpus) % 4
            ambient = max(1, d + rng.randint(0, 2))
            den = rng.choice((1, 2, 3))
            shift = [rng.randint(-1, 1) for _ in range(ambient)]
            verts = [tuple(c + Fraction(rng.randint(0, den), den)
                           for c in shift) for _ in range(d + 1)]
            try:
                simplex = Simplex(verts, is_open=rng.random() < 0.5)
            except ValueError:
                continue
            if math.prod(map(len, self._box(simplex, 3))) <= 128:
                corpus.append(simplex)
        for simplex in corpus:
            columns = [list(row) for row in zip(*simplex.vertices)]
            matrix = columns + [[1] * (simplex.dim + 1)]
            for k in range(1, 4):
                want = 0
                for z in itertools.product(*self._box(simplex, k)):
                    lambdas = solve_exact(matrix, list(z) + [k])
                    if lambdas is not None and all(
                            x > 0 if simplex.is_open else x >= 0
                            for x in lambdas):
                        want += 1
                assert count_points(simplex, k) == want, (simplex, k)


class TestFStarSimplex:
    def test_open_standard(self):
        assert fstar_simplex(STD2_OPEN, 2).entries == (0, 0, 1)

    def test_open_segment_length_two(self):
        assert fstar_simplex(Simplex([(0,), (2,)], True), 1).entries == (1, 2)

    def test_single_point(self):
        assert fstar_simplex(Simplex([(7,)], True), 0).entries == (1,)

    def test_closed_rejected(self):
        with pytest.raises(ValueError, match="open"):
            fstar_simplex(STD2_CLOSED)

    def test_rational_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            fstar_simplex(Simplex([(0,), (Fraction(1, 2),)], True))


class TestFStarInterpolate:
    def test_open_standard(self):
        assert fstar_interpolate(STD2_OPEN).entries == (0, 0, 1)

    def test_closed_standard(self):
        assert fstar_interpolate(STD2_CLOSED).entries == (3, 3, 1)

    def test_reeve_equals_sum_over_open_faces(self):
        ids = list(range(4))
        coords = {j: REEVE.vertices[j] for j in ids}
        summed = fstar_complex(open_faces([ids], coords))
        assert fstar_interpolate(REEVE) == summed

    def test_matches_atomic_route_random(self):
        rng = random.Random(63)
        for _ in range(20):
            d = rng.choice((1, 2))
            while True:
                verts = [tuple(rng.randint(-3, 3) for _ in range(d))
                         for _ in range(d + 1)]
                try:
                    simplex = Simplex(verts, is_open=True)
                    break
                except ValueError:
                    continue
            assert fstar_simplex(simplex) == fstar_interpolate(simplex)

    def test_counts_beyond_the_interpolation_nodes(self):
        # fstar_interpolate reads only the dilates 1..d+1; the polynomial
        # it returns must still give the brute-force count further out
        for simplex in random_integral_simplices(4417, 12):
            f = fstar_interpolate(simplex)
            for k in range(1, simplex.dim + 5):
                assert eval_fstar(f, k) == count_points(simplex, k), (
                    simplex, k)

    def test_higher_ambient_degree_is_padding(self):
        for simplex in random_integral_simplices(4418, 12):
            d = simplex.dim + 2
            assert fstar_interpolate(simplex, d) == fstar_pad(
                fstar_interpolate(simplex), d)


class TestHStarSimplex:
    def test_closed_standard(self):
        assert hstar_simplex(STD2_CLOSED).entries == (1, 0, 0)

    def test_segment_length_two(self):
        assert hstar_simplex(Simplex([(0,), (2,)])).entries == (1, 1)

    def test_reeve_normalized_volume(self):
        entries = hstar_simplex(REEVE).entries
        assert sum(entries) == 2
        assert all(e >= 0 for e in entries)

    def test_open_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            hstar_simplex(STD2_OPEN)


class TestOpenFaces:
    COORDS = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}

    def test_full_face_list(self):
        faces = open_faces([[0, 1, 2]], self.COORDS)
        dims = sorted(cell.dim for cell in faces.cells)
        assert dims == [0, 0, 0, 1, 1, 1, 2]

    def test_facet_beyond_the_ambient_dimension_refused(self):
        coords = {i: (i,) for i in range(40)}
        with pytest.raises(ValueError, match=r"facets\[1\]: too many"):
            open_faces([[0, 1], list(range(40))], coords)

    def test_too_many_faces_refused(self):
        # 14 vertices in 13 dimensions, or a removed 40-vertex facet
        coords = {i: tuple(int(i == j) for j in range(13)) for i in range(14)}
        with pytest.raises(ValueError, match="complex too large"):
            open_faces([list(range(14))], coords)
        with pytest.raises(ValueError, match="complex too large"):
            open_faces([[0, 1]], self.COORDS, [list(range(40))])

    def test_boundary(self):
        boundary = open_faces([[0, 1], [1, 2], [0, 2]], self.COORDS)
        assert sorted(c.dim for c in boundary.cells) == [0, 0, 0, 1, 1, 1]
        assert fstar_complex(boundary, 2).entries == (3, 3, 0)

    def test_relative_complex(self):
        inside = open_faces([[0, 1, 2]], self.COORDS,
                            remove=[[0, 1], [1, 2], [0, 2]])
        assert len(inside.cells) == 1
        assert inside.cells[0].dim == 2

    def test_count_additivity(self):
        faces = open_faces([[0, 1, 2]], self.COORDS)
        for k in range(1, 5):
            assert count_points_complex(faces, k) == count_points(
                STD2_CLOSED, k)


class TestFStarComplex:
    def test_closed_simplex_via_faces(self):
        faces = open_faces([[0, 1, 2]], TestOpenFaces.COORDS)
        assert fstar_complex(faces).entries == (3, 3, 1)

    def test_two_disjoint_segments(self):
        cells = (Simplex([(0, 0), (1, 0)], True),
                 Simplex([(5, 5), (6, 5)], True))
        assert fstar_complex(OpenComplex(cells), 1).entries == (0, 2)

    def test_counts_match_polynomial(self):
        faces = open_faces([[0, 1, 2]], TestOpenFaces.COORDS)
        f = fstar_complex(faces)
        for k in range(1, 7):
            assert eval_fstar(f, k) == count_points_complex(faces, k)

    def test_open_cells_required(self):
        with pytest.raises(ValueError):
            OpenComplex((STD2_CLOSED,))


class TestDisjointness:
    def test_clean_complex(self):
        assert verify_disjoint(open_faces([[0, 1, 2]], TestOpenFaces.COORDS))

    def test_overlap_detected(self):
        cell = Simplex([(0,), (3,)], True)
        assert not verify_disjoint(OpenComplex((cell, cell)))


class TestUnimodular:
    def test_standard(self):
        assert is_unimodular(STD2_CLOSED)

    def test_long_segment(self):
        assert not is_unimodular(Simplex([(0,), (2,)]))

    def test_reeve(self):
        assert not is_unimodular(REEVE)

    def test_agrees_with_the_atomic_count(self):
        # is_unimodular reads the solve template's denominator; the
        # definition is one atomic point in the homogenized open cone
        rng = random.Random(4419)
        verdicts = []
        while len(verdicts) < 80:
            d = rng.randint(0, 4)
            ambient = max(d, 1) + rng.randint(0, 2)
            verts = [tuple(rng.randint(-2, 2) for _ in range(ambient))
                     for _ in range(d + 1)]
            try:
                simplex = Simplex(verts, is_open=rng.random() < 0.5)
            except ValueError:
                continue
            atoms = enumerate_atomic(homogenize(simplex, 1))
            assert is_unimodular(simplex) == (len(atoms) == 1), verts
            verdicts.append(len(atoms) == 1)
        assert True in verdicts and False in verdicts


class TestRealizeFstar:
    def test_target_reached(self):
        rng = random.Random(44)
        for _ in range(10):
            target = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
            built = realize_fstar_complex(target)
            got = fstar_complex(built, len(target) - 1)
            assert got.entries == target
            assert verify_disjoint(built)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            realize_fstar_complex((1, -1))


def test_unimodular_complex_fstar_equals_f_vector():
    # on a unimodular complex the f*-vector coincides with the f-vector,
    # the number of cells of each dimension
    coords = TestOpenFaces.COORDS
    for facets in ([[0, 1, 2]], [[0, 1], [1, 2], [0, 2]]):
        complex_ = open_faces(facets, coords)
        dims = [cell.dim for cell in complex_.cells]
        f = tuple(dims.count(i) for i in range(complex_.dim + 1))
        assert fstar_complex(complex_).entries == f


def test_polynomial_counts_on_random_corpus():
    rng = random.Random(321)
    for _ in range(10):
        d = rng.choice((1, 2))
        while True:
            verts = [tuple(rng.randint(-2, 2) for _ in range(d))
                     for _ in range(d + 1)]
            try:
                simplex = Simplex(verts, is_open=True)
                break
            except ValueError:
                continue
        poly = poly_from_fstar(fstar_simplex(simplex))
        for k in range(1, 7):
            assert poly(k) == count_points(simplex, k)


def test_mixed_ambient_dimensions_rejected():
    import pytest
    from fstarcount.simplices import OpenComplex, Simplex
    with pytest.raises(ValueError, match="ambient"):
        OpenComplex((Simplex([(0,), (1,)], True),
                     Simplex([(0, 0), (1, 0)], True)))
