from fractions import Fraction
from math import lcm

import pytest

from fstarcount.bases import FStarVector
from fstarcount.cones import ConeBasis, enumerate_atomic
from fstarcount.rational import (EhrhartQuasiPolynomial, count_via_profile,
                                 mixed_profile, quasi_eval, residue_fstar,
                                 restricted_partition)
from fstarcount.simplices import OpenComplex, Simplex, count_points, \
    fstar_simplex

HALF_SEGMENT = Simplex([(0,), (Fraction(1, 2),)], is_open=True)
TWO_THIRDS_SEGMENT = Simplex([(0,), (Fraction(2, 3),)], is_open=True)


class TestRestrictedPartition:
    def test_enumerated(self):
        assert restricted_partition((1, 2), 4) == 3

    def test_zero_target(self):
        for weights in ((1,), (4, 9), (2, 2)):
            assert restricted_partition(weights, 0) == 1

    def test_parity_obstruction(self):
        assert restricted_partition((2, 2), 3) == 0

    def test_negative_target(self):
        assert restricted_partition((1, 2), -1) == 0

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            restricted_partition((1, 0), 3)

    def test_huge_target_refused(self):
        with pytest.raises(ValueError, match="at most 1000000"):
            restricted_partition((1,), 10 ** 6 + 1)

    def test_brute_force_agreement(self):
        for weights in ((2, 3), (1, 3, 4), (5,)):
            for target in range(0, 15):
                brute = sum(
                    1
                    for combo in _combinations(weights, target))
                assert restricted_partition(weights, target) == brute


def _combinations(weights, target):
    if not weights:
        if target == 0:
            yield ()
        return
    head, *rest = weights
    for count in range(target // head + 1):
        for tail in _combinations(rest, target - head * count):
            yield (count,) + tail


class TestResidueFstar:
    def test_half_segment(self):
        qp = residue_fstar(HALF_SEGMENT, 2)
        assert qp.period == 2 and qp.ambient_degree == 1
        assert [f.entries for f in qp.residue_fstar] == [(0, 1), (0, 1)]

    def test_integral_degenerates(self):
        unit = Simplex([(0,), (1,)], is_open=True)
        qp = residue_fstar(unit, 1)
        assert qp.period == 1
        assert qp.residue_fstar[0] == fstar_simplex(unit)

    def test_third_segment_against_brute_force(self):
        qp = residue_fstar(Simplex([(0,), (Fraction(1, 3),)], True), 3)
        simplex = Simplex([(0,), (Fraction(1, 3),)], True)
        for h in range(1, 21):
            assert quasi_eval(qp, h) == count_points(simplex, h)

    def test_bad_period(self):
        with pytest.raises(ValueError, match="denominators"):
            residue_fstar(Simplex([(0,), (Fraction(1, 3),)], True), 2)

    def test_period_must_be_positive(self):
        for period in (0, -2):
            with pytest.raises(ValueError, match="period must be positive"):
                residue_fstar(HALF_SEGMENT, period)

    def test_closed_rejected(self):
        with pytest.raises(ValueError, match="open"):
            residue_fstar(Simplex([(0,), (Fraction(1, 2),)]), 2)

    def test_entries_nonnegative_integral(self):
        for simplex in _RATIONAL_SAMPLES:
            m = _period(simplex)
            for f in residue_fstar(simplex, m).residue_fstar:
                assert f.is_nonnegative_integral()


class TestQuasiEval:
    def test_examples(self):
        qp = residue_fstar(HALF_SEGMENT, 2)
        assert quasi_eval(qp, 5) == 2
        assert quasi_eval(qp, 1) == 0
        assert quasi_eval(qp, 4) == 1

    def test_height_must_be_positive(self):
        qp = residue_fstar(HALF_SEGMENT, 2)
        with pytest.raises(ValueError):
            quasi_eval(qp, 0)

    def test_samples_against_brute_force(self):
        for simplex in _RATIONAL_SAMPLES:
            m = _period(simplex)
            qp = residue_fstar(simplex, m)
            for h in range(1, 4 * m * (simplex.dim + 1) + 1):
                assert quasi_eval(qp, h) == count_points(simplex, h)

    def test_residue_count_must_match_period(self):
        qp = residue_fstar(HALF_SEGMENT, 2)
        with pytest.raises(ValueError):
            EhrhartQuasiPolynomial(3, 1, qp.residue_fstar)

    def test_negative_ambient_degree_refused(self):
        # a period-1 quasipolynomial of degree -1 would evaluate to 0
        with pytest.raises(ValueError, match="ambient degree must be "
                                             "non-negative"):
            EhrhartQuasiPolynomial(1, -1, (FStarVector((0,), 0),))


class TestMixedProfile:
    def test_half_segment(self):
        counts, heights = mixed_profile(HALF_SEGMENT)
        assert heights == (1, 2)
        assert counts == {(1, 3): 1}

    def test_integral_segment(self):
        counts, heights = mixed_profile(Simplex([(0,), (1,)], True))
        assert heights == (1, 1)
        assert counts == {(1, 2): 1}

    def test_rational_point(self):
        counts, heights = mixed_profile(Simplex([(Fraction(1, 2),)], True))
        assert heights == (2,)
        assert counts == {(0, 2): 1}

    def test_heights_can_exceed_generator_height_sum(self):
        # (0, 2/3) has generator heights (1, 3) summing to 4, yet carries
        # an atomic point at height 5 whose contribution is needed at
        # dilate 5; truncating the profile at the height sum undercounts.
        counts, heights = mixed_profile(TWO_THIRDS_SEGMENT)
        assert heights == (1, 3)
        assert counts[(1, 5)] == 1
        assert max(s for _, s in counts) > sum(heights)
        assert count_via_profile(TWO_THIRDS_SEGMENT, 5) \
            == count_points(TWO_THIRDS_SEGMENT, 5) == 3

    def test_bucket_completeness(self):
        for simplex in _RATIONAL_SAMPLES:
            counts, heights = mixed_profile(simplex)
            generators = [tuple(int(x * m) for x in v) + (m,)
                          for v, m in zip(simplex.vertices, heights)]
            atoms = enumerate_atomic(ConeBasis(generators))
            assert sum(counts.values()) == len(atoms)


class TestCountViaProfile:
    def test_examples(self):
        assert count_via_profile(HALF_SEGMENT, 7) == 3
        assert count_via_profile(HALF_SEGMENT, 3) == 1
        assert count_via_profile(HALF_SEGMENT, 2) == 0

    def test_samples_against_brute_force(self):
        for simplex in _RATIONAL_SAMPLES:
            for k in range(1, 21):
                assert count_via_profile(simplex, k) \
                    == count_points(simplex, k)


def _period(simplex):
    return lcm(*(x.denominator for v in simplex.vertices for x in v), 1)


_RATIONAL_SAMPLES = [
    HALF_SEGMENT,
    TWO_THIRDS_SEGMENT,
    Simplex([(Fraction(1, 3),), (Fraction(2, 3),)], True),
    Simplex([(Fraction(-1, 2),), (Fraction(3, 2),)], True),
    Simplex([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))], True),
    Simplex([(Fraction(-1, 2), Fraction(1, 3)),
             (Fraction(1, 2), Fraction(2, 3)),
             (0, Fraction(3, 2))], True),
]


def test_non_minimal_periods_also_work():
    # any period clearing the denominators is acceptable, not only the
    # smallest one
    for m in (2, 4, 6):
        qp = residue_fstar(HALF_SEGMENT, m)
        assert qp.period == m
        for h in range(1, 25):
            assert quasi_eval(qp, h) == count_points(HALF_SEGMENT, h)
        for f in qp.residue_fstar:
            assert f.is_nonnegative_integral()
    integral_segment = Simplex([(0,), (2,)], is_open=True)
    for m in (1, 2, 3):
        qp = residue_fstar(integral_segment, m)
        for h in range(1, 25):
            assert quasi_eval(qp, h) == count_points(integral_segment, h)


def test_three_dimensional_rational_simplex():
    tet = Simplex([(0, 0, 0), (Fraction(1, 2), 0, 0),
                   (0, Fraction(1, 2), 0), (0, 0, Fraction(1, 2))],
                  is_open=True)
    qp = residue_fstar(tet, 2)
    assert [f.entries for f in qp.residue_fstar] == [
        (0, 0, 0, 1), (0, 0, 0, 1)]
    for h in range(1, 25):
        assert quasi_eval(qp, h) == count_points(tet, h)
    for k in range(1, 13):
        assert count_via_profile(tet, k) == count_points(tet, k)


def test_disjoint_rational_complex_sums_nonnegative():
    # two disjoint open rational segments; their residue vectors add to
    # the union's, staying non-negative and integral
    left = Simplex([(0,), (Fraction(1, 2),)], True)
    right = Simplex([(3,), (Fraction(7, 2),)], True)
    period = 2
    qp_left = residue_fstar(left, period)
    qp_right = residue_fstar(right, period)
    summed = [
        tuple(a + b for a, b in zip(qp_left.residue_fstar[l].entries,
                                    qp_right.residue_fstar[l].entries))
        for l in range(period)
    ]
    for entries in summed:
        assert all(e >= 0 and e.denominator == 1 for e in entries)
    union = OpenComplex((left, right))
    for h in range(1, 17):
        total = quasi_eval(qp_left, h) + quasi_eval(qp_right, h)
        assert total == sum(count_points(cell, h) for cell in union.cells)
