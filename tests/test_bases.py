import random
from fractions import Fraction

import pytest

from fstarcount.bases import (FStarVector, HStarVector, eval_fstar,
                              fstar_from_poly, fstar_pad, hstar_from_poly,
                              hstar_fstar_identity_check, poly_from_fstar,
                              poly_from_hstar)
from fstarcount.exact import (Polynomial, binomial_poly, gen_binomial,
                              solve_exact)


def test_fstar_from_poly_examples():
    assert fstar_from_poly(binomial_poly(-1, 2), 2).entries == (0, 0, 1)
    closed_2simplex = Polynomial((1, Fraction(3, 2), Fraction(1, 2)))
    assert fstar_from_poly(closed_2simplex, 2).entries == (3, 3, 1)
    assert fstar_from_poly(Polynomial((-1, 2)), 1).entries == (1, 2)
    assert fstar_from_poly(Polynomial((2,)), 3).entries == (2, 0, 0, 0)


def test_poly_from_fstar_examples():
    assert poly_from_fstar(FStarVector((0, 0, 1), 2)) == binomial_poly(-1, 2)
    assert poly_from_fstar(FStarVector((1, 0), 1)) == Polynomial((1,))
    assert poly_from_fstar(FStarVector((1, 2), 1)) == Polynomial((-1, 2))


def test_hstar_examples():
    assert hstar_from_poly(binomial_poly(2, 2), 2).entries == (1, 0, 0)
    assert hstar_from_poly(Polynomial((2,)), 3).entries == (2, -6, 6, -2)
    assert hstar_from_poly(Polynomial((-1, 2)), 1).entries == (-1, 3)
    back = poly_from_hstar(HStarVector((-1, 3), 1))
    assert back == Polynomial((-1, 2))


def test_degree_too_small():
    quadratic = binomial_poly(-1, 2)
    with pytest.raises(ValueError, match="ambient degree"):
        fstar_from_poly(quadratic, 1)
    with pytest.raises(ValueError):
        hstar_from_poly(quadratic, 1)


@pytest.mark.parametrize("vector", [FStarVector, HStarVector])
def test_negative_ambient_degree_refused(vector):
    with pytest.raises(ValueError, match="ambient degree must be "
                                         "non-negative"):
        vector((), -1)
    assert vector((5,), 0).entries == (5,)


def test_fstar_pad():
    assert fstar_pad(FStarVector((0, 0, 1), 2), 5).entries == (0, 0, 1, 0, 0, 0)
    assert fstar_pad(FStarVector((2, 0), 1), 2).entries == (2, 0, 0)
    padded = fstar_pad(FStarVector((1, 2), 1), 3)
    assert padded == fstar_from_poly(Polynomial((-1, 2)), 3)
    with pytest.raises(ValueError):
        fstar_pad(FStarVector((1, 2), 1), 0)


def test_identity_check_examples():
    assert hstar_fstar_identity_check(FStarVector((3, 3, 1), 2))
    assert hstar_fstar_identity_check(FStarVector((1, 2), 1))
    assert hstar_fstar_identity_check(FStarVector((0, 0, 0, 0), 3))


def test_round_trips_random():
    rng = random.Random(404)
    for _ in range(200):
        degree = rng.randint(0, 6)
        p = Polynomial([Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                        for _ in range(degree + 1)])
        d = max(p.degree, 0) + rng.randint(0, 2)
        assert poly_from_fstar(fstar_from_poly(p, d)) == p
        assert poly_from_hstar(hstar_from_poly(p, d)) == p
        f = fstar_from_poly(p, d)
        assert fstar_from_poly(poly_from_fstar(f), d) == f


def test_conversions_match_dense_solve():
    """Pin both conversions to the Fraction solve they replaced: expand p
    over each basis by solving its evaluation matrix at k = 1..d+1."""
    rng = random.Random(7301)
    for _ in range(120):
        degree = rng.randint(0, 6)
        p = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                        for _ in range(degree + 1)])
        d = max(p.degree, 0) + rng.randint(0, 6 - max(p.degree, 0))
        points = range(1, d + 2)
        values = [p(k) for k in points]
        f_matrix = [[gen_binomial(k - 1, i) for i in range(d + 1)]
                    for k in points]
        h_matrix = [[gen_binomial(k + d - i, d) for i in range(d + 1)]
                    for k in points]
        assert fstar_from_poly(p, d).entries == solve_exact(f_matrix, values)
        assert hstar_from_poly(p, d).entries == solve_exact(h_matrix, values)


def test_conversion_paths_agree():
    rng = random.Random(8)
    for _ in range(50):
        degree = rng.randint(0, 5)
        p = Polynomial([Fraction(rng.randint(-5, 5))
                        for _ in range(degree + 1)])
        d = max(p.degree, 0) + rng.randint(0, 1)
        via_fstar = hstar_from_poly(poly_from_fstar(fstar_from_poly(p, d)), d)
        assert via_fstar == hstar_from_poly(p, d)


def test_fstar_stable_under_ambient_degree():
    rng = random.Random(17)
    for _ in range(50):
        degree = rng.randint(0, 4)
        p = Polynomial([Fraction(rng.randint(-5, 5))
                        for _ in range(degree + 1)])
        d1 = max(p.degree, 0) + rng.randint(0, 3)
        d2 = max(p.degree, 0) + rng.randint(0, 3)
        f1 = fstar_from_poly(p, d1)
        f2 = fstar_from_poly(p, d2)
        keep = min(d1, d2) + 1
        assert f1.entries[:keep] == f2.entries[:keep]


def test_hstar_not_stable_witness():
    # the same truncation property must fail for h*
    two = Polynomial((2,))
    h1 = hstar_from_poly(two, 1)
    h3 = hstar_from_poly(two, 3)
    assert h1.entries == (2, -2)
    assert h1.entries[:2] != h3.entries[:2]


def test_identity_check_on_random_vectors():
    # the corrected identity is an algebraic one: it holds for any vector
    rng = random.Random(2024)
    for _ in range(50):
        d = rng.randint(0, 5)
        entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                   for _ in range(d + 1)]
        assert hstar_fstar_identity_check(FStarVector(entries, d))


def test_eval_fstar():
    f = FStarVector((1, 2), 1)  # 2k - 1
    assert [eval_fstar(f, k) for k in (1, 2, 3)] == [1, 3, 5]
    assert eval_fstar(f, Fraction(1, 2)) == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        FStarVector((1, 2, 3), 1)
    with pytest.raises(ValueError):
        HStarVector((1,), 1)
