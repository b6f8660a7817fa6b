"""Executable acceptance suite.

Each criterion function returns a one-line summary string and raises
AssertionError on any mismatch; run_all prints one PASS/FAIL line per
criterion.  Everything is exact, so every comparison is equality.
Randomized corpora use fixed seeds and are reproduced identically on
every run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import tempfile
import time
from fractions import Fraction
from math import lcm

from .bases import (fstar_from_poly, hstar_from_poly,
                    hstar_fstar_identity_check, poly_from_fstar,
                    poly_from_hstar)
from .coloring import Hypergraph, coloring_complex_fvector, \
    coloring_complex_hstar
from .cones import (ConeBasis, coefficients_of, enumerate_atomic,
                    verify_partition)
from .exact import Polynomial, gen_binomial
from .rational import (count_via_profile, mixed_profile, quasi_eval,
                       residue_fstar, restricted_partition)
from .simplices import (Simplex, count_points, count_points_complex,
                        fstar_complex, fstar_interpolate, fstar_simplex,
                        homogenize, hstar_simplex, open_faces)

TRIPLE_EDGE_HYPERGRAPH = {
    "vertices": 10,
    "edges": [[1, 2, 3, 4, 5, 6], [4, 5, 6, 7, 8, 9], [1, 2, 3, 7, 8, 9]],
}


def _check(ok: bool, detail) -> None:
    """Raise AssertionError(detail) unless ok.  Unlike a bare assert,
    this check also runs under python -O."""
    if not ok:
        raise AssertionError(detail)


def _random_cone(rng: random.Random) -> ConeBasis:
    while True:
        d = rng.choice((1, 2, 3))
        gens = [tuple(rng.randint(-4, 4) for _ in range(d))
                for _ in range(d)]
        try:
            return ConeBasis(gens)
        except ValueError:
            continue


def _random_open_simplex(rng: random.Random) -> Simplex:
    while True:
        d = rng.choice((1, 2, 3))
        verts = [tuple(rng.randint(-3, 3) for _ in range(d))
                 for _ in range(d + 1)]
        try:
            return Simplex(verts, is_open=True)
        except ValueError:
            continue


def integral_corpus() -> list[Simplex]:
    """50 random integral open simplices, dims 1..3, coordinates in
    [-3, 3]; the corpus shared by several criteria."""
    rng = random.Random(52901)
    return [_random_open_simplex(rng) for _ in range(50)]


def rational_corpus() -> list[Simplex]:
    """Open rational simplices, dims 1-2, denominators <= 3."""
    F = Fraction
    vertex_sets = [
        [(0,), (F(1, 2),)],
        [(F(1, 3),), (F(2, 3),)],
        [(F(-1, 2),), (F(3, 2),)],
        [(F(-2, 3),), (F(3, 2),)],
        [(0,), (F(2, 3),)],
        [(3,), (F(-3, 2),)],
        [(0, 0), (F(1, 2), 0), (0, F(1, 2))],
        [(F(1, 3), F(1, 3)), (F(4, 3), F(1, 3)), (F(1, 3), F(4, 3))],
        [(F(-1, 2), F(1, 3)), (F(1, 2), F(2, 3)), (0, F(3, 2))],
        [(0, 0), (1, F(1, 2)), (F(2, 3), F(5, 3))],
        [(-1, -1), (F(1, 2), F(1, 3)), (F(2, 3), -1)],
    ]
    return [Simplex(v, is_open=True) for v in vertex_sets]


def _simplex_period(simplex: Simplex) -> int:
    return lcm(*(x.denominator for v in simplex.vertices for x in v), 1)


def _standard_simplex(d: int, open_: bool = False) -> Simplex:
    verts = [tuple(1 if c == j else 0 for c in range(d + 1))
             for j in range(d + 1)]
    return Simplex(verts, is_open=open_)


def _half_open_standard_complex(d: int, i: int):
    ids = list(range(d + 1))
    coords = {j: tuple(1 if c == j else 0 for c in range(d + 1)) for j in ids}
    remove = [[x for x in ids if x != j] for j in range(i)]
    remove = [facet for facet in remove if facet]
    return open_faces([ids], coords, remove)


def criterion_1() -> str:
    """Coloring complex of the 10-vertex, 3-edge hypergraph via the CLI."""
    from . import cli
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hypergraph.json")
        with open(path, "w") as handle:
            json.dump(TRIPLE_EDGE_HYPERGRAPH, handle)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(["coloring-complex", "--hypergraph", path])
    _check(code == 0, f"exit code {code}")
    payload = json.loads(buffer.getvalue())
    _check(payload["hstar"] == ["-4", "102", "168", "94"], payload)
    _check(payload["fstar"] == ["86", "450", "720", "360"], payload)
    _check(all(int(x) >= 0 for x in payload["fstar"]), payload)
    return "h*=(-4,102,168,94), f*=(86,450,720,360) non-negative"


def criterion_2() -> str:
    """Per-sphere and two-point pieces of the coloring computation."""
    single = Hypergraph(10, (frozenset(range(1, 7)),))
    f = coloring_complex_fvector(single)
    _check(f == (30, 150, 240, 120), f)
    _, hstar = coloring_complex_hstar(single)
    _check(hstar.entries == (0, 30, 60, 30), hstar)
    two_point = Hypergraph(3, (frozenset({1, 2}),))
    f2 = coloring_complex_fvector(two_point)
    _check(f2 == (2,), f2)
    fstar2, _ = coloring_complex_hstar(two_point)
    poly = poly_from_fstar(fstar2)
    _check(poly == Polynomial((2,)), poly)
    h3 = hstar_from_poly(poly, 3)
    _check(h3.entries == (2, -6, 6, -2), h3)
    return "sphere f=(30,150,240,120), h*=(0,30,60,30); 2 points: (2,-6,6,-2)"


def criterion_3() -> str:
    """Counts of standard simplices with i open facets, d <= 4."""
    start = time.time()
    checks = 0
    for d in range(0, 5):
        for i in range(0, d + 2):
            piece = _half_open_standard_complex(d, i)
            for k in range(1, 9):
                got = count_points_complex(piece, k)
                want = gen_binomial(k + d - i, d)
                _check(got == want, (d, i, k, got, want))
                checks += 1
    return f"{checks} count identities ({time.time() - start:.1f}s)"


def criterion_4() -> str:
    """Discrete-cone partition verified on random and homogenized cones."""
    start = time.time()
    rng = random.Random(70114)
    bases = [_random_cone(rng) for _ in range(100)]
    bases += [homogenize(_standard_simplex(d), 1) for d in range(0, 5)]
    bases += [homogenize(s, 1) for s in integral_corpus()]
    # A partition check sees only the points its scan yields, so count
    # them again on a few small cones (two through the span path) with a
    # plain product over the bounding box of conv(0, 2 v_1, ..., 2 v_d).
    for basis in bases[:8] + bases[100:102]:
        box = [range(2 * min(0, *col), 2 * max(0, *col) + 1)
               for col in zip(*basis.generators)]
        found = (coefficients_of(basis, z) for z in itertools.product(*box))
        want = sum(1 for c in found if c is not None and c.level <= 2)
        got = verify_partition(basis, 2).points_checked
        _check(got == want, (basis, got, want))
    points = 0
    for basis in bases:
        report = verify_partition(basis, basis.dim + 2)
        _check(report.passed, (basis, report.violations[:3]))
        points += report.points_checked
    return (f"{len(bases)} cones, {points} covered points "
            f"({time.time() - start:.1f}s)")


def criterion_5() -> str:
    """Atomic-count f* equals interpolated f*."""
    corpus = integral_corpus()
    for simplex in corpus:
        left = fstar_simplex(simplex)
        right = fstar_interpolate(simplex)
        _check(left == right, (simplex, left, right))
    segment = Simplex([(0,), (2,)], is_open=True)
    _check(fstar_simplex(segment).entries == (1, 2), segment)
    for d in (1, 2, 3):
        entries = fstar_simplex(_standard_simplex(d, open_=True)).entries
        _check(entries == (0,) * d + (1,), entries)
    return f"two routes agree on {len(corpus)} simplices + worked examples"


def criterion_6() -> str:
    """Parallelepiped h* equals the basis-converted h*; all entries >= 0."""
    corpus = [s.as_closed() for s in integral_corpus()]
    for simplex in corpus:
        direct = hstar_simplex(simplex)
        ids = list(range(simplex.dim + 1))
        coords = {j: simplex.vertices[j] for j in ids}
        faces = open_faces([ids], coords)
        converted = hstar_from_poly(
            poly_from_fstar(fstar_complex(faces)), simplex.dim)
        _check(direct.entries == converted.entries,
               (simplex, direct, converted))
        _check(all(e >= 0 for e in direct.entries), (simplex, direct))
    return f"two h* routes agree and are non-negative on {len(corpus)} simplices"


def criterion_7() -> str:
    """Residue-class f* of rational simplices matches brute force."""
    half = Simplex([(0,), (Fraction(1, 2),)], is_open=True)
    qp = residue_fstar(half, 2)
    _check([f.entries for f in qp.residue_fstar] == [(0, 1), (0, 1)], qp)
    for h in range(1, 21):
        _check(quasi_eval(qp, h) == count_points(half, h), h)
    checks = 0
    for simplex in rational_corpus():
        m = _simplex_period(simplex)
        qp = residue_fstar(simplex, m)
        for f in qp.residue_fstar:
            _check(f.is_nonnegative_integral(), (simplex, f))
        for h in range(1, 4 * m * (simplex.dim + 1) + 1):
            _check(quasi_eval(qp, h) == count_points(simplex, h), (simplex, h))
            checks += 1
    return f"residues (0,1),(0,1) for (0,1/2); {checks} corpus evaluations"


def criterion_8() -> str:
    """Mixed-height profile counting and restricted partition values."""
    half = Simplex([(0,), (Fraction(1, 2),)], is_open=True)
    counts, heights = mixed_profile(half)
    _check(heights == (1, 2) and counts == {(1, 3): 1}, counts)
    for k in range(1, 21):
        _check(count_via_profile(half, k) == count_points(half, k), k)
    for simplex in rational_corpus():
        for k in range(1, 21):
            got = count_via_profile(simplex, k)
            want = count_points(simplex, k)
            _check(got == want, (simplex, k, got, want))
    _check(restricted_partition((1, 2), 4) == 3, ((1, 2), 4))
    for weights in ((1,), (2,), (3, 5), (2, 2), (7, 11, 13)):
        _check(restricted_partition(weights, 0) == 1, weights)
    _check(restricted_partition((2, 2), 3) == 0, ((2, 2), 3))
    return "profile c_{1,3}=1 for (0,1/2); counts match brute force"


def criterion_9() -> str:
    """Basis conversions: round trips, f*-stability, h*-instability."""
    rng = random.Random(90412)
    for _ in range(200):
        degree = rng.randint(0, 6)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(degree + 1)]
        p = Polynomial(coeffs)
        d = max(p.degree, 0) + rng.randint(0, 2)
        f = fstar_from_poly(p, d)
        _check(poly_from_fstar(f) == p, (p, d))
        _check(fstar_from_poly(poly_from_fstar(f), d) == f, (p, d))
        h = hstar_from_poly(p, d)
        _check(poly_from_hstar(h) == p, (p, d))
        d2 = max(p.degree, 0) + rng.randint(0, 2)
        f2 = fstar_from_poly(p, d2)
        keep = min(d, d2) + 1
        _check(f.entries[:keep] == f2.entries[:keep], (p, d, d2))
    two = Polynomial((2,))
    h1, h3 = hstar_from_poly(two, 1), hstar_from_poly(two, 3)
    _check(h1.entries[:2] != h3.entries[:2], "h* unexpectedly stable")
    produced = [
        fstar_simplex(_standard_simplex(2, open_=True)),
        fstar_simplex(Simplex([(0,), (2,)], is_open=True)),
        fstar_complex(_half_open_standard_complex(2, 0)),
        coloring_complex_hstar(Hypergraph(10, (frozenset(range(1, 7)),)))[0],
    ]
    produced += [fstar_interpolate(s) for s in integral_corpus()[:10]]
    produced += [f for s in rational_corpus()[:4]
                 for f in residue_fstar(s, _simplex_period(s)).residue_fstar]
    for f in produced:
        _check(hstar_fstar_identity_check(f), f)
    return f"200 round trips; identity holds on {len(produced)} system vectors"


def criterion_10() -> str:
    """Atomic level profiles are invariant under generator permutations."""
    rng = random.Random(34017)
    for _ in range(20):
        basis = _random_cone(rng)
        profile = sorted(a.level for a in enumerate_atomic(basis))
        for _ in range(5):
            order = list(range(basis.dim))
            rng.shuffle(order)
            permuted = ConeBasis([basis.generators[i] for i in order])
            shuffled = sorted(a.level for a in enumerate_atomic(permuted))
            _check(shuffled == profile, (basis, order))
    return "level profiles stable over 20 cones x 5 permutations"


CRITERIA = (
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
    (7, criterion_7),
    (8, criterion_8),
    (9, criterion_9),
    (10, criterion_10),
)


def run_all(stream=None) -> bool:
    """Run every criterion, printing one PASS/FAIL line per criterion."""
    ok = True
    for number, func in CRITERIA:
        start = time.time()
        try:
            detail = func()
            status = "PASS"
        except AssertionError as exc:
            detail = f"{exc!r}"
            status = "FAIL"
            ok = False
        elapsed = time.time() - start
        print(f"{status} criterion {number:2d} ({elapsed:6.2f}s): {detail}",
              file=stream)
    return ok
