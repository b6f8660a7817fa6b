"""Property tests of the JSON input boundary.

Every document the CLI parsers are handed either parses or is refused
with a ValueError; and every wire format reads back what it wrote.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fstarcount import serialize
from fstarcount.bases import FStarVector
from fstarcount.rational import EhrhartQuasiPolynomial
from fstarcount.simplices import Simplex


def derandomized(examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples)


NUMBERS = st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 9))
LEAVES = (st.none() | st.booleans() | st.integers(-4, 12) | st.integers()
          | st.floats(allow_nan=False) | NUMBERS | st.integers().map(str)
          | st.sampled_from(["open", "closed", "x", "1e5", "1.5", ""]))
JSON = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from("012"), inner,
                                     max_size=3)),
    max_leaves=10)


def objects(*keys):
    """JSON objects holding any of the keys (and "x") with any values,
    often small numbers, so that they reach the checks behind each
    absent key."""
    value = st.integers(-2, 12) | JSON
    return st.fixed_dictionaries(
        {}, optional={key: value for key in (*keys, "x")})


@pytest.mark.parametrize("parse,keys", [
    (serialize.simplex_from_json, ["vertices", "openness"]),
    (serialize.complex_from_json, ["cells", "facets", "coords", "remove"]),
    (serialize.generators_from_json, ["generators"]),
    (serialize.hypergraph_from_json, ["vertices", "edges"]),
], ids=["simplex", "complex", "generators", "hypergraph"])
def test_any_object_parses_or_raises_value_error(parse, keys):
    @derandomized(60)
    @given(obj=objects(*keys))
    def check(obj):
        try:
            parse(obj)
        except ValueError:
            pass

    check()


RATIONALS = st.fractions(max_denominator=10**6) | st.integers().map(Fraction)


@derandomized(30)
@given(x=RATIONALS)
def test_rational_round_trip(x):
    assert serialize.rational_from_obj(serialize.rational_to_str(x)) == x


@derandomized(30)
@given(ambient=st.integers(0, 3), data=st.data())
def test_simplex_round_trip(ambient, data):
    count = data.draw(st.integers(1, ambient + 1))
    vertices = data.draw(st.lists(
        st.lists(st.fractions(-8, 8, max_denominator=4),
                 min_size=ambient, max_size=ambient),
        min_size=count, max_size=count))
    try:
        simplex = Simplex(vertices, is_open=data.draw(st.booleans()))
    except ValueError:
        assume(False)  # affinely dependent vertices
    payload = serialize.simplex_to_json(simplex)
    assert serialize.simplex_from_json(payload) == simplex


def fstar_vectors(degree):
    return st.lists(RATIONALS, min_size=degree + 1, max_size=degree + 1).map(
        lambda entries: FStarVector(tuple(entries), degree))


@derandomized(30)
@given(f=st.integers(0, 5).flatmap(fstar_vectors))
def test_fstar_round_trip(f):
    assert serialize.fstar_from_json(serialize.fstar_to_json(f)) == f


@derandomized(20)
@given(period=st.integers(1, 4), degree=st.integers(0, 3), data=st.data())
def test_quasipolynomial_round_trip(period, degree, data):
    vectors = data.draw(st.lists(fstar_vectors(degree), min_size=period,
                                 max_size=period))
    qp = EhrhartQuasiPolynomial(period, degree, tuple(vectors))
    payload = serialize.quasipolynomial_to_json(qp)
    assert serialize.quasipolynomial_from_json(payload) == qp
