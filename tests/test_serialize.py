from fractions import Fraction

import pytest

from fstarcount import serialize
from fstarcount.bases import FStarVector, HStarVector
from fstarcount.coloring import Hypergraph
from fstarcount.cones import ConeBasis, enumerate_atomic
from fstarcount.rational import residue_fstar
from fstarcount.simplices import Simplex


def test_rational_strings():
    assert serialize.rational_to_str(Fraction(3)) == "3"
    assert serialize.rational_to_str(Fraction(-1, 2)) == "-1/2"
    assert serialize.rational_from_obj("3") == 3
    assert serialize.rational_from_obj("-1/2") == Fraction(-1, 2)
    assert serialize.rational_from_obj(7) == 7
    assert serialize.rational_from_obj("2/4") == Fraction(1, 2)


def test_rational_round_trip_bit_exact():
    for value in (Fraction(0), Fraction(22, 7), Fraction(-10, 3),
                  Fraction(10 ** 30 + 1, 10 ** 20 + 7)):
        assert serialize.rational_from_obj(
            serialize.rational_to_str(value)) == value


def test_bad_rationals_rejected():
    # only a JSON integer or "p" or "p/q" of ASCII digits: "1e10000000"
    # would otherwise build a 33-million-bit integer
    for bad in ("x", "1/0", None, 1.5, True, "1e10000000", "1e3", "0.5",
                "+3", " 3", "3/", "/3", "\u0663"):
        with pytest.raises(ValueError, match="not a rational"):
            serialize.rational_from_obj(bad)
    assert serialize.int_from_obj("-12") == -12
    assert serialize.int_from_obj("4/2") == 2
    for bad in ("1/2", [1, 2], "x", "1e3"):
        with pytest.raises(ValueError, match="not an integer"):
            serialize.int_from_obj(bad)


def test_simplex_round_trip():
    simplex = Simplex([(0, Fraction(1, 2)), (1, Fraction(3, 2)), (2, 0)],
                      is_open=True)
    again = serialize.simplex_from_json(serialize.simplex_to_json(simplex))
    assert again == simplex


def test_complex_from_cells():
    payload = {"cells": [
        {"vertices": [["0"], ["1"]], "openness": "open"},
        {"vertices": [["5"]], "openness": "open"},
    ]}
    complex_ = serialize.complex_from_json(payload)
    assert len(complex_.cells) == 2
    assert complex_.cells[0].dim == 1


def test_complex_from_facets():
    payload = {
        "facets": [[0, 1, 2]],
        "coords": {"0": ["1", "0", "0"], "1": ["0", "1", "0"],
                   "2": ["0", "0", "1"]},
        "remove": [[0, 1], [1, 2], [0, 2]],
    }
    complex_ = serialize.complex_from_json(payload)
    assert len(complex_.cells) == 1 and complex_.cells[0].dim == 2


def test_generators_round_trip():
    payload = {"generators": [["0", "1"], [2, "1"]]}
    assert (serialize.generators_from_json(payload)
            == ConeBasis([(0, 1), (2, 1)]))


def test_atomic_points_schema():
    points = enumerate_atomic(ConeBasis([(0, 1), (2, 1)]))
    payload = serialize.atomic_points_to_json(points)
    assert payload[0] == {"point": ["1", "1"], "lambda": ["1/2", "1/2"],
                          "level": 1}
    assert all(isinstance(entry["level"], int) for entry in payload)


def test_vector_json_round_trip():
    f = FStarVector((Fraction(1), Fraction(-2, 3)), 1)
    assert serialize.fstar_from_json(serialize.fstar_to_json(f)) == f
    h = HStarVector((Fraction(2), Fraction(-6), Fraction(6), Fraction(-2)), 3)
    assert serialize.hstar_to_json(h) == {"hstar": ["2", "-6", "6", "-2"],
                                          "ambient_degree": 3}


def test_quasipolynomial_round_trip():
    simplex = Simplex([(0,), (Fraction(1, 2),)], is_open=True)
    qp = residue_fstar(simplex, 2)
    payload = serialize.quasipolynomial_to_json(qp)
    assert payload["residues"][0]["heights_mod"] == 1
    assert payload["residues"][1]["heights_mod"] == 2
    assert serialize.quasipolynomial_from_json(payload) == qp


def test_hypergraph_round_trip():
    payload = {"vertices": 10, "edges": [[1, 2, 3, 4, 5, 6]]}
    assert (serialize.hypergraph_from_json(payload)
            == Hypergraph(10, (frozenset(range(1, 7)),)))


def test_closed_cells_rejected():
    payload = {"cells": [{"vertices": [["0"], ["1"]], "openness": "closed"}]}
    with pytest.raises(ValueError, match="open"):
        serialize.complex_from_json(payload)


@pytest.mark.parametrize("parse,payload,message", [
    (serialize.fstar_from_json, {"fstar": ["1"], "ambient_degree": 2},
     "fstar: expected 3 entries (ambient_degree + 1), got 1"),
    (serialize.quasipolynomial_from_json,
     {"period": 1, "ambient_degree": 2,
      "residues": [{"heights_mod": 1, "fstar": ["1"]}]},
     "residues[0].fstar: expected 3 entries (ambient_degree + 1), got 1"),
], ids=["fstar", "residue-fstar"])
def test_fstar_entry_count_names_the_field(parse, payload, message):
    with pytest.raises(ValueError) as caught:
        parse(payload)
    assert str(caught.value) == message


@pytest.mark.parametrize("parse,payload", [
    (serialize.fstar_from_json, {"fstar": [], "ambient_degree": -1}),
    (serialize.quasipolynomial_from_json,
     {"period": 1, "ambient_degree": -1,
      "residues": [{"heights_mod": 1, "fstar": []}]}),
], ids=["fstar", "quasipolynomial"])
def test_negative_ambient_degree_names_the_field(parse, payload):
    with pytest.raises(ValueError) as caught:
        parse(payload)
    assert str(caught.value) == "ambient_degree: must be non-negative, got -1"
