"""JSON wire formats.

Numbers travel as strings: a rational is "p/q" with q > 0 in lowest
terms, or just "p" when the denominator is 1, so round-trips are
bit-exact.  Inputs accept plain JSON integers as well, and strings
"p" or "p/q" of ASCII digits with an optional leading minus (q need not
be in lowest terms); decimals and exponents are refused.

Each parser imports the type it builds when it runs, so loading this
module loads only `bases` and `exact`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .bases import FStarVector, HStarVector

if TYPE_CHECKING:
    from .coloring import Hypergraph
    from .cones import AtomicPoint, ConeBasis, PartitionReport
    from .rational import EhrhartQuasiPolynomial
    from .simplices import OpenComplex, Simplex


def rational_to_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _number(obj) -> Fraction | None:
    """obj as a Fraction if it is a JSON integer or a "p" or "p/q" string
    (with a nonzero q and fewer than Python's 4300 digits), else None."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, str) and _RATIONAL.fullmatch(obj):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            return None
    return None


# Most characters of a refused value that an error message repeats.
_ECHO_CHARS = 40


def _echo(obj) -> str:
    text = repr(obj)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


def rational_from_obj(obj) -> Fraction:
    x = _number(obj)
    if x is None:
        raise ValueError(f"not a rational: {_echo(obj)}")
    return x


def int_from_obj(obj) -> int:
    x = _number(obj)
    if x is None or x.denominator != 1:
        raise ValueError(f"not an integer: {_echo(obj)}")
    return int(x)


def _typed(kind: type, noun: str, value, path: str):
    """`value` if it is of the JSON kind, else a ValueError naming the
    field: "cells[0].vertices: expected a list, got int"."""
    if not isinstance(value, kind):
        raise ValueError(f"{path}: expected {noun}, "
                         f"got {type(value).__name__}")
    return value


_list = partial(_typed, list, "a list")
_object = partial(_typed, dict, "an object")


def _entry(parse: Callable, value, path: str):
    """parse(value), with the field's path put before the message of a
    ValueError: "vertices[0][0]: not a rational: 'x'"."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _vector(value, path: str, parse: Callable = rational_from_obj) -> tuple:
    return tuple(_entry(parse, x, f"{path}[{i}]")
                 for i, x in enumerate(_list(value, path)))


def _vectors(value, path: str, parse: Callable = rational_from_obj) -> tuple:
    return tuple(_vector(v, f"{path}[{i}]", parse)
                 for i, v in enumerate(_list(value, path)))


def _nonnegative(obj) -> int:
    x = int_from_obj(obj)
    if x < 0:
        raise ValueError(f"must be non-negative, got {x}")
    return x


_integer = partial(_entry, int_from_obj)
_degree = partial(_entry, _nonnegative)
_integers = partial(_vectors, parse=int_from_obj)


def _field(obj: Mapping, key: str, read: Callable, path: str = ""):
    """read(obj[key], the field's path), such as _vectors or _integer; a
    ValueError naming the field if the key is absent: "edges: missing"."""
    if key not in obj:
        raise ValueError(f"{path}{key}: missing")
    return read(obj[key], f"{path}{key}")


def vector_to_json(v: Sequence) -> list[str]:
    return [rational_to_str(x) for x in v]


def simplex_to_json(s: Simplex) -> dict:
    return {
        "vertices": [vector_to_json(v) for v in s.vertices],
        "openness": "open" if s.is_open else "closed",
    }


def simplex_from_json(obj: Mapping, path: str = "") -> Simplex:
    # path prefixes the field names in error messages, e.g. "cells[0]."
    from .simplices import Simplex
    openness = obj.get("openness", "closed")
    if openness not in ("open", "closed"):
        raise ValueError(f'{path}openness must be "open" or "closed"')
    return Simplex(_field(obj, "vertices", _vectors, path), openness == "open")


def complex_from_json(obj: Mapping) -> OpenComplex:
    from .simplices import OpenComplex, open_faces
    if "cells" in obj:
        cells = tuple(simplex_from_json(_object(c, f"cells[{i}]"),
                                        f"cells[{i}].")
                      for i, c in enumerate(_list(obj["cells"], "cells")))
        if any(not cell.is_open for cell in cells):
            raise ValueError("complex cells must be open")
        return OpenComplex(cells)
    if "facets" in obj:
        coords = {key: _vector(v, f"coords.{key}")
                  for key, v in _field(obj, "coords", _object).items()}

        def vertex(key) -> str:
            key = str(key)
            if key not in coords:
                raise ValueError(f"no coords for vertex {key!r}")
            return key

        facets = _field(obj, "facets", partial(_vectors, parse=vertex))
        remove = _vectors(obj.get("remove", []), "remove", str)
        return open_faces(facets, coords, remove)
    raise ValueError('complex JSON needs "cells" or "facets"')


def generators_from_json(obj: Mapping) -> ConeBasis:
    from .cones import ConeBasis
    return ConeBasis(_field(obj, "generators", _integers))


def atomic_points_to_json(points: Sequence[AtomicPoint]) -> list[dict]:
    return [{
        "point": [str(x) for x in a.point],
        "lambda": [rational_to_str(Fraction(t, a.denom)) for t in a.scaled],
        "level": a.level,
    } for a in points]


def fstar_to_json(f: FStarVector) -> dict:
    return {"fstar": vector_to_json(f.entries),
            "ambient_degree": f.ambient_degree}


def _fstar(entries: tuple, degree: int, path: str) -> FStarVector:
    if len(entries) != degree + 1:
        raise ValueError(f"{path}: expected {degree + 1} entries "
                         f"(ambient_degree + 1), got {len(entries)}")
    return FStarVector(entries, degree)


def fstar_from_json(obj: Mapping) -> FStarVector:
    return _fstar(_field(obj, "fstar", _vector),
                  _field(obj, "ambient_degree", _degree), "fstar")


def hstar_to_json(h: HStarVector) -> dict:
    return {"hstar": vector_to_json(h.entries),
            "ambient_degree": h.ambient_degree}


def quasipolynomial_to_json(qp: EhrhartQuasiPolynomial) -> dict:
    return {
        "period": qp.period,
        "ambient_degree": qp.ambient_degree,
        "residues": [
            # heights_mod makes the anchoring explicit on the wire: the
            # vector at index l covers heights congruent to l+1 mod m.
            {"heights_mod": l + 1, "fstar": vector_to_json(f.entries)}
            for l, f in enumerate(qp.residue_fstar)
        ],
    }


def quasipolynomial_from_json(obj: Mapping) -> EhrhartQuasiPolynomial:
    from .rational import EhrhartQuasiPolynomial
    period = _field(obj, "period", _integer)
    degree = _field(obj, "ambient_degree", _degree)
    fstar = {}
    for i, residue in enumerate(_field(obj, "residues", _list)):
        path = f"residues[{i}]."
        l = _field(_object(residue, path[:-1]), "heights_mod", _integer, path)
        fstar[l] = _fstar(_field(residue, "fstar", _vector, path), degree,
                          f"{path}fstar")
    if sorted(fstar) != list(range(1, len(fstar) + 1)):
        raise ValueError("residues: missing residue class")
    return EhrhartQuasiPolynomial(
        period, degree, tuple(v for _, v in sorted(fstar.items())))


def hypergraph_from_json(obj: Mapping) -> Hypergraph:
    from .coloring import Hypergraph
    return Hypergraph(_field(obj, "vertices", _integer),
                      _field(obj, "edges", _integers))


def partition_report_to_json(report: PartitionReport) -> dict:
    return {
        "passed": report.passed,
        "max_level": report.max_level,
        "points_checked": report.points_checked,
        "atomic_count": report.atomic_count,
        "violations": [{"point": [str(x) for x in point], "covered": count}
                       for point, count in report.violations],
    }
