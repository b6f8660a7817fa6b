"""JSON wire formats.

Numbers travel as strings: a rational is "p/q" with q > 0 in lowest
terms, or just "p" when the denominator is 1, so round-trips are
bit-exact.  Inputs accept plain JSON integers as well.

Each parser imports the type it builds when it runs, so loading this
module loads only `bases` and `exact`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

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


def rational_from_obj(obj) -> Fraction:
    if isinstance(obj, bool):
        raise ValueError(f"not a rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a rational: {obj!r}") from None
    raise ValueError(f"not a rational: {obj!r}")


def int_from_obj(obj) -> int:
    x = rational_from_obj(obj)
    if x.denominator != 1:
        raise ValueError(f"not an integer: {obj!r}")
    return int(x)


def _list(value, path: str, of_lists: bool = False) -> Sequence:
    """`value` if it is a JSON list (of lists, with of_lists), else a
    ValueError naming the field: "cells[0].vertices: expected a list"."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{path}: expected a list, "
                         f"got {type(value).__name__}")
    if of_lists:
        for i, item in enumerate(value):
            _list(item, f"{path}[{i}]")
    return value


def vector_to_json(v: Sequence) -> list[str]:
    return [rational_to_str(x) for x in v]


def simplex_to_json(s: Simplex) -> dict:
    return {
        "vertices": [vector_to_json(v) for v in s.vertices],
        "openness": "open" if s.is_open else "closed",
    }


def simplex_from_json(obj: Mapping) -> Simplex:
    return _simplex_from_json(obj, "")


def _simplex_from_json(obj: Mapping, path: str) -> Simplex:
    # path prefixes the field names in error messages, e.g. "cells[0]."
    from .simplices import Simplex
    openness = obj.get("openness", "closed")
    if openness not in ("open", "closed"):
        raise ValueError('openness must be "open" or "closed"')
    vertices = tuple(tuple(rational_from_obj(x) for x in v)
                     for v in _list(obj["vertices"], f"{path}vertices", True))
    return Simplex(vertices, is_open=(openness == "open"))


def complex_from_json(obj: Mapping) -> OpenComplex:
    from .simplices import OpenComplex, open_faces
    if "cells" in obj:
        cells = tuple(_simplex_from_json(c, f"cells[{i}].")
                      for i, c in enumerate(_list(obj["cells"], "cells")))
        if any(not cell.is_open for cell in cells):
            raise ValueError("complex cells must be open")
        return OpenComplex(cells)
    if "facets" in obj:
        coords = {key: tuple(rational_from_obj(x)
                             for x in _list(v, f"coords.{key}"))
                  for key, v in obj["coords"].items()}
        facets = [[str(i) for i in facet]
                  for facet in _list(obj["facets"], "facets", True)]
        remove = [[str(i) for i in facet]
                  for facet in _list(obj.get("remove", []), "remove", True)]
        return open_faces(facets, coords, remove)
    raise ValueError('complex JSON needs "cells" or "facets"')


def generators_from_json(obj: Mapping) -> ConeBasis:
    from .cones import ConeBasis
    return ConeBasis([[int_from_obj(x) for x in g]
                      for g in _list(obj["generators"], "generators", True)])


def generators_to_json(basis: ConeBasis) -> dict:
    return {"generators": [[str(x) for x in g] for g in basis.generators]}


def atomic_points_to_json(points: Sequence[AtomicPoint]) -> list[dict]:
    return [{
        "point": [str(x) for x in a.point],
        "lambda": vector_to_json(a.coefficients.lambdas),
        "level": a.level,
    } for a in points]


def fstar_to_json(f: FStarVector) -> dict:
    return {"fstar": vector_to_json(f.entries),
            "ambient_degree": f.ambient_degree}


def fstar_from_json(obj: Mapping) -> FStarVector:
    entries = tuple(rational_from_obj(x) for x in obj["fstar"])
    return FStarVector(entries, int(obj["ambient_degree"]))


def hstar_to_json(h: HStarVector) -> dict:
    return {"hstar": vector_to_json(h.entries),
            "ambient_degree": h.ambient_degree}


def hstar_from_json(obj: Mapping) -> HStarVector:
    entries = tuple(rational_from_obj(x) for x in obj["hstar"])
    return HStarVector(entries, int(obj["ambient_degree"]))


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
    period = int(obj["period"])
    degree = int(obj["ambient_degree"])
    vectors: list = [None] * period
    for residue in obj["residues"]:
        l = int(residue["heights_mod"]) - 1
        entries = tuple(rational_from_obj(x) for x in residue["fstar"])
        vectors[l] = FStarVector(entries, degree)
    if any(v is None for v in vectors):
        raise ValueError("missing residue class")
    return EhrhartQuasiPolynomial(period, degree, tuple(vectors))


def hypergraph_from_json(obj: Mapping) -> Hypergraph:
    from .coloring import Hypergraph
    return Hypergraph(int(obj["vertices"]),
                      tuple(frozenset(int(v) for v in e)
                            for e in _list(obj["edges"], "edges", True)))


def hypergraph_to_json(graph: Hypergraph) -> dict:
    return {"vertices": graph.vertex_count,
            "edges": [sorted(e) for e in graph.edges]}


def partition_report_to_json(report: PartitionReport) -> dict:
    return {
        "passed": report.passed,
        "max_level": report.max_level,
        "points_checked": report.points_checked,
        "atomic_count": report.atomic_count,
        "violations": [{"point": [str(x) for x in point], "covered": count}
                       for point, count in report.violations],
    }
