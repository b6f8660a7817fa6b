"""Command line front end.

Inputs are JSON files (see serialize); output is canonical JSON (sorted
keys, numbers as strings) on stdout, or aligned text with
--format table.  Exit codes: 0 success, 1 bad input, 2 a failed
verification, self-test or internal invariant check (so CI can tell
bad data from a broken counting invariant).

Each subcommand imports the modules it uses inside its handler, so a
call loads only those: `coloring-complex` never loads the cone or
simplex code, and only `complex-fstar --parallel` loads the process
pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional, Sequence

from . import serialize


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load(path: str, parse: Callable[[Any], Any]) -> Any:
    """Read the JSON file at `path` and build an input from it with one
    of the serialize parsers; bad input is a ValueError naming the file."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; RecursionError is deep nesting
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, "
                         f"got {type(obj).__name__}")
    try:
        return parse(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "table":
        for line in _table_lines(payload):
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _table_lines(payload: dict, indent: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_table_lines(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            columns = sorted({k for row in value for k in row})
            rows = [[_cell(row.get(c, "")) for c in columns] for row in value]
            widths = [max(len(c), *(len(r[i]) for r in rows))
                      for i, c in enumerate(columns)]
            lines.append(f"{indent}{key}:")
            lines.append(indent + "  " + "  ".join(
                c.ljust(w) for c, w in zip(columns, widths)))
            for r in rows:
                lines.append(indent + "  " + "  ".join(
                    x.ljust(w) for x, w in zip(r, widths)).rstrip())
        else:
            lines.append(f"{indent}{key}: {_cell(value)}")
    return lines


def _cell(value) -> str:
    if isinstance(value, list):
        return " ".join(_cell(v) for v in value)
    return str(value)


def _cmd_count(args) -> int:
    from .simplices import count_points
    simplex = _load(args.simplex, serialize.simplex_from_json)
    _emit({"count": str(count_points(simplex, args.dilate))}, args.format)
    return 0


def _cmd_fstar(args) -> int:
    from .simplices import fstar_interpolate, fstar_simplex
    simplex = _load(args.simplex, serialize.simplex_from_json)
    if args.method == "interpolate":
        result = fstar_interpolate(simplex, args.ambient_degree)
    else:
        result = fstar_simplex(simplex, args.ambient_degree)
    payload = serialize.fstar_to_json(result)
    payload["method"] = args.method
    _emit(payload, args.format)
    return 0


def _cmd_hstar(args) -> int:
    from .simplices import hstar_simplex
    simplex = _load(args.simplex, serialize.simplex_from_json)
    _emit(serialize.hstar_to_json(hstar_simplex(simplex)), args.format)
    return 0


def _cmd_atomic(args) -> int:
    from .cones import enumerate_atomic
    basis = _load(args.generators, serialize.generators_from_json)
    points = enumerate_atomic(basis)
    rows = [dict(entry, height=point.height)
            for entry, point in
            zip(serialize.atomic_points_to_json(points), points)]
    if args.format == "table":
        _emit({"atomic": rows}, "table")
    else:
        print(json.dumps(rows, sort_keys=True, separators=(",", ":")))
    return 0


def _cmd_verify_partition(args) -> int:
    from .cones import verify_partition
    basis = _load(args.generators, serialize.generators_from_json)
    report = verify_partition(basis, args.max_level)
    _emit(serialize.partition_report_to_json(report), args.format)
    return 0 if report.passed else 2


def _cmd_complex_fstar(args) -> int:
    from .simplices import fstar_complex
    complex_ = _load(args.complex, serialize.complex_from_json)
    degree = args.ambient_degree
    if args.parallel and len(complex_.cells) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial
        from .bases import FStarVector
        from .simplices import fstar_simplex
        if degree is None:
            degree = complex_.dim
        if degree < complex_.dim:
            raise ValueError("ambient degree too small for the complex")
        cell_fstar = partial(fstar_simplex, ambient_degree=degree)
        with ProcessPoolExecutor() as pool:
            parts = list(pool.map(cell_fstar, complex_.cells, chunksize=8))
        result = FStarVector(
            tuple(map(sum, zip(*(part.entries for part in parts)))), degree)
    else:
        result = fstar_complex(complex_, degree)
    _emit(serialize.fstar_to_json(result), args.format)
    return 0


def _cmd_rational_fstar(args) -> int:
    from .rational import residue_fstar
    simplex = _load(args.simplex, serialize.simplex_from_json)
    qp = residue_fstar(simplex, args.period)
    _emit(serialize.quasipolynomial_to_json(qp), args.format)
    return 0


def _cmd_quasi_eval(args) -> int:
    from .rational import quasi_eval, residue_fstar
    simplex = _load(args.simplex, serialize.simplex_from_json)
    qp = residue_fstar(simplex, args.period)
    _emit({"count": str(quasi_eval(qp, args.height))}, args.format)
    return 0


def _cmd_partition_count(args) -> int:
    from .rational import restricted_partition
    try:
        weights = [int(w) for w in args.weights.split(",") if w]
    except ValueError:
        raise ValueError("weights must be a comma-separated integer list")
    _emit({"count": str(restricted_partition(weights, args.target))},
          args.format)
    return 0


def _cmd_profile_count(args) -> int:
    from .rational import _profile_count, mixed_profile
    simplex = _load(args.simplex, serialize.simplex_from_json)
    counts, heights = mixed_profile(simplex)
    table = [{"level": i + 1, "height": s, "count": c}
             for (i, s), c in sorted(counts.items())]
    payload = {
        "count": str(_profile_count(counts, heights, args.dilate)),
        "profile": table,
        "vertex_heights": list(heights),
    }
    _emit(payload, args.format)
    return 0


def _cmd_coloring_complex(args) -> int:
    from .coloring import coloring_complex_hstar
    graph = _load(args.hypergraph, serialize.hypergraph_from_json)
    fstar, hstar = coloring_complex_hstar(graph)
    entries = serialize.vector_to_json(fstar.entries)
    payload = {
        # Every face is unimodular, so f* is the f-vector; only the empty
        # complex, with no vertex, has f = () next to f* = (0).
        "f": entries if fstar.entries[0] else [],
        "fstar": entries,
        "hstar": serialize.vector_to_json(hstar.entries),
        "dimension": fstar.ambient_degree,
    }
    _emit(payload, args.format)
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance
    ok = acceptance.run_all(sys.stdout)
    return 0 if ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="fstarcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **arguments):
        p = sub.add_parser(name)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.set_defaults(func=func)
        return p

    add("count", _cmd_count,
        **{"--simplex": dict(required=True),
           "--dilate": dict(type=int, required=True)})
    add("fstar", _cmd_fstar,
        **{"--simplex": dict(required=True),
           "--ambient-degree": dict(type=int, default=None),
           "--method": dict(choices=("atomic", "interpolate"),
                            default="atomic")})
    add("hstar", _cmd_hstar, **{"--simplex": dict(required=True)})
    add("atomic", _cmd_atomic, **{"--generators": dict(required=True)})
    add("verify-partition", _cmd_verify_partition,
        **{"--generators": dict(required=True),
           "--max-level": dict(type=int, required=True)})
    add("complex-fstar", _cmd_complex_fstar,
        **{"--complex": dict(required=True),
           "--ambient-degree": dict(type=int, default=None),
           "--parallel": dict(action="store_true",
                              help="sum the cells in worker processes")})
    add("rational-fstar", _cmd_rational_fstar,
        **{"--simplex": dict(required=True),
           "--period": dict(type=int, required=True)})
    add("quasi-eval", _cmd_quasi_eval,
        **{"--simplex": dict(required=True),
           "--period": dict(type=int, required=True),
           "--height": dict(type=int, required=True)})
    add("partition-count", _cmd_partition_count,
        **{"--weights": dict(required=True),
           "--target": dict(type=int, required=True)})
    add("profile-count", _cmd_profile_count,
        **{"--simplex": dict(required=True),
           "--dilate": dict(type=int, required=True)})
    add("coloring-complex", _cmd_coloring_complex,
        **{"--hypergraph": dict(required=True)})
    sub.add_parser("selftest").set_defaults(func=_cmd_selftest)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
