import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fstarcount
from fstarcount import cli

SRC = str(Path(fstarcount.__file__).resolve().parent.parent)

OPEN_STD2 = {
    "vertices": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "openness": "open",
}
CLOSED_SEGMENT2 = {"vertices": [["0"], ["2"]], "openness": "closed"}
HALF_SEGMENT = {"vertices": [["0"], ["1/2"]], "openness": "open"}
TRIPLE_EDGE_HYPERGRAPH = {
    "vertices": 10,
    "edges": [[1, 2, 3, 4, 5, 6], [4, 5, 6, 7, 8, 9], [1, 2, 3, 7, 8, 9]],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_count(tmp_path, capsys):
    path = write(tmp_path, "s.json", OPEN_STD2)
    code, out = run_json(capsys, ["count", "--simplex", path, "--dilate", "3"])
    assert code == 0 and out == {"count": "1"}


def test_fstar_default_atomic(tmp_path, capsys):
    path = write(tmp_path, "s.json", OPEN_STD2)
    code, out = run_json(capsys, ["fstar", "--simplex", path])
    assert code == 0
    assert out["fstar"] == ["0", "0", "1"]
    assert out["ambient_degree"] == 2
    assert out["method"] == "atomic"


def test_fstar_interpolate_matches(tmp_path, capsys):
    path = write(tmp_path, "s.json", OPEN_STD2)
    _, atomic = run_json(capsys, ["fstar", "--simplex", path])
    _, interp = run_json(capsys, ["fstar", "--simplex", path,
                                  "--method", "interpolate"])
    assert atomic["fstar"] == interp["fstar"]


def test_hstar(tmp_path, capsys):
    path = write(tmp_path, "s.json", CLOSED_SEGMENT2)
    code, out = run_json(capsys, ["hstar", "--simplex", path])
    assert code == 0 and out["hstar"] == ["1", "1"]


def test_atomic(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"generators": [["0", "1"], ["2", "1"]]})
    code, out = run_json(capsys, ["atomic", "--generators", path])
    assert code == 0 and isinstance(out, list) and len(out) == 3
    assert out[0] == {"point": ["1", "1"], "lambda": ["1/2", "1/2"],
                      "level": 1, "height": 1}


def test_verify_partition_pass(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"generators": [["0", "1"], ["2", "1"]]})
    code, out = run_json(capsys, ["verify-partition", "--generators", path,
                                  "--max-level", "5"])
    assert code == 0
    assert out["passed"] is True and out["violations"] == []


def test_complex_fstar(tmp_path, capsys):
    payload = {
        "facets": [[0, 1, 2]],
        "coords": {"0": ["1", "0", "0"], "1": ["0", "1", "0"],
                   "2": ["0", "0", "1"]},
    }
    path = write(tmp_path, "c.json", payload)
    code, out = run_json(capsys, ["complex-fstar", "--complex", path])
    assert code == 0 and out["fstar"] == ["3", "3", "1"]


@pytest.mark.parametrize("level", ["0", "-3"])
def test_verify_partition_rejects_nonpositive_level(tmp_path, capsys, level):
    # no point of the open cone has level <= 0, so the check would pass
    # without looking at anything
    path = write(tmp_path, "g.json", {"generators": [["0", "1"], ["2", "1"]]})
    code = cli.run(["verify-partition", "--generators", path,
                    "--max-level", level])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: max level must be positive\n"


def test_rational_fstar(tmp_path, capsys):
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    code, out = run_json(capsys, ["rational-fstar", "--simplex", path,
                                  "--period", "2"])
    assert code == 0
    assert out["residues"] == [
        {"heights_mod": 1, "fstar": ["0", "1"]},
        {"heights_mod": 2, "fstar": ["0", "1"]},
    ]


def test_quasi_eval(tmp_path, capsys):
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    code, out = run_json(capsys, ["quasi-eval", "--simplex", path,
                                  "--period", "2", "--height", "5"])
    assert code == 0 and out == {"count": "2"}


def test_partition_count(tmp_path, capsys):
    code, out = run_json(capsys, ["partition-count", "--weights", "1,2",
                                  "--target", "4"])
    assert code == 0 and out == {"count": "3"}


@pytest.mark.parametrize("argv", [
    ["partition-count", "--weights", "1", "--target", "10000000000"],
    ["profile-count", "--simplex", None, "--dilate", "10000000000"],
], ids=["partition-count", "profile-count"])
def test_huge_partition_target_is_one_error_line(tmp_path, capsys, argv):
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    code = cli.run([path if a is None else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: partition target must be at most 1000000\n"


def test_profile_count(tmp_path, capsys):
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    code, out = run_json(capsys, ["profile-count", "--simplex", path,
                                  "--dilate", "7"])
    assert code == 0
    assert out["count"] == "3"
    assert out["vertex_heights"] == [1, 2]
    assert out["profile"] == [{"level": 2, "height": 3, "count": 1}]


def test_coloring_complex(tmp_path, capsys):
    path = write(tmp_path, "h.json", TRIPLE_EDGE_HYPERGRAPH)
    code, out = run_json(capsys, ["coloring-complex", "--hypergraph", path])
    assert code == 0
    assert out["hstar"] == ["-4", "102", "168", "94"]
    assert out["fstar"] == ["86", "450", "720", "360"]
    assert out["f"] == ["86", "450", "720", "360"]
    assert out["dimension"] == 3


def test_empty_coloring_complex(tmp_path, capsys):
    # the only edge's improper vectors are all-zero and all-one
    path = write(tmp_path, "h.json", {"vertices": 2, "edges": [[1, 2]]})
    code = cli.run(["coloring-complex", "--hypergraph", path])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == ('{"dimension":0,"f":[],"fstar":["0"],'
                            '"hstar":["0"]}\n')


def _calls(monkeypatch, module, name):
    """Count the calls of module.name from here on."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_coloring_complex_enumerates_once(tmp_path, capsys, monkeypatch):
    from fstarcount import coloring
    calls = _calls(monkeypatch, coloring, "coloring_complex_faces")
    path = write(tmp_path, "h.json", TRIPLE_EDGE_HYPERGRAPH)
    assert cli.run(["coloring-complex", "--hypergraph", path]) == 0
    assert len(calls) == 1


def test_profile_count_walks_once(tmp_path, capsys, monkeypatch):
    from fstarcount import rational
    calls = _calls(monkeypatch, rational, "enumerate_atomic")
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    assert cli.run(["profile-count", "--simplex", path, "--dilate", "7"]) == 0
    assert len(calls) == 1


def test_is_unimodular_walks_no_atomic_points(monkeypatch):
    from fstarcount import simplices
    calls = _calls(monkeypatch, simplices, "enumerate_atomic")
    cell = simplices.Simplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)], True)
    assert simplices.is_unimodular(cell)
    assert not simplices.is_unimodular(simplices.Simplex([(0,), (2,)]))
    assert calls == []


def test_outputs_deterministic(tmp_path, capsys):
    path = write(tmp_path, "s.json", OPEN_STD2)
    cli.run(["fstar", "--simplex", path])
    first = capsys.readouterr().out
    cli.run(["fstar", "--simplex", path])
    second = capsys.readouterr().out
    assert first == second


def test_parallel_same_bytes(tmp_path, capsys):
    payload = {
        "facets": [[0, 1, 2]],
        "coords": {"0": ["1", "0", "0"], "1": ["0", "1", "0"],
                   "2": ["0", "0", "1"]},
    }
    path = write(tmp_path, "c.json", payload)
    cli.run(["complex-fstar", "--complex", path])
    serial = capsys.readouterr().out
    cli.run(["complex-fstar", "--complex", path, "--parallel"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_parallel_only_on_complex_fstar(tmp_path, capsys):
    path = write(tmp_path, "s.json", OPEN_STD2)
    code = cli.run(["fstar", "--simplex", path, "--parallel"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_table_format(tmp_path, capsys):
    path = write(tmp_path, "s.json", OPEN_STD2)
    code = cli.run(["fstar", "--simplex", path, "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fstar: 0 0 1" in out


def test_missing_file_is_input_error(tmp_path, capsys):
    code = cli.run(["count", "--simplex", str(tmp_path / "missing.json"),
                    "--dilate", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_usage_is_input_error(capsys):
    assert cli.run(["fstar"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_simplex_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "s.json",
                 {"vertices": [["0", "0"], ["1", "1"], ["2", "2"]],
                  "openness": "open"})
    code = cli.run(["fstar", "--simplex", path])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_round_trip_output_reparses(tmp_path, capsys):
    from fstarcount import serialize
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    _, out = run_json(capsys, ["rational-fstar", "--simplex", path,
                               "--period", "2"])
    qp = serialize.quasipolynomial_from_json(out)
    assert qp.period == 2


def test_fstar_ambient_degree_pads(tmp_path, capsys):
    path = write(tmp_path, "s.json", OPEN_STD2)
    _, out = run_json(capsys, ["fstar", "--simplex", path,
                               "--ambient-degree", "4"])
    assert out["fstar"] == ["0", "0", "1", "0", "0"]
    assert out["ambient_degree"] == 4


def test_fstar_closed_simplex_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "s.json", dict(OPEN_STD2, openness="closed"))
    assert cli.run(["fstar", "--simplex", path]) == 1
    assert "open" in capsys.readouterr().err


def test_selftest_prints_one_line_per_criterion(capsys):
    code = cli.run(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)


def test_selftest_takes_no_format(capsys):
    # selftest prints PASS/FAIL text whatever --format would say
    assert cli.run(["selftest", "--format", "table"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --format table\n"


def test_failed_verification_exits_two(tmp_path, capsys, monkeypatch):
    from fstarcount import cones
    from fstarcount.cones import PartitionReport
    monkeypatch.setattr(
        cones, "verify_partition",
        lambda basis, max_level: PartitionReport(
            passed=False, max_level=max_level, points_checked=1,
            atomic_count=0, violations=(((1, 1), 0),)))
    path = write(tmp_path, "g.json", {"generators": [["0", "1"], ["2", "1"]]})
    code, out = run_json(capsys, ["verify-partition", "--generators", path,
                                  "--max-level", "3"])
    assert code == 2
    assert out["passed"] is False
    assert out["violations"] == [{"point": ["1", "1"], "covered": 0}]


def test_atomic_table_format(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"generators": [["0", "1"], ["2", "1"]]})
    code = cli.run(["atomic", "--generators", path, "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "height" in out and "lambda" in out
    assert "1/2" in out


def _python(code, *argv):
    """Run `code` in a fresh interpreter that imports fstarcount from the
    tree under test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("command,flag,payload,detail", [
    ("atomic", "--generators", {"generators": 5},
     "generators: expected a list, got int"),
    ("complex-fstar", "--complex", {"cells": [{"vertices": 7}]},
     "cells[0].vertices: expected a list, got int"),
    ("complex-fstar", "--complex",
     {"facets": [[0, 1]], "coords": {"0": [0]}},
     "facets[0][1]: no coords for vertex '1'"),
    ("fstar", "--simplex", [[0], [1]], "expected a JSON object, got list"),
    ("complex-fstar", "--complex", {"facets": [[0]], "coords": [[0]]},
     "coords: expected an object, got list"),
    ("fstar", "--simplex", {"vertices": 7},
     "vertices: expected a list, got int"),
    ("fstar", "--simplex", {"vertices": [[0], 1]},
     "vertices[1]: expected a list, got int"),
    ("coloring-complex", "--hypergraph", {"vertices": 3, "edges": [5]},
     "edges[0]: expected a list, got int"),
    ("atomic", "--generators", {"generators": [[1, 0], 2]},
     "generators[1]: expected a list, got int"),
    ("complex-fstar", "--complex", {"facets": [0], "coords": {}},
     "facets[0]: expected a list, got int"),
    ("complex-fstar", "--complex", {"cells": [5]},
     "cells[0]: expected an object, got int"),
    ("coloring-complex", "--hypergraph", {"vertices": [1, 2], "edges": []},
     "vertices: not an integer: [1, 2]"),
    ("fstar", "--simplex", {"vertices": [["x"]]},
     "vertices[0][0]: not a rational: 'x'"),
    ("complex-fstar", "--complex", {"cells": [{}]},
     "cells[0].vertices: missing"),
    ("fstar", "--simplex", "[" * 100_000 + "]" * 100_000,
     "invalid JSON: maximum recursion depth exceeded while decoding a "
     "JSON array from a unicode string"),
    ("fstar", "--simplex", '{"vertices": [[' + "7" * 5000 + "]]}",
     "invalid JSON: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
     "to increase the limit"),
    ("fstar", "--simplex", {"vertices": [["1e10000000"]]},
     "vertices[0][0]: not a rational: '1e10000000'"),
    ("fstar", "--simplex", {"vertices": [["7" * 4400]]},
     "vertices[0][0]: not a rational: '" + "7" * 39 + "..."),
    ("coloring-complex", "--hypergraph", {"vertices": "x" * 300, "edges": []},
     "vertices: not an integer: '" + "x" * 39 + "..."),
    ("coloring-complex", "--hypergraph", {"vertices": 9, "edges": [[1, 2]]},
     "coloring complex too large: more than 100000 chain faces summed "
     "over the edges"),
    ("complex-fstar", "--complex",
     {"facets": [list(range(16))], "coords": {str(i): [i] for i in range(16)}},
     "facets[0]: too many vertices for the ambient dimension"),
    ("complex-fstar", "--complex",
     {"facets": [list(range(14))],
      "coords": {str(i): [int(i == j) for j in range(13)] for i in range(14)}},
     "complex too large: more than 10000 faces summed over the facets and "
     "removed facets"),
], ids=["generators-not-a-list", "cell-vertices-not-a-list",
        "facet-vertex-without-coords", "simplex-not-an-object",
        "coords-not-an-object", "vertices-not-a-list",
        "vertex-not-a-list", "edge-not-a-list", "generator-not-a-list",
        "facet-not-a-list", "cell-not-an-object",
        "hypergraph-vertices-a-list", "vertex-entry-not-a-rational",
        "cell-vertices-missing", "deeply-nested-array", "integer-too-long",
        "exponent-coordinate", "coordinate-too-long",
        "vertex-count-too-long", "hypergraph-too-large",
        "facet-beyond-dimension", "facets-too-many-faces"])
def test_malformed_input_is_one_error_line(tmp_path, command, flag,
                                           payload, detail):
    # a str payload is the file's text, for documents json.dumps refuses
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    path = str(path)
    proc = _python("from fstarcount.cli import main; main()",
                   command, flag, path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path}: {detail}\n"


def _lift_atomic_heights(monkeypatch):
    """Make rational's atomic walk return every point 100 higher."""
    from fstarcount import rational
    from fstarcount.cones import AtomicPoint
    original = rational.enumerate_atomic

    def lifted(basis):
        return [AtomicPoint(p.point[:-1] + (p.point[-1] + 100,),
                            p.scaled, p.denom)
                for p in original(basis)]

    monkeypatch.setattr(rational, "enumerate_atomic", lifted)


def test_broken_invariant_exits_two(tmp_path, capsys, monkeypatch):
    # atomic points whose heights are shifted past their level's residue
    # classes trip residue_fstar's invariant check
    _lift_atomic_heights(monkeypatch)
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    code = cli.run(["rational-fstar", "--simplex", path, "--period", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: invariant failed: atomic height "
                            "outside its level's residues\n")


def test_profile_invariant_exits_two(tmp_path, capsys, monkeypatch):
    # the same points pass the generators * max height bound that
    # mixed_profile checks
    _lift_atomic_heights(monkeypatch)
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    code = cli.run(["profile-count", "--simplex", path, "--dilate", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: invariant failed: atomic height above "
                            "generators * max height\n")


def test_rational_fstar_period_must_be_positive(tmp_path, capsys):
    path = write(tmp_path, "s.json", HALF_SEGMENT)
    code = cli.run(["rational-fstar", "--simplex", path, "--period", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: period must be positive\n"


MODULES_LOADED = """
import contextlib, io, json, sys
from fstarcount import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "concurrent.futures"
                               or m.split(".")[0] == "fstarcount")]))
"""

_CORE = ["fstarcount", "fstarcount.bases", "fstarcount.cli",
         "fstarcount.exact", "fstarcount.serialize"]
_SIMPLICES = ["fstarcount.cones", "fstarcount.simplices"]


@pytest.mark.parametrize("argv,payload,loaded", [
    (["coloring-complex", "--hypergraph"], TRIPLE_EDGE_HYPERGRAPH,
     _CORE + ["fstarcount.coloring"]),
    (["count", "--dilate", "3", "--simplex"], OPEN_STD2, _CORE + _SIMPLICES),
    (["fstar", "--simplex"], OPEN_STD2, _CORE + _SIMPLICES),
    (["rational-fstar", "--period", "2", "--simplex"], HALF_SEGMENT,
     _CORE + _SIMPLICES + ["fstarcount.rational"]),
], ids=["coloring-complex", "count", "fstar", "rational-fstar"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, payload, loaded):
    path = write(tmp_path, "input.json", payload)
    proc = _python(MODULES_LOADED, *argv, path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, sorted(loaded)]
