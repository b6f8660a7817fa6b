"""The package's lazy exports (PEP 562) and the explicit invariant
checks of its modules."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fstarcount

PACKAGE = Path(fstarcount.__file__).resolve().parent

# Every public name of the package, by the module that defines it; a
# submodule is exported under its own name.
EXPORTS = {
    "bases": ["FStarVector", "HStarVector", "eval_fstar", "fstar_from_poly",
              "fstar_pad", "hstar_from_poly", "hstar_fstar_identity_check",
              "poly_from_fstar", "poly_from_hstar"],
    "coloring": ["Hypergraph", "coloring_complex_faces",
                 "coloring_complex_fvector", "coloring_complex_hstar",
                 "edge_chain_faces", "improper_vertex_set",
                 "realize_coloring_complex"],
    "cones": ["AtomicPoint", "CoefficientVector", "ConeBasis",
              "PartitionReport", "atomic_inductive_oracle", "coefficients_of",
              "enumerate_atomic", "is_atomic", "parallelepiped_points",
              "verify_partition"],
    "exact": ["IntVector", "Polynomial", "RatVector", "binomial_poly",
              "gen_binomial", "solve_exact"],
    "rational": ["EhrhartQuasiPolynomial", "count_via_profile",
                 "mixed_profile", "quasi_eval", "residue_fstar",
                 "restricted_partition"],
    "simplices": ["OpenComplex", "Simplex", "count_points",
                  "count_points_complex", "fstar_complex",
                  "fstar_interpolate", "fstar_simplex", "homogenize",
                  "hstar_simplex", "is_unimodular", "lattice_points",
                  "open_faces", "realize_fstar_complex", "verify_disjoint"],
}
OWNER = {name: module for module, names in EXPORTS.items()
         for name in [module, *names]}


def test_all_lists_every_public_name():
    assert len(OWNER) == 58
    assert sorted(fstarcount.__all__) == sorted(OWNER)
    assert set(OWNER) <= set(dir(fstarcount))


def test_each_name_resolves_to_its_owner():
    for name, owner in OWNER.items():
        module = importlib.import_module(f"fstarcount.{owner}")
        value = getattr(fstarcount, name)
        assert value is (module if name == owner
                         else module.__dict__[name]), name
        assert fstarcount.__dict__[name] is value, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fstarcount.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fstarcount import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(OWNER)
    for name, value in namespace.items():
        assert value is getattr(fstarcount, name)


def test_import_loads_no_submodule_until_first_access():
    code = """
import json, sys
import fstarcount
before = sorted(m for m in sys.modules if m.startswith("fstarcount"))
bound = sorted(set(fstarcount.__all__) & set(vars(fstarcount)))
simplex = fstarcount.Simplex
after = sorted(m for m in sys.modules if m.startswith("fstarcount"))
print(json.dumps([before, bound, "Simplex" in vars(fstarcount), after]))
"""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, bound, cached, after = json.loads(proc.stdout)
    assert before == ["fstarcount"]
    assert bound == []
    assert cached
    assert after == ["fstarcount", "fstarcount.bases", "fstarcount.cones",
                     "fstarcount.exact", "fstarcount.simplices"]


def _module_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_bare_asserts_in_the_package():
    """python -O strips assert statements, so an invariant check or an
    acceptance criterion written as one would pass vacuously."""
    found = [f"{name}:{node.lineno}" for name, tree in _module_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


ORACLE_SOLVERS = {"solve_exact", "_rref", "matrix_rank"}


def _identifiers(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


def test_fraction_solver_is_only_an_oracle():
    """The Fraction elimination in exact.py is the tests' independent
    reference; a library route that calls it would make the tests compare
    a result with itself.  (The lazy export table lists `solve_exact` as
    a string, which re-exports it without calling it.)"""
    found = [f"{name}:{node.lineno}:{ident}"
             for name, tree in _module_trees() if name != "exact.py"
             for node in ast.walk(tree)
             for ident in _identifiers(node) if ident in ORACLE_SOLVERS]
    assert found == []
