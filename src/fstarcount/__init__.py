"""Exact lattice-point counting for simplices and partial simplicial
complexes, through atomic-point enumeration in simplicial cones.

Every public name is exported lazily (PEP 562): importing the package
loads no submodule, and the first access of a name imports the module
that owns it and keeps the object in the package namespace.
"""

import importlib

_EXPORTS = {
    "bases": ("FStarVector", "HStarVector", "eval_fstar", "fstar_from_poly",
              "fstar_pad", "hstar_from_poly", "hstar_fstar_identity_check",
              "poly_from_fstar", "poly_from_hstar"),
    "coloring": ("Hypergraph", "coloring_complex_faces",
                 "coloring_complex_fvector", "coloring_complex_hstar",
                 "edge_chain_faces", "improper_vertex_set",
                 "realize_coloring_complex"),
    "cones": ("AtomicPoint", "CoefficientVector", "ConeBasis",
              "PartitionReport", "atomic_inductive_oracle", "coefficients_of",
              "enumerate_atomic", "is_atomic", "parallelepiped_points",
              "verify_partition"),
    "exact": ("IntVector", "Polynomial", "RatVector", "binomial_poly",
              "gen_binomial", "solve_exact"),
    "rational": ("EhrhartQuasiPolynomial", "count_via_profile",
                 "mixed_profile", "quasi_eval", "residue_fstar",
                 "restricted_partition"),
    "simplices": ("OpenComplex", "Simplex", "count_points",
                  "count_points_complex", "fstar_complex",
                  "fstar_interpolate", "fstar_simplex", "homogenize",
                  "hstar_simplex", "is_unimodular", "lattice_points",
                  "open_faces", "realize_fstar_complex", "verify_disjoint"),
}

# Public name -> owning submodule; a submodule's own name maps to itself.
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in (module, *names)}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
