"""Linear hypergraph constructions from progression-free sets.

The package builds 3-partite linear 3-uniform hypergraphs whose edges
come from translates of a solution-free set, finds the five-edge
subgraphs (three disjoint "rows" crossed by two disjoint "columns")
that obstruct girth-style properties, removes them by randomized edge
coloring, and checks the small-case classification exhaustively.
"""

from importlib import import_module

__version__ = "0.1.0"

# Where each public name lives: the one record of it, from which
# `__all__` and the CLI's lazily bound names (`wicketlab.cli`) both come.
# A module is imported on the first access to one of its names (PEP 562),
# so `import wicketlab` loads none of them.
_MODULES = {
    "CAP_BOUND_BASELINE": "bounds",
    "BoundsReport": "bounds",
    "asymptotic_exponent": "bounds",
    "cap_bound_base": "bounds",
    "concrete_exponent": "bounds",
    "dimension_exponent": "bounds",
    "gowers_long_constant": "bounds",
    "improves_cap_bound": "bounds",
    "selection_report": "bounds",
    "CensusReport": "census",
    "grid_system": "census",
    "iter_classified": "census",
    "minimal_free_example": "census",
    "run_census": "census",
    "system_has_63": "census",
    "ColorClassSelection": "coloring",
    "EdgeColoring": "coloring",
    "color_edges": "coloring",
    "Build": "construction",
    "build_eisenstein": "construction",
    "build_f3": "construction",
    "build_modular": "construction",
    "build_wickets": "construction",
    "colors_needed": "construction",
    "load_int_set_file": "construction",
    "parse_int_set_text": "construction",
    "plane_wicket_counts": "construction",
    "wicket_dependency_degree": "construction",
    "wicket_families": "construction",
    "EisensteinPoint": "eisenstein",
    "OMEGA": "eisenstein",
    "coordinate_norm": "eisenstein",
    "load_eisenstein_set_file": "eisenstein",
    "parse_eisenstein_set_text": "eisenstein",
    "region_points": "eisenstein",
    "region_scan_size": "eisenstein",
    "ring_norm": "eisenstein",
    "DEFAULT_EXHAUSTIVE_LIMIT": "eqfree",
    "EquationSpec": "eqfree",
    "SearchResult": "eqfree",
    "TRIANGLE_EXHAUSTIVE_LIMIT": "eqfree",
    "equilateral_equation": "eqfree",
    "greedy_free_set": "eqfree",
    "has_solution": "eqfree",
    "is_free": "eqfree",
    "iter_nontrivial_solutions": "eqfree",
    "max_free_exhaustive": "eqfree",
    "max_free_heuristic": "eqfree",
    "max_triangle_free": "eqfree",
    "modular_equation": "eqfree",
    "ruzsa_equation": "eqfree",
    "CapFileError": "errors",
    "CapVerificationError": "errors",
    "ColoringBudgetError": "errors",
    "DimensionMismatchError": "errors",
    "DomainTooLargeError": "errors",
    "IncompleteWicketListError": "errors",
    "MAX_DOMAIN_SIZE": "errors",
    "SetFileError": "errors",
    "WicketlabError": "errors",
    "CapSet": "gf3",
    "all_vectors": "gf3",
    "decode": "gf3",
    "encode": "gf3",
    "f3_add": "gf3",
    "f3_neg": "gf3",
    "f3_scale": "gf3",
    "find_ap3": "gf3",
    "lift_cap": "gf3",
    "load_cap_file": "gf3",
    "max_cap_exact": "gf3",
    "parse_cap_text": "gf3",
    "product_cap": "gf3",
    "string_to_vec": "gf3",
    "vec_to_string": "gf3",
    "verify_cap": "gf3",
    "write_cap_file": "gf3",
    "SixThreeWitness": "hypergraph",
    "TripartiteHypergraph": "hypergraph",
    "WicketWitness": "hypergraph",
    "find_63": "hypergraph",
    "find_wickets": "hypergraph",
    "write_hypergraph_text": "hypergraph",
}
__all__ = list(_MODULES)


def __getattr__(name: str):
    try:
        module = _MODULES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
