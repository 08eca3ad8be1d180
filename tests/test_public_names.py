"""The names ``recipegraph`` exports.

A change that adds or drops a public name edits this list on purpose and
says so in CHANGES.md.
"""

from __future__ import annotations

import types

import recipegraph

PUBLIC_NAMES = {
    # acceptability
    "AcceptTuple", "AcceptabilitySet", "accept_set", "check_acceptable", "expand_tuples",
    "is_acceptable", "load_acceptability",
    # bundle
    "WorkspaceBundle", "corpus_path", "export_dot", "load_corpus", "parse_bundle", "recipe_doc",
    "serialize_bundle",
    # compare
    "NodeBijection", "OrderMap", "equivalent", "finer_grained", "in_out_aligned", "is_subrecipe",
    "isomorphic", "more_specific",
    # compose
    "CompositionFailure", "bipartite_union", "compose", "compose_closure", "decompose",
    # core
    "Recipe", "RecipeGraph", "RoleSets", "Violation", "build_recipe", "inputs_types", "is_atomic",
    "leq", "make_recipe", "outputs_types", "recipe_graph", "roles", "typing_violations",
    "validate_recipe_graph",
    # errors
    "BudgetExceededError", "ClosureLimitError", "CycleDetectedError", "DanglingEdgeError",
    "DuplicateAliasError", "HierarchyError", "InvalidRecipeError", "KindConflictError",
    "MultipleRootsError", "NoRootError", "NoSolutionError", "NotIsomorphicError",
    "NotSubrecipeError", "RecipeError", "RewriteFailureError", "SchemaError", "UnknownNodeError",
    "UnknownReferenceError", "UnknownTypeError",
    # rewrite
    "RewriteFailure", "RewriteStep", "StructuralCostModel", "apply_sequence", "front",
    "is_parallel", "is_untrimmed_subrecipe", "search_secondary_steps", "structural_cost",
    "structural_substitute", "verify_secondary_sequence",
    # typekb
    "DistanceModel", "Hierarchies", "TypeHierarchy", "load_distances", "load_hierarchy",
    # typesubst
    "CostModel", "SubstitutionPair", "apply_substitution", "cost", "default_candidates",
    "find_secondary", "preferred_pair", "substitution_to",
}


def test_the_package_exports_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(recipegraph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
