"""recipegraph: recipes as typed bipartite graphs, with a reasoning toolkit.

The package models recipes as connected acyclic bipartite graphs over
comestible and action nodes, typed against rooted DAG hierarchies, and offers
validation, comparison relations, composition/decomposition, acceptability
checking, and cost-aware type and structural substitution planning.
"""

from .acceptability import (
    AcceptabilitySet,
    AcceptTuple,
    accept_set,
    check_acceptable,
    expand_tuples,
    is_acceptable,
    load_acceptability,
)
from .bundle import (
    WorkspaceBundle,
    corpus_path,
    export_dot,
    load_corpus,
    parse_bundle,
    recipe_doc,
    serialize_bundle,
)
from .compare import (
    NodeBijection,
    OrderMap,
    equivalent,
    finer_grained,
    in_out_aligned,
    is_subrecipe,
    isomorphic,
    more_specific,
)
from .compose import (
    CompositionFailure,
    bipartite_union,
    compose,
    compose_closure,
    decompose,
)
from .core import (
    Recipe,
    RecipeGraph,
    RoleSets,
    Violation,
    build_recipe,
    inputs_types,
    is_atomic,
    leq,
    make_recipe,
    outputs_types,
    recipe_graph,
    roles,
    typing_violations,
    validate_recipe_graph,
)
from .errors import (
    BudgetExceededError,
    ClosureLimitError,
    CycleDetectedError,
    DanglingEdgeError,
    DuplicateAliasError,
    HierarchyError,
    InvalidRecipeError,
    KindConflictError,
    MultipleRootsError,
    NoRootError,
    NoSolutionError,
    NotIsomorphicError,
    NotSubrecipeError,
    RecipeError,
    RewriteFailureError,
    SchemaError,
    UnknownNodeError,
    UnknownReferenceError,
    UnknownTypeError,
)
from .rewrite import (
    RewriteFailure,
    RewriteStep,
    StructuralCostModel,
    apply_sequence,
    front,
    is_parallel,
    is_untrimmed_subrecipe,
    search_secondary_steps,
    structural_cost,
    structural_substitute,
    verify_secondary_sequence,
)
from .typekb import (
    DistanceModel,
    Hierarchies,
    TypeHierarchy,
    load_distances,
    load_hierarchy,
)
from .typesubst import (
    CostModel,
    SubstitutionPair,
    apply_substitution,
    cost,
    default_candidates,
    find_secondary,
    preferred_pair,
    substitution_to,
)

__version__ = "0.1.0"
