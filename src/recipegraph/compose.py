"""Bipartite union, recipe composition, closure, and decomposition.

Composition glues two recipes where outputs of the first feed inputs of the
second, subject to six conditions:

  1. some output of the first is an input of the second;
  2. their intermediate comestibles are disjoint;
  3. their action nodes are disjoint;
  4. no output of the second is an input of the first;
  5. the typings agree on the shared output/input nodes;
  6. apart from that glue, no comestible type of the first (except its
     outputs) is comparable to one of the second (except its inputs).

A failed composition is a value (CompositionFailure), not an exception: it is
a well-formed negative answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    OperationFailure,
    Recipe,
    RecipeGraph,
    Violation,
    assemble,
    make_recipe,
    recipe_graph,
    roles,
)
from .errors import ClosureLimitError, KindConflictError, RecipeError
from .typekb import Hierarchies


@dataclass(frozen=True)
class CompositionFailure(OperationFailure):
    """Evidence for every violated composition condition. Falsy on purpose."""

    operation = "composition"


def bipartite_union(g1: RecipeGraph, g2: RecipeGraph) -> RecipeGraph:
    """Component-wise union of two bipartite graphs.

    The result need not be a recipe graph (it may be cyclic or disconnected);
    callers re-validate. Raises KindConflictError when an id is a comestible
    on one side and an action on the other.
    """
    conflict = (g1.comestibles & g2.actions) | (g2.comestibles & g1.actions)
    if conflict:
        raise KindConflictError(tuple(sorted(conflict)))
    return RecipeGraph(
        g1.comestibles | g2.comestibles,
        g1.actions | g2.actions,
        g1.arcs | g2.arcs,
    )


def compose(
    r1: Recipe,
    r2: Recipe,
    hierarchies: Hierarchies,
) -> Recipe | CompositionFailure:
    """Compose two recipes, or report every violated condition.

    On success the union is re-validated as a recipe before being returned.
    Typings may disagree on nodes the six conditions leave unconstrained
    (e.g. a shared node that is an input on both sides); that disagreement is
    only checked once the six conditions pass, and is reported as condition
    "typing" since no consistent combined typing exists.
    """
    union = bipartite_union(r1.graph, r2.graph)
    roles1, roles2 = roles(r1), roles(r2)
    coms1, coms2 = r1.graph.comestibles, r2.graph.comestibles
    glue = roles1.outputs & roles2.inputs
    violations: list[Violation] = []

    if not glue:
        violations.append(
            Violation("1", "no output of the first recipe is an input of the second")
        )
    shared_mids = roles1.mids & roles2.mids
    if shared_mids:
        violations.append(
            Violation("2", "shared intermediate comestibles", nodes=tuple(sorted(shared_mids)))
        )
    shared_acts = r1.graph.actions & r2.graph.actions
    if shared_acts:
        violations.append(
            Violation("3", "shared action nodes", nodes=tuple(sorted(shared_acts)))
        )
    backflow = roles2.outputs & roles1.inputs
    if backflow:
        violations.append(
            Violation(
                "4",
                "outputs of the second recipe feed inputs of the first",
                nodes=tuple(sorted(backflow)),
            )
        )
    disagree = tuple(
        sorted(n for n in glue if r1.type_of(n) != r2.type_of(n))
    )
    if disagree:
        violations.append(
            Violation(
                "5",
                "typings disagree on the glue nodes",
                nodes=disagree,
                types=tuple(r1.type_of(n) for n in disagree)
                + tuple(r2.type_of(n) for n in disagree),
            )
        )
    left = {n: r1.type_of(n) for n in coms1 - roles1.outputs}
    right = {m: r2.type_of(m) for m in coms2 - roles2.inputs}
    violations += [
        Violation(
            "6",
            "comparable comestible types outside the glue",
            nodes=(n, m),
            types=(left[n], right[m]),
        )
        for n, m in hierarchies.comestible._comparable_pairs(left, right)
    ]
    if violations:
        return CompositionFailure(tuple(violations))

    clash = tuple(sorted(n for n in coms1 & coms2 if r1.type_of(n) != r2.type_of(n)))
    if clash:
        return CompositionFailure(
            (
                Violation(
                    "typing",
                    "typings disagree on shared nodes outside the glue; "
                    "no combined typing function exists",
                    nodes=clash,
                ),
            )
        )

    # The six conditions do not rule out every degenerate node sharing (e.g. a
    # comestible that is an output of the first recipe and an intermediate of
    # the second ends up with two producers), so the union is re-validated.
    return assemble(union, {**r1.typing, **r2.typing}, hierarchies, CompositionFailure)


def compose_closure(
    seeds,
    hierarchies: Hierarchies,
    max_recipes: int = 10_000,
    max_nodes: int = 1_000,
) -> frozenset[Recipe]:
    """Least set of recipes containing the seeds and closed under composition.

    Deduplication is structural equality, which shared node ids make sound.
    The closure of a finite seed set is finite; ``max_recipes``/``max_nodes``
    guard against runaway inputs by raising ClosureLimitError carrying the
    partial closure. Which recipes that holds depends on the order of
    ``seeds`` alone, not on the hash seed: ``found`` keeps insertion order.
    A negative limit raises RecipeError before any composition.
    """
    for name, limit in (("max_recipes", max_recipes), ("max_nodes", max_nodes)):
        if limit < 0:
            raise RecipeError(f"{name} must be a non-negative integer, got {limit}")
    found: dict[Recipe, None] = dict.fromkeys(seeds)
    if len(found) > max_recipes:
        raise ClosureLimitError("seed set already exceeds max_recipes", found)
    worklist: list[tuple[Recipe, Recipe]] = [(a, b) for a in found for b in found]
    while worklist:
        r1, r2 = worklist.pop()
        result = compose(r1, r2, hierarchies)
        if isinstance(result, CompositionFailure):
            continue
        if result in found:
            continue
        if len(result.graph.nodes) > max_nodes:
            raise ClosureLimitError(
                f"a composed recipe exceeds max_nodes={max_nodes}", found
            )
        for other in found:
            worklist.append((result, other))
            worklist.append((other, result))
        worklist.append((result, result))
        found[result] = None
        if len(found) > max_recipes:
            raise ClosureLimitError(f"closure exceeds max_recipes={max_recipes}", found)
    return frozenset(found)


def decompose(recipe: Recipe, hierarchies: Hierarchies) -> tuple[Recipe, ...]:
    """One atomic subrecipe per action: the action plus its adjacent comestibles.

    Returned in sorted order of the action node id; every piece inherits its
    types from the host recipe.
    """
    pieces = []
    for a in sorted(recipe.graph.actions):
        ins = recipe.graph.predecessors(a)
        outs = recipe.graph.successors(a)
        comestibles = ins | outs
        arcs = frozenset(
            {(c, a) for c in ins} | {(a, c) for c in outs}
        )
        graph = recipe_graph(comestibles, {a}, arcs)
        typing = {n: recipe.type_of(n) for n in sorted(comestibles | {a})}
        pieces.append(make_recipe(graph, typing, hierarchies))
    return tuple(pieces)
