"""Recipe graphs and recipes: the central values every operator consumes.

A recipe graph is a connected acyclic bipartite graph over comestible and
action nodes satisfying five structural conditions:

  1. both node sets are non-empty;
  2. every arc joins a comestible to an action or an action to a comestible;
  3. the graph is connected and acyclic;
  4. every action has at least one incoming and one outgoing arc;
  5. every comestible has at most one incoming arc.

A recipe adds a typing function that is total, kind-respecting, and assigns
pairwise-incomparable types to distinct comestibles (no food item can be the
result of actions on itself). Recipes are immutable values: node identity is
workspace-global text and recipe equality is component-wise equality of the
node sets, arcs, and typing.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar, TypeVar

from .errors import InvalidRecipeError, UnknownNodeError
from .typekb import Hierarchies, bfs, find_cycle, topological_order

Arc = tuple[str, str]


@dataclass(frozen=True)
class Violation:
    """One failed validation condition with the nodes/arcs that witness it.

    ``condition`` is the condition label: "1".."5" for graph conditions,
    "1".."6" for composition, "i".."v" for structural substitution, and the
    codes "untyped", "unknown-node", "unknown-type", "kind", "comparable" for
    typing checks.
    """

    condition: str
    message: str
    nodes: tuple[str, ...] = ()
    arcs: tuple[Arc, ...] = ()
    types: tuple[str, ...] = ()

    def __str__(self) -> str:
        parts = [f"condition {self.condition}: {self.message}"]
        if self.nodes:
            parts.append("nodes " + ", ".join(self.nodes))
        if self.arcs:
            parts.append("arcs " + ", ".join(f"{a}->{b}" for a, b in self.arcs))
        if self.types:
            parts.append("types " + ", ".join(self.types))
        return " | ".join(parts)


@dataclass(frozen=True)
class OperationFailure:
    """Evidence for every violated condition of the operator named ``operation``.

    A failed composition or structural substitution is a well-formed negative
    answer, not an exception, so the value is falsy on purpose.
    """

    violations: tuple[Violation, ...]
    operation: ClassVar[str] = "operation"

    @property
    def conditions(self) -> frozenset[str]:
        return frozenset(v.condition for v in self.violations)

    def __bool__(self) -> bool:
        return False

    def _where(self) -> str:
        return ""

    def __str__(self) -> str:
        joined = "; ".join(str(v) for v in self.violations)
        return f"{self.operation} failed{self._where()}: {joined}"


_Failure = TypeVar("_Failure", bound=OperationFailure)


@dataclass(frozen=True)
class RecipeGraph:
    """Bare graph component: comestible ids, action ids, and directed arcs."""

    comestibles: frozenset[str]
    actions: frozenset[str]
    arcs: frozenset[Arc]

    @cached_property
    def nodes(self) -> frozenset[str]:
        return self.comestibles | self.actions

    @cached_property
    def _adjacency(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """Successor and predecessor tuples per arc endpoint, built on first use."""
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for s, t in self.arcs:
            succ.setdefault(s, []).append(t)
            pred.setdefault(t, []).append(s)
        return (
            {n: tuple(ts) for n, ts in succ.items()},
            {n: tuple(ss) for n, ss in pred.items()},
        )

    @cached_property
    def _topo(self) -> list[str]:
        """The nodes in topological order, less those on or behind a cycle."""
        return topological_order(self.nodes, self._adjacency[0])

    @cached_property
    def _arc_fault(self) -> Violation | None:
        """The condition-2 violation of the arcs that do not join a comestible and an action."""
        coms, acts = self.comestibles, self.actions
        stray = tuple(
            sorted(
                (s, t)
                for s, t in self.arcs
                if not ((s in coms and t in acts) or (s in acts and t in coms))
            )
        )
        return Violation("2", "arcs must join a comestible and an action", arcs=stray) if stray else None

    def _check_arcs(self) -> None:
        """Raise InvalidRecipeError with ``_arc_fault``, which a search would meet as an unknown node."""
        if self._arc_fault:
            raise InvalidRecipeError([self._arc_fault])

    def in_degree(self, n: str) -> int:
        return len(self._adjacency[1].get(n, ()))

    def out_degree(self, n: str) -> int:
        return len(self._adjacency[0].get(n, ()))

    def successors(self, n: str) -> frozenset[str]:
        return frozenset(self._adjacency[0].get(n, ()))

    def predecessors(self, n: str) -> frozenset[str]:
        return frozenset(self._adjacency[1].get(n, ()))

    def kind_of(self, n: str) -> str:
        """The kind of hierarchy that types ``n``: "comestible" or "action"."""
        return "comestible" if n in self.comestibles else "action"


def recipe_graph(
    comestibles: Iterable[str], actions: Iterable[str], arcs: Iterable[Arc]
) -> RecipeGraph:
    """Build an (unvalidated) graph container from any iterables."""
    return RecipeGraph(
        frozenset(comestibles),
        frozenset(actions),
        frozenset((s, t) for s, t in arcs),
    )


def validate_recipe_graph(graph: RecipeGraph) -> list[Violation]:
    """Check the five structural conditions; an empty list means the graph is valid.

    Every violated condition is reported with its number and the offending
    nodes or arcs, independently of the others where possible.
    """
    violations: list[Violation] = []
    coms, acts = graph.comestibles, graph.actions

    if not coms or not acts:
        missing = []
        if not coms:
            missing.append("comestibles")
        if not acts:
            missing.append("actions")
        violations.append(Violation("1", f"empty node set: {', '.join(missing)}"))

    overlap = coms & acts
    if overlap:
        violations.append(
            Violation("2", "node ids used as both kinds", nodes=tuple(sorted(overlap)))
        )
    if graph._arc_fault:
        violations.append(graph._arc_fault)

    nodes = graph.nodes
    if nodes:
        if len(graph._topo) < len(nodes):
            cycle = find_cycle(nodes.difference(graph._topo), graph._adjacency[0])
            violations.append(Violation("3", "graph contains a cycle", nodes=cycle))
        component = _component(graph, min(nodes))
        if component != nodes:
            outside = tuple(sorted(nodes - component))
            violations.append(Violation("3", "graph is not connected", nodes=outside))

    no_in = tuple(sorted(a for a in acts if graph.in_degree(a) == 0))
    no_out = tuple(sorted(a for a in acts if graph.out_degree(a) == 0))
    if no_in:
        violations.append(Violation("4", "actions without any input", nodes=no_in))
    if no_out:
        violations.append(Violation("4", "actions without any output", nodes=no_out))

    crowded = tuple(sorted(c for c in coms if graph.in_degree(c) > 1))
    if crowded:
        violations.append(
            Violation("5", "comestibles with more than one incoming arc", nodes=crowded)
        )
    return violations


def _component(graph: RecipeGraph, start: str) -> frozenset[str]:
    """Nodes joined to ``start`` by arcs in either direction, within the node set."""
    nodes = graph.nodes
    succ, pred = graph._adjacency
    return frozenset(
        bfs(start, lambda u: [v for v in succ.get(u, ()) + pred.get(u, ()) if v in nodes])
    )


class Recipe:
    """A validated recipe graph together with its typing function.

    Instances compare and hash by value, so structurally equal recipes
    deduplicate in sets. Construct through :func:`make_recipe` (or
    :func:`build_recipe` from raw parts); the constructor itself does not
    validate.
    """

    __slots__ = ("graph", "typing", "_reach")

    def __init__(self, graph: RecipeGraph, typing: Mapping[str, str]):
        self.graph = graph
        self.typing = dict(typing)
        # kept per recipe, not on the shared graph, so megabytes of reach sets die with the recipe
        self._reach: dict[str, frozenset[str]] | None = None

    def type_of(self, n: str) -> str:
        try:
            return self.typing[n]
        except KeyError:
            raise UnknownNodeError(n) from None

    def _key(self):
        return (
            self.graph.comestibles,
            self.graph.actions,
            self.graph.arcs,
            tuple(sorted(self.typing.items())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Recipe):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Recipe({len(self.graph.comestibles)} comestibles, "
            f"{len(self.graph.actions)} actions, {len(self.graph.arcs)} arcs)"
        )

    def reachable_from(self, n: str) -> frozenset[str]:
        """Nodes reachable from ``n`` along directed arcs, including ``n``."""
        if self._reach is None:
            self._reach = {}
        cached = self._reach.get(n)
        if cached is None:
            succ = self.graph._adjacency[0]
            cached = self._reach[n] = frozenset(bfs(n, lambda u: succ.get(u, ())))
        return cached


@dataclass(frozen=True)
class RoleSets:
    """Partition of a recipe's comestibles into inputs, outputs, and intermediates."""

    inputs: frozenset[str]
    outputs: frozenset[str]
    mids: frozenset[str]


def typing_violations(
    graph: RecipeGraph, typing: Mapping[str, str], hierarchies: Hierarchies
) -> list[Violation]:
    """Check a typing function against a structurally valid graph.

    Reports untyped or unknown nodes, kind mismatches, unknown types, and
    every pair of distinct comestibles whose types are comparable.
    """
    return _resolve_typing(graph, typing, hierarchies)[0]


def _resolve_typing(
    graph: RecipeGraph, typing: Mapping[str, str], hierarchies: Hierarchies
) -> tuple[list[Violation], dict[str, str]]:
    """``typing_violations``, and the resolved type of each well-kinded node in typing order."""
    violations: list[Violation] = []
    nodes = graph.nodes
    untyped = tuple(sorted(nodes - set(typing)))
    if untyped:
        violations.append(Violation("untyped", "nodes without a type", nodes=untyped))
    stray = tuple(sorted(set(typing) - nodes))
    if stray:
        violations.append(
            Violation("unknown-node", "typing mentions nodes outside the graph", nodes=stray)
        )

    # walking the typing in its own order builds the recipe's typing without a
    # sort; only the (usually absent) faults are sorted, by node
    resolved: dict[str, str] = {}
    mistyped: list[Violation] = []
    for n, text in typing.items():
        if n not in nodes:
            continue
        kind = graph.kind_of(n)
        own = hierarchies.for_kind(kind)
        if text in own:
            resolved[n] = own.resolve(text)
            continue
        other = hierarchies.kind_of_type(text)
        if other is not None:
            mistyped.append(
                Violation(
                    "kind",
                    f"{kind} node typed with a {other} type",
                    nodes=(n,),
                    types=(text,),
                )
            )
        else:
            mistyped.append(
                Violation("unknown-type", "type not found in any hierarchy", nodes=(n,), types=(text,))
            )
    violations += sorted(mistyped, key=lambda v: v.nodes)

    typed = {c: resolved[c] for c in graph.comestibles & resolved.keys()}
    violations += [
        Violation(
            "comparable",
            "distinct comestibles with comparable types",
            nodes=(c1, c2),
            types=(typed[c1], typed[c2]),
        )
        for c1, c2 in hierarchies.comestible._comparable_pairs(typed, typed)
        if c1 < c2
    ]
    return violations, resolved


def make_recipe(
    graph: RecipeGraph, typing: Mapping[str, str], hierarchies: Hierarchies
) -> Recipe:
    """Validate a typing over an already-valid graph and build the recipe.

    Type texts are resolved to canonical ids, so recipes built from aliased
    spellings compare equal. Raises InvalidRecipeError listing every typing
    violation.
    """
    violations, resolved = _resolve_typing(graph, typing, hierarchies)
    if violations:
        raise InvalidRecipeError(violations)
    return Recipe(graph, resolved)


def checked_recipe(
    graph: RecipeGraph, typing: Mapping[str, str], hierarchies: Hierarchies
) -> Recipe:
    """Validate graph then typing, raising InvalidRecipeError on any failure."""
    violations = validate_recipe_graph(graph)
    if violations:
        raise InvalidRecipeError(violations)
    return make_recipe(graph, typing, hierarchies)


def build_recipe(
    comestibles: Iterable[str],
    actions: Iterable[str],
    arcs: Iterable[Arc],
    typing: Mapping[str, str],
    hierarchies: Hierarchies,
) -> Recipe:
    """Build the graph from raw parts, then validate it as ``checked_recipe`` does."""
    return checked_recipe(recipe_graph(comestibles, actions, arcs), typing, hierarchies)


def assemble(
    graph: RecipeGraph, typing: Mapping[str, str], hierarchies: Hierarchies, failure: type[_Failure]
) -> Recipe | _Failure:
    """The recipe an operator glued together, or ``failure`` with what breaks it.

    The operator's own conditions can hold while the assembly still breaks a
    rule of recipes; each such violation is reported as condition "result".
    """
    try:
        return checked_recipe(graph, typing, hierarchies)
    except InvalidRecipeError as exc:
        return failure(tuple(replace(v, condition="result") for v in exc.violations))


def roles(recipe: Recipe) -> RoleSets:
    """Partition comestibles: inputs have no incoming arc, outputs no outgoing arc."""
    graph = recipe.graph
    succ, pred = graph._adjacency
    inputs = frozenset(c for c in graph.comestibles if c not in pred)
    outputs = frozenset(c for c in graph.comestibles if c not in succ)
    mids = graph.comestibles - inputs - outputs
    return RoleSets(inputs, outputs, mids)


def inputs_types(recipe: Recipe) -> frozenset[str]:
    return frozenset(recipe.type_of(n) for n in roles(recipe).inputs)


def outputs_types(recipe: Recipe) -> frozenset[str]:
    return frozenset(recipe.type_of(n) for n in roles(recipe).outputs)


def leq(recipe: Recipe, n: str, m: str) -> bool:
    """Path order: true iff ``n`` equals ``m`` or a directed path n -> m exists."""
    if n not in recipe.graph.nodes:
        raise UnknownNodeError(n)
    if m not in recipe.graph.nodes:
        raise UnknownNodeError(m)
    return m in recipe.reachable_from(n)


def is_atomic(recipe: Recipe) -> bool:
    """True iff the recipe has exactly one action node."""
    return len(recipe.graph.actions) == 1
