"""Type substitution: rebinding node types, repair planning, and cost.

A substitution set maps nodes to replacement types (one binding per node).
Primary substitutions are forced on the cook (a missing ingredient, an
impossible action); secondary substitutions repair the acceptability
violations the primary ones introduce. The preferred pair is the
acceptability-restoring combination of least total type distance.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .acceptability import AcceptabilitySet, _Licences, arc_triples
from .compare import DEFAULT_BUDGET, NodeBijection, _Budget, _depth_first, isomorphic
from .core import Recipe, _resolve_typing, make_recipe
from .errors import (
    NoSolutionError,
    NotIsomorphicError,
    UnknownTypeError,
)
from .typekb import DistanceModel, Hierarchies

SubstitutionSet = Mapping[str, str]

DEFAULT_RADIUS = 2


@dataclass(frozen=True)
class SubstitutionPair:
    """A primary substitution set with the secondary set that repairs it."""

    primary: tuple[tuple[str, str], ...]
    secondary: tuple[tuple[str, str], ...]

    @staticmethod
    def of(primary: SubstitutionSet, secondary: SubstitutionSet) -> "SubstitutionPair":
        overlap = set(primary) & set(secondary)
        if overlap:
            raise ValueError(f"primary and secondary rebind the same nodes: {sorted(overlap)}")
        return SubstitutionPair(
            tuple(sorted(primary.items())), tuple(sorted(secondary.items()))
        )

    @property
    def combined(self) -> dict[str, str]:
        return dict(self.primary) | dict(self.secondary)


@dataclass(frozen=True)
class CostModel:
    """Distance model plus aggregation rule ("sum" or "max") for pricing pairs."""

    distances: DistanceModel = field(default_factory=DistanceModel)
    aggregation: str = "sum"

    def __post_init__(self):
        if self.aggregation not in ("sum", "max"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")


def apply_substitution(
    recipe: Recipe, bindings: SubstitutionSet, hierarchies: Hierarchies
) -> Recipe:
    """Rebind node types, leaving the graph untouched.

    Bindings for nodes outside the recipe are ignored. The result is
    re-validated: a rebinding that makes two comestibles comparable, points a
    node at the wrong kind of type, or names an unknown type raises
    InvalidRecipeError.
    """
    typing = dict(recipe.typing)
    for n, t in bindings.items():
        if n in typing:
            typing[n] = t
    return make_recipe(recipe.graph, typing, hierarchies)


def substitution_to(
    r1: Recipe,
    r2: Recipe,
    witness: NodeBijection | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[str, str]:
    """The substitution set that retypes ``r1`` to match ``r2`` along a bijection.

    Raises NotIsomorphicError when the graphs do not match. The returned set
    binds exactly the nodes whose types differ from their image's, in sorted
    node order.
    """
    if witness is None:
        witness = isomorphic(r1, r2, budget=budget)
        if witness is None:
            raise NotIsomorphicError("the two recipe graphs are not isomorphic")
    b = witness.as_dict()
    return {
        n: r2.type_of(b[n])
        for n in sorted(r1.graph.nodes)
        if r1.type_of(n) != r2.type_of(b[n])
    }


def cost(
    pair: SubstitutionPair | SubstitutionSet,
    recipe: Recipe,
    model: CostModel,
    hierarchies: Hierarchies,
) -> float:
    """Aggregate distance between each rebound node's old and new type.

    The empty pair costs 0 under both aggregations.
    """
    if isinstance(pair, SubstitutionPair):
        bindings = pair.combined
    else:
        bindings = dict(pair)
    terms = []
    for n, t in sorted(bindings.items()):
        if n not in recipe.typing:
            continue
        h = hierarchies.for_kind(recipe.graph.kind_of(n))
        terms.append(model.distances.distance(h, recipe.type_of(n), t))
    if not terms:
        return 0.0
    return sum(terms) if model.aggregation == "sum" else max(terms)


def default_candidates(
    recipe: Recipe,
    accepts: AcceptabilitySet,
    hierarchies: Hierarchies,
    exclude: Iterable[str] = (),
) -> dict[str, list[str]]:
    """Candidate replacement types per node: tuple-slot types plus nearby relatives.

    For an action node the pool is every action type occurring in the tuple
    set; for a comestible it is the input-slot types when the node feeds an
    action, plus the output-slot types when it is produced by one. Relatives
    of the node's current type within ``DEFAULT_RADIUS`` undirected steps are
    added. The node's current type is dropped (rebinding to it is a no-op).
    """
    pool = _pool_rule(recipe, accepts, hierarchies, exclude)
    return {n: pool(n) for n in sorted(recipe.graph.nodes)}


def _pool_rule(
    recipe: Recipe,
    accepts: AcceptabilitySet,
    hierarchies: Hierarchies,
    exclude: Iterable[str] = (),
) -> Callable[[str], list[str]]:
    """The pool of ``default_candidates`` as a function of the node, one pool per call."""
    excluded = set(exclude)
    graph = recipe.graph
    in_slot = {t.input for t in accepts.tuples}
    act_slot = {t.action for t in accepts.tuples}
    out_slot = {t.output for t in accepts.tuples}

    def pool(n: str) -> list[str]:
        if n in graph.actions:
            found = set(act_slot)
            h = hierarchies.action
        else:
            found = set()
            if graph.out_degree(n) > 0:
                found.update(in_slot)
            if graph.in_degree(n) > 0:
                found.update(out_slot)
            h = hierarchies.comestible
        found.update(h.relatives(recipe.type_of(n), DEFAULT_RADIUS))
        found.discard(recipe.type_of(n))
        found -= excluded
        return sorted(found)

    return pool


class _RepairSpace:
    """The candidate space of one planner query, with what its repair searches share.

    It stands in for the candidate mapping: ``space[n]`` is the pool of
    ``candidates`` less ``exclude``, or of ``default_candidates`` when
    ``candidates`` is None, built the first time it is read, so a search
    that runs out of budget early builds few pools. Besides the pools it
    holds what does not depend on the primary: one licence cache, the arc
    triples and the triples at each node, and each pool's candidates that
    name a type of the node's kind, resolved, each with the types it is
    comparable to (``TypeHierarchy.comparable_within``) when the node is a
    comestible.
    """

    def __init__(
        self,
        recipe: Recipe,
        accepts: AcceptabilitySet,
        hierarchies: Hierarchies,
        candidates: Mapping[str, Sequence[str]] | None = None,
        exclude: Iterable[str] = (),
    ):
        graph = recipe.graph
        graph._check_arcs()
        if candidates is None:
            self._nodes: Collection[str] = dict.fromkeys(sorted(graph.nodes))
            self._pool = _pool_rule(recipe, accepts, hierarchies, exclude=exclude)
        else:
            banned = frozenset(exclude)
            self._nodes = candidates
            self._pool = lambda n: [t for t in candidates[n] if t not in banned]
        self.recipe = recipe
        self.hierarchies = hierarchies
        self.licences = _Licences(accepts, hierarchies)
        self._pools: dict[str, Sequence[str]] = {}
        self._resolved: dict[str, list[tuple[str, str, frozenset[str] | None]]] = {}
        self.triples = arc_triples(recipe)
        self.triples_at: dict[str, list[tuple[str, str, str]]] = {}
        for triple in self.triples:
            for n in triple:
                self.triples_at.setdefault(n, []).append(triple)

    def __getitem__(self, n: str) -> Sequence[str]:
        pool = self._pools.get(n)
        if pool is None:
            pool = self._pools[n] = self._pool(n)
        return pool

    def __contains__(self, n) -> bool:
        return n in self._nodes

    def get(self, n: str, default=None):
        return self[n] if n in self._nodes else default

    def resolved(self, n: str) -> list[tuple[str, str, frozenset[str] | None]]:
        """``(text, type, comparable types)`` per candidate of ``n`` naming a type of its kind.

        The comparable types are None for an action node.
        """
        found = self._resolved.get(n)
        if found is None:
            graph = self.recipe.graph
            h = self.hierarchies.for_kind(graph.kind_of(n))
            comestible = n in graph.comestibles
            found = self._resolved[n] = []
            for text in self[n]:
                if text in h:
                    t = h.resolve(text)
                    found.append((text, t, h.comparable_within(t) if comestible else None))
        return found


class _RepairChecker:
    """Acceptability under one fixed primary, checked only where a rebinding acts.

    Built once per primary, over the query's ``_RepairSpace``; the pass that
    checks the typing under the primary also resolves it. It keeps the node
    set of every violation under the primary alone in ``conflicts``: the
    typing violations that ``typing_violations`` reports and the unlicensed
    arc triples. A secondary assignment leaves a violation in place unless it
    rebinds one of its nodes, so a domain that misses a conflict set cannot
    repair (``can_repair``). On a domain that hits them all, only the
    comestible pairs and arc triples touching a rebound node can change, and
    ``for_domain`` checks just those. On such a domain it agrees with
    ``apply_substitution`` followed by ``check_acceptable``.
    """

    def __init__(self, space: _RepairSpace, primary: Mapping[str, str]):
        typing = dict(space.recipe.typing)
        typing.update({n: t for n, t in primary.items() if n in typing})
        violations, types = _resolve_typing(space.recipe.graph, typing, space.hierarchies)
        self._types = types
        self._space = space
        self._licences = space.licences
        self.conflicts = [frozenset(v.nodes) for v in violations]
        for triple in space.triples:
            if all(n in types for n in triple) and not self._licences._licensed(
                tuple(types[n] for n in triple)
            ):
                self.conflicts.append(frozenset(triple))

    def can_repair(self, domain: Sequence[str]) -> bool:
        """False when rebinding ``domain`` leaves some violation untouched."""
        return all(not c.isdisjoint(domain) for c in self.conflicts)

    def for_domain(self, domain: Sequence[str]) -> Iterator[dict[str, str]]:
        """Every acceptable choice of one candidate per node of ``domain``, in order.

        A candidate is dropped when it names no type of the node's kind or
        makes the node comparable to a comestible outside the domain. The
        pools are then pruned to arc consistency (Mackworth 1977) over every
        triple that touches the domain: a candidate goes when no tuple
        licenses it together with the triple's fixed types and the remaining
        candidates of its other domain nodes. A triple with one domain node
        thus drops the candidates it never licenses. No assignment that
        contains a dropped candidate can be acceptable.

        The choices come in the order of ``itertools.product`` over the
        candidate lists: the product of the pruned pools, each combination
        checked on its comestible pairs and on the triples shared by two or
        more domain nodes.
        """
        space, fixed = self._space, self._types
        graph = space.recipe.graph
        at = {n: i for i, n in enumerate(domain)}
        outside = {fixed[c] for c in graph.comestibles if c not in at}
        pools = []
        for n in domain:
            pool = [
                (text, t)
                for text, t, near in space.resolved(n)
                if near is None or near.isdisjoint(outside)
            ]
            if not pool:
                return
            pools.append(pool)

        touching = list(
            dict.fromkeys(
                tuple((at[m], None) if m in at else (None, fixed[m]) for m in triple)
                for n in domain
                for triple in space.triples_at.get(n, ())
            )
        )
        if not self._prune(pools, touching):
            return
        shared = [slots for slots in touching if sum(j is not None for j, _ in slots) > 1]
        coms = [i for i, n in enumerate(domain) if n in graph.comestibles]
        for choice in itertools.product(*pools):
            if self._fits([t for _, t in choice], coms, shared):
                yield {n: text for n, (text, _) in zip(domain, choice)}

    def _prune(self, pools: list[list[tuple[str, str]]], triples: list) -> bool:
        """Cut ``pools`` in place to arc consistency; False when one runs empty.

        Each entry of ``triples`` gives, for input, action and output, a
        domain position or None with the fixed type; one with a single domain
        position is a one-node constraint. Every triple is revised until a
        full round removes nothing, so every type left has support in every
        triple. The fixpoint does not depend on the order of the revisions.
        """
        sets = [{t for _, t in pool} for pool in pools]
        changed = True
        while changed:
            changed = False
            for slots in triples:
                for j, keep in self._licences._supports(slots, sets).items():
                    if len(keep) < len(sets[j]):
                        if not keep:
                            return False
                        sets[j] = keep
                        changed = True
        for pool, keep in zip(pools, sets):
            pool[:] = [(text, t) for text, t in pool if t in keep]
        return True

    def _fits(self, chosen: list[str], coms: list[int], shared: list) -> bool:
        """True when one type per domain position passes the pairs and shared triples."""
        h = self._space.hierarchies.comestible
        for k, i in enumerate(coms):
            near = h.comparable_within(chosen[i])
            if any(chosen[j] in near for j in coms[k + 1:]):
                return False
        return all(
            self._licences._licensed(tuple(chosen[j] if j is not None else f for j, f in slots))
            for slots in shared
        )


def _repair_charge(lengths: Iterable[int], max_size: int | None, left: int) -> int:
    """The expansions of a repair search over pools of these lengths, or a total past ``left``.

    The search charges every domain of at most ``max_size`` nodes (no cap
    when None) the product of its pool lengths, so in all the elementary
    symmetric sums e_1 + ... + e_cap of the lengths; an empty pool adds
    nothing to any of them. The lengths are taken one at a time, and adding
    one never lowers a sum, so the count stops as soon as its partial total
    exceeds ``left`` and returns that: the terms stay below ``left`` times a
    pool length.
    """
    sums = [1]  # sums[k] is e_k of the lengths taken so far
    total = 0
    for length in lengths:
        if not length:
            continue
        if max_size is None or len(sums) <= max_size:
            sums.append(0)
        for k in range(len(sums) - 1, 0, -1):
            sums[k] += sums[k - 1] * length
        total = sum(sums) - 1
        if total > left:
            break
    return total


def _minimal_repairs(
    recipe: Recipe,
    primary: dict[str, str],
    accepts: AcceptabilitySet,
    hierarchies: Hierarchies,
    candidates: Mapping[str, Sequence[str]],
    budget: _Budget,
    max_size: int | None = None,
) -> list[dict[str, str]]:
    """Every subset-minimal repair over the candidate space, smallest first.

    Enumerates assignments by increasing domain size, so solutions are found
    smallest-first; an assignment with a known solution strictly inside it
    cannot be minimal and is skipped. Each assignment costs one expansion,
    whether or not it is checked: every domain costs the product of its
    candidate list lengths, and the whole search is charged that total
    (``_repair_charge``) before it checks anything. So a search that would
    run out of budget raises at once, and budget-outs do not depend on the
    pruning. Within a domain, ``_RepairChecker.for_domain`` yields the
    acceptable assignments in ``itertools.product`` order. ``candidates`` may
    be the query's ``_RepairSpace``; any other mapping gets a space of its
    own. Raises NoSolutionError when the search space holds no repair at all.
    """
    if isinstance(candidates, _RepairSpace):
        space = candidates
    else:
        space = _RepairSpace(recipe, accepts, hierarchies, candidates)
    checker = _RepairChecker(space, primary)
    if not checker.conflicts:
        return [{}]
    free = sorted(n for n in recipe.graph.nodes if n not in primary and n in space)
    budget.spend(_repair_charge((len(space[n]) for n in free), max_size, budget.left))
    eligible = [n for n in free if space[n]]
    cap = len(eligible) if max_size is None else min(max_size, len(eligible))
    solutions: list[dict[str, str]] = []
    found: list[set[tuple[str, str]]] = []
    for size in range(1, cap + 1):
        for domain in itertools.combinations(eligible, size):
            if not checker.can_repair(domain):
                continue
            for assignment in checker.for_domain(domain):
                items = set(assignment.items())
                if not any(s < items for s in found):
                    solutions.append(assignment)
                    found.append(items)
    if not solutions:
        raise NoSolutionError("no secondary substitution restores acceptability")
    return solutions


def find_secondary(
    recipe: Recipe,
    primary: SubstitutionSet,
    accepts: AcceptabilitySet,
    hierarchies: Hierarchies,
    candidates: Mapping[str, Sequence[str]] | None = None,
    model: CostModel | None = None,
    budget: int = DEFAULT_BUDGET,
    max_size: int | None = None,
) -> list[dict[str, str]]:
    """All subset-minimal secondary sets that restore acceptability.

    Enumerates candidate rebindings over nodes outside the primary domain by
    increasing set size, so every reported set is minimal within the candidate
    space: dropping any single binding breaks acceptability. Results are
    sorted by cost when a model is given, canonically otherwise.
    ``max_size`` caps the bindings per secondary set. Raises NoSolutionError
    when the space is exhausted without a repair and BudgetExceededError when
    the budget runs out first.
    """
    space = _RepairSpace(recipe, accepts, hierarchies, candidates)
    solutions = _minimal_repairs(
        recipe, dict(primary), accepts, hierarchies, space, _Budget(budget), max_size
    )
    if model is not None:
        solutions.sort(key=_by_cost(recipe, model, hierarchies))
    else:
        solutions.sort(key=lambda s: (len(s), sorted(s.items())))
    return solutions


def _by_cost(recipe: Recipe, model: CostModel, hierarchies: Hierarchies):
    """Sort key ordering secondary sets by cost, then by canonical bindings."""
    return lambda s: (cost(s, recipe, model, hierarchies), sorted(s.items()))


def resolve_unavailable(
    recipe: Recipe, unavailable: Iterable[str], hierarchies: Hierarchies
) -> tuple[frozenset[str], frozenset[str]]:
    """Split unavailability marks into affected nodes and banned types.

    A mark naming a node affects that node. A mark naming a type affects every
    node whose current type sits at or below it (lacking a type means lacking
    all of its specializations), and bans those types as candidates.
    """
    nodes: set[str] = set()
    banned: set[str] = set()
    for mark in unavailable:
        if mark in recipe.graph.nodes:
            nodes.add(mark)
            h = hierarchies.for_kind(recipe.graph.kind_of(mark))
            banned |= h.descendants(recipe.type_of(mark))
            continue
        kind = hierarchies.kind_of_type(mark)
        if kind is None:
            raise UnknownTypeError(mark)
        unavailable_types = hierarchies.for_kind(kind).descendants(mark)
        banned |= unavailable_types
        for n in recipe.graph.nodes:
            if recipe.graph.kind_of(n) == kind and recipe.type_of(n) in unavailable_types:
                nodes.add(n)
    return frozenset(nodes), frozenset(banned)


def preferred_pair(
    recipe: Recipe,
    unavailable: Iterable[str],
    accepts: AcceptabilitySet,
    model: CostModel,
    hierarchies: Hierarchies,
    candidates: Mapping[str, Sequence[str]] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SubstitutionPair | None:
    """Cheapest substitution pair whose primary rebinds exactly the unavailable nodes.

    Branch and bound over primary assignments: partial assignments are priced
    by their accumulated distance plus the cheapest possible remainder, and
    pruned against the best complete pair found so far. For each surviving
    primary the cheapest minimal secondary repair is computed. Ties break on
    the canonical ordering of the bindings. Returns None when no acceptable
    pair exists in the candidate space.
    """
    b = _Budget(budget)
    target_nodes, banned = resolve_unavailable(recipe, unavailable, hierarchies)
    space = _RepairSpace(recipe, accepts, hierarchies, candidates, exclude=banned)

    order = sorted(target_nodes)
    pools = []
    for n in order:
        pool = list(space.get(n, ()))
        if not pool:
            return None
        h = hierarchies.for_kind(recipe.graph.kind_of(n))
        priced = sorted(
            (model.distances.distance(h, recipe.type_of(n), t), t) for t in pool
        )
        pools.append(priced)
    agg = operator.add if model.aggregation == "sum" else max
    min_tail = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        min_tail[i] = agg(min_tail[i + 1], pools[i][0][0])

    best_key: tuple[float, list, list] | None = None
    best_pair: SubstitutionPair | None = None
    partial: dict[str, str] = {}
    spent = [0.0]  # distance of the first i primary bindings

    def choices(i: int):
        n = order[i]
        for d, t in pools[i]:
            b.spend()
            now = agg(spent[i], d)
            if best_key is not None and agg(now, min_tail[i + 1]) > best_key[0]:
                continue
            partial[n] = t
            spent.append(now)
            yield
            spent.pop()
            del partial[n]

    for _ in _depth_first(len(order), choices):
        try:
            repairs = _minimal_repairs(recipe, dict(partial), accepts, hierarchies, space, b)
        except NoSolutionError:
            continue
        secondary = min(repairs, key=_by_cost(recipe, model, hierarchies))
        total = agg(spent[-1], cost(secondary, recipe, model, hierarchies))
        key = (total, sorted(partial.items()), sorted(secondary.items()))
        if best_key is None or key < best_key:
            best_key = key
            best_pair = SubstitutionPair.of(dict(partial), secondary)
    return best_pair
