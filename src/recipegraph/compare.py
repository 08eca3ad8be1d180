"""The five recipe-comparison relations.

* isomorphic: same shape (kind- and arc-preserving bijection);
* subrecipe: one recipe is an induced, identically-typed part of another;
* equivalent: isomorphic with identical labels;
* in-out aligned: same input and output nodes with the same types;
* finer-grained: in-out aligned with an order-preserving map between them;
* more specific: isomorphic with labels at or below the other's.

The bijection searches (isomorphic, equivalent, more specific) restrict every
node to its exact upstream and downstream unfolding class and grow the
mapping along arcs, VF2-style (Cordella et al., TPAMI 2004). Finer-grained is
closed-form unless the inputs and outputs are pinned; then it backtracks in
sorted order. These searches, and those of the planner and of rewriting, run
on one depth-first kernel, ``_depth_first``, whose stack is explicit, so none
of them recurses. Each comparison search is made total by an expansion
budget: exceeding it raises BudgetExceededError, which is distinct from a
definite negative answer.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .core import Recipe, roles
from .errors import BudgetExceededError
from .typekb import Hierarchies, topological_order

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class NodeBijection:
    """Witness for isomorphism-style relations; maps nodes of the first recipe."""

    forward: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.forward)

    def inverse(self) -> "NodeBijection":
        return NodeBijection(tuple(sorted((b, a) for a, b in self.forward)))

    def __getitem__(self, n: str) -> str:
        return self.as_dict()[n]


@dataclass(frozen=True)
class OrderMap:
    """Witness for finer-grained: a total order-preserving node map."""

    forward: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.forward)


class _Budget:
    """Expansion counter of every bounded search; overspending raises BudgetExceededError."""

    __slots__ = ("left", "limit")

    def __init__(self, limit: int):
        self.left = limit
        self.limit = limit

    def spend(self, n: int = 1):
        """Charge ``n`` expansions at once."""
        self.left -= n
        if self.left < 0:
            raise BudgetExceededError(self.limit)


def _depth_first(levels: int, choices):
    """Depth-first search over ``levels`` choices, on one explicit stack.

    ``choices(i)`` is a generator over the options of level ``i`` once the
    levels before it are chosen: it yields once for each option that fits,
    with that option applied, and undoes it when resumed. Yields each time
    every level is chosen; resuming it goes on to the next completion. No
    level (``levels <= 0``) is one empty completion.
    """
    if levels <= 0:
        yield
        return
    stack = [choices(0)]
    while stack:
        for _ in stack[-1]:
            if len(stack) == levels:
                yield
            else:
                stack.append(choices(len(stack)))
                break
        else:
            stack.pop()


def _classes(recipe: Recipe, typed: bool, intern: dict) -> dict[str, tuple[int, int]]:
    """Exact upstream and downstream unfolding class of every node.

    A node's upstream class is its seed (its kind, plus its type when
    ``typed``) and the sorted upstream classes of its predecessors, computed
    in topological order; its downstream class is the same over successors,
    in reverse order. Both are interned as ints in ``intern``, shared by the
    graphs being compared, so equal ints mean equal unfolding trees, with no
    hashing. Nodes on or behind a cycle, which only graphs that skipped
    validation have, keep their seed alone.
    """
    g = recipe.graph
    seed = (lambda n: (g.kind_of(n), recipe.type_of(n))) if typed else g.kind_of
    succ, pred = g._adjacency
    nodes = g.nodes
    topo = topological_order(nodes, succ)
    up = {n: intern.setdefault((seed(n), None), len(intern)) for n in nodes.difference(topo)}
    down = dict(up)
    for n in topo:
        key = (seed(n), tuple(sorted([up[p] for p in pred.get(n, ())])))
        up[n] = intern.setdefault(key, len(intern))
    for n in reversed(topo):
        key = (seed(n), tuple(sorted([down[t] for t in succ.get(n, ())])))
        down[n] = intern.setdefault(key, len(intern))
    return {n: (up[n], down[n]) for n in nodes}


def _match_bijection(
    r1: Recipe, r2: Recipe, budget: _Budget, label_ok=None, typed: bool = False
) -> NodeBijection | None:
    """Search for an arc- and kind-preserving bijection.

    A node may only map into its class: its upstream and downstream unfolding
    classes, seeded by kind (and by type when ``typed``), which every such
    bijection preserves. ``label_ok(n, m)`` adds the per-relation label
    constraint. Nodes are placed VF2-style: the most-constrained node first,
    then the most-constrained node next to those placed, whose candidates are
    the neighbours of its anchor's image. Candidates are tried in sorted
    order, so the witness is deterministic.
    """
    g1, g2 = r1.graph, r2.graph
    g1._check_arcs()
    g2._check_arcs()
    if (len(g1.comestibles), len(g1.actions), len(g1.arcs)) != (
        len(g2.comestibles), len(g2.actions), len(g2.arcs)
    ):
        return None

    intern: dict = {}
    cls1, cls2 = _classes(r1, typed, intern), _classes(r2, typed, intern)
    if Counter(cls1.values()) != Counter(cls2.values()):
        return None
    pool: dict[tuple[int, int], list[str]] = {}
    for m in sorted(g2.nodes):
        pool.setdefault(cls2[m], []).append(m)
    if label_ok is not None and not all(
        any(label_ok(n, m) for m in pool[cls1[n]]) for n in g1.nodes
    ):
        return None

    succ1, pred1 = g1._adjacency
    succ2, pred2 = g2._adjacency
    size = {n: len(pool[cls1[n]]) for n in g1.nodes}
    # (node, anchor, 0 if the node follows its anchor else 1), in search order
    order: list[tuple[str, str | None, int]] = []
    frontier: list[tuple[int, str, str | None, int]] = []
    placed: set[str] = set()
    while len(order) < len(size):
        if not frontier:  # start a component at its most-constrained node
            frontier.append((*min((size[n], n) for n in size if n not in placed), None, 0))
        _, n, anchor, side = heapq.heappop(frontier)
        if n not in placed:
            placed.add(n)
            order.append((n, anchor, side))
            for t in succ1.get(n, ()):
                heapq.heappush(frontier, (size[t], t, n, 0))
            for t in pred1.get(n, ()):
                heapq.heappush(frontier, (size[t], t, n, 1))

    mapping: dict[str, str] = {}
    inverse: dict[str, str] = {}
    arcs1, arcs2 = g1.arcs, g2.arcs

    def choices(i: int):
        n, anchor, side = order[i]
        if anchor is None:
            found = pool[cls1[n]]
        else:
            near = (succ2, pred2)[side].get(mapping[anchor], ())
            found = sorted(m for m in near if cls2[m] == cls1[n])
        for m in found:
            if m in inverse or (label_ok is not None and not label_ok(n, m)):
                continue
            budget.spend()
            # arcs between n and the mapped nodes must match arcs of m, both ways
            if (
                any(p in mapping and (mapping[p], m) not in arcs2 for p in pred1.get(n, ()))
                or any(s in mapping and (m, mapping[s]) not in arcs2 for s in succ1.get(n, ()))
                or any(p in inverse and (inverse[p], n) not in arcs1 for p in pred2.get(m, ()))
                or any(s in inverse and (n, inverse[s]) not in arcs1 for s in succ2.get(m, ()))
            ):
                continue
            mapping[n] = m
            inverse[m] = n
            yield
            del mapping[n], inverse[m]

    for _ in _depth_first(len(order), choices):
        return NodeBijection(tuple(sorted(mapping.items())))
    return None


def isomorphic(r1: Recipe, r2: Recipe, budget: int = DEFAULT_BUDGET) -> NodeBijection | None:
    """Kind- and arc-preserving bijection between the two graphs, or None."""
    return _match_bijection(r1, r2, _Budget(budget))


def equivalent(r1: Recipe, r2: Recipe, budget: int = DEFAULT_BUDGET) -> NodeBijection | None:
    """Isomorphism whose bijection preserves every node's type, or None."""
    return _match_bijection(r1, r2, _Budget(budget), typed=True)


def more_specific(
    r1: Recipe,
    r2: Recipe,
    hierarchies: Hierarchies,
    budget: int = DEFAULT_BUDGET,
) -> NodeBijection | None:
    """Isomorphism witnessing that every label of ``r1`` is a subtype of its image.

    ``r1`` is the more detailed recipe: its types sit at or below the
    corresponding types of ``r2``.
    """

    def label_ok(n: str, m: str) -> bool:
        h = hierarchies.for_kind(r1.graph.kind_of(n))
        return h.is_subtype(r1.type_of(n), r2.type_of(m))

    return _match_bijection(r1, r2, _Budget(budget), label_ok)


def is_subrecipe(r_small: Recipe, r_big: Recipe) -> bool:
    """True iff ``r_small`` is an induced sub-part of ``r_big`` with the same types.

    The arcs must be exactly those of ``r_big`` restricted to the kept nodes,
    and the typings must agree on every shared node.
    """
    gs, gb = r_small.graph, r_big.graph
    if not gs.comestibles <= gb.comestibles:
        return False
    if not gs.actions <= gb.actions:
        return False
    induced = frozenset(
        (s, t)
        for s, t in gb.arcs
        if (s in gs.comestibles and t in gs.actions)
        or (s in gs.actions and t in gs.comestibles)
    )
    if gs.arcs != induced:
        return False
    return all(r_small.type_of(n) == r_big.type_of(n) for n in gs.nodes)


def in_out_aligned(r1: Recipe, r2: Recipe) -> bool:
    """Same input and output node ids, typed identically in both recipes."""
    roles1, roles2 = roles(r1), roles(r2)
    if roles1.inputs != roles2.inputs or roles1.outputs != roles2.outputs:
        return False
    return all(
        r1.type_of(c) == r2.type_of(c) for c in roles1.inputs | roles1.outputs
    )


def finer_grained(
    r1: Recipe,
    r2: Recipe,
    budget: int = DEFAULT_BUDGET,
    fix_io: bool = False,
) -> OrderMap | None:
    """Witness that ``r1`` refines ``r2``: in-out aligned plus an order-preserving map.

    The map g sends nodes of ``r1`` to nodes of ``r2`` so that whenever a path
    orders two nodes in ``r1``, their images are ordered in ``r2``. The
    stricter ``fix_io`` variant additionally pins g to the identity on the
    shared input and output nodes.

    Without ``fix_io`` the answer is closed-form. The search would try the
    nodes of ``r1`` in sorted order, each against the nodes of ``r2`` in
    sorted order, and the first candidate, the least node of ``r2``, always
    passes because a path order is reflexive. So the witness is the constant
    map to that node, reached after exactly one expansion per node of ``r1``,
    and that is what is returned and charged, without building reach sets.
    """
    if not in_out_aligned(r1, r2):
        return None
    b = _Budget(budget)
    n1 = sorted(r1.graph.nodes)
    n2 = sorted(r2.graph.nodes)
    if not fix_io:
        if n1 and not n2:
            return None
        b.spend(len(n1))
        return OrderMap(tuple((n, n2[0]) for n in n1))
    pinned = roles(r1).inputs | roles(r1).outputs
    order = sorted(n1, key=lambda n: (n not in pinned, n))
    mapping: dict[str, str] = {}

    def choices(i: int):
        # the path order as reach sets, which each recipe caches
        n = order[i]
        after_n = r1.reachable_from(n)
        for m in [n] if n in pinned else n2:
            b.spend()
            after_m = r2.reachable_from(m)
            if any(
                (n_prev in after_n and m_prev not in after_m)
                or (n in r1.reachable_from(n_prev) and m not in r2.reachable_from(m_prev))
                for n_prev, m_prev in mapping.items()
            ):
                continue
            mapping[n] = m
            yield
            del mapping[n]

    for _ in _depth_first(len(order), choices):
        return OrderMap(tuple(sorted(mapping.items())))
    return None
