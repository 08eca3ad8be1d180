"""The five recipe-comparison relations.

* isomorphic: same shape (kind- and arc-preserving bijection);
* subrecipe: one recipe is an induced, identically-typed part of another;
* equivalent: isomorphic with identical labels;
* in-out aligned: same input and output nodes with the same types;
* finer-grained: in-out aligned with an order-preserving map between them;
* more specific: isomorphic with labels at or below the other's.

All searches are exhaustive backtracking over small sparse graphs, pruned by
(kind, in-degree, out-degree) signatures and made total by an expansion
budget: exceeding it raises BudgetExceededError, which is distinct from a
definite negative answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Recipe, roles
from .errors import BudgetExceededError
from .typekb import Hierarchies

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


def _signature(recipe: Recipe, n: str) -> tuple[str, int, int]:
    g = recipe.graph
    return (g.kind_of(n), g.in_degree(n), g.out_degree(n))


def _match_bijection(r1: Recipe, r2: Recipe, budget: _Budget, label_ok) -> dict[str, str] | None:
    """Backtracking search for an arc- and kind-preserving bijection.

    ``label_ok(n, m)`` adds the per-relation label constraint. Candidates are
    tried in sorted order, so the witness is deterministic.
    """
    g1, g2 = r1.graph, r2.graph
    if len(g1.comestibles) != len(g2.comestibles):
        return None
    if len(g1.actions) != len(g2.actions):
        return None
    if len(g1.arcs) != len(g2.arcs):
        return None

    sig2: dict[tuple[str, int, int], list[str]] = {}
    for m in sorted(g2.nodes):
        sig2.setdefault(_signature(r2, m), []).append(m)
    candidates: dict[str, list[str]] = {}
    for n in g1.nodes:
        pool = [m for m in sig2.get(_signature(r1, n), []) if label_ok(n, m)]
        if not pool:
            return None
        candidates[n] = pool

    # most-constrained-first keeps the tree small on sparse graphs
    order = sorted(g1.nodes, key=lambda n: (len(candidates[n]), n))
    mapping: dict[str, str] = {}
    inverse: dict[str, str] = {}

    def consistent(n: str, m: str) -> bool:
        for p in g1.predecessors(n):
            if p in mapping and (mapping[p], m) not in g2.arcs:
                return False
        for s in g1.successors(n):
            if s in mapping and (m, mapping[s]) not in g2.arcs:
                return False
        # mapped neighbours of m must be neighbours of n in the same direction
        for p in g2.predecessors(m):
            if p in inverse and (inverse[p], n) not in g1.arcs:
                return False
        for s in g2.successors(m):
            if s in inverse and (n, inverse[s]) not in g1.arcs:
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        n = order[i]
        for m in candidates[n]:
            if m in inverse:
                continue
            budget.spend()
            if not consistent(n, m):
                continue
            mapping[n] = m
            inverse[m] = n
            if extend(i + 1):
                return True
            del mapping[n]
            del inverse[m]
        return False

    return dict(mapping) if extend(0) else None


def isomorphic(r1: Recipe, r2: Recipe, budget: int = DEFAULT_BUDGET) -> NodeBijection | None:
    """Kind- and arc-preserving bijection between the two graphs, or None."""
    found = _match_bijection(r1, r2, _Budget(budget), lambda n, m: True)
    if found is None:
        return None
    return NodeBijection(tuple(sorted(found.items())))


def equivalent(r1: Recipe, r2: Recipe, budget: int = DEFAULT_BUDGET) -> NodeBijection | None:
    """Isomorphism whose bijection preserves every node's type, or None."""
    found = _match_bijection(
        r1, r2, _Budget(budget), lambda n, m: r1.type_of(n) == r2.type_of(m)
    )
    if found is None:
        return None
    return NodeBijection(tuple(sorted(found.items())))


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

    found = _match_bijection(r1, r2, _Budget(budget), label_ok)
    if found is None:
        return None
    return NodeBijection(tuple(sorted(found.items())))


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
    """
    if not in_out_aligned(r1, r2):
        return None
    b = _Budget(budget)
    n1 = sorted(r1.graph.nodes)
    n2 = sorted(r2.graph.nodes)
    fixed: dict[str, str] = {}
    if fix_io:
        shared = roles(r1).inputs | roles(r1).outputs
        fixed = {n: n for n in shared}

    # leq as explicit relations; reachable_from caches per recipe
    def leq1(a: str, c: str) -> bool:
        return c in r1.reachable_from(a)

    def leq2(a: str, c: str) -> bool:
        return c in r2.reachable_from(a)

    mapping: dict[str, str] = {}

    def ok(n: str, m: str) -> bool:
        for n_prev, m_prev in mapping.items():
            if leq1(n, n_prev) and not leq2(m, m_prev):
                return False
            if leq1(n_prev, n) and not leq2(m_prev, m):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(n1):
            return True
        n = order[i]
        pool = [fixed[n]] if n in fixed else n2
        for m in pool:
            b.spend()
            if ok(n, m):
                mapping[n] = m
                if extend(i + 1):
                    return True
                del mapping[n]
        return False

    order = sorted(n1, key=lambda n: (n not in fixed, n))
    if extend(0):
        return OrderMap(tuple(sorted(mapping.items())))
    return None
