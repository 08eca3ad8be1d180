"""Structural substitution: replacing a subrecipe by another subrecipe.

The replaced part must be untrimmed (it contains every comestible its actions
touch in the host recipe) and the replacement must plug into the same front
nodes, the comestibles where the part interfaces with the rest of the host,
with arcs in the same directions. Five side conditions govern applicability:

  i.   every front node is an input or output of the replacement;
  ii.  the replacement is parallel to the replaced part at the front;
  iii. the replaced part is an untrimmed subrecipe of the host;
  iv.  the replacement introduces no node ids already owned by the kept part;
  v.   no kept comestible's type is comparable to an inserted comestible's
       type, except on the identical node.

A failed substitution is a value (RewriteFailure), not an exception.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .acceptability import AcceptabilitySet, check_acceptable
from .core import OperationFailure, Recipe, Violation, assemble, recipe_graph, roles
from .errors import NotSubrecipeError, RewriteFailureError
from .compare import DEFAULT_BUDGET, _Budget, _depth_first, is_subrecipe
from .typekb import DistanceModel, Hierarchies


@dataclass(frozen=True)
class RewriteStep:
    """One substitution: remove one subrecipe, insert another."""

    remove: Recipe
    insert: Recipe


@dataclass(frozen=True)
class RewriteFailure(OperationFailure):
    """Evidence for every violated side condition. Falsy on purpose.

    ``step`` is set when the failure happened inside a sequence.
    """

    step: int | None = None
    operation = "structural substitution"

    def _where(self) -> str:
        return f" at step {self.step}" if self.step is not None else ""


def front(host: Recipe, part: Recipe) -> frozenset[str]:
    """Comestibles where ``part`` interfaces with the rest of ``host``.

    These are the part's inputs and outputs that are not inputs or outputs of
    the host itself. Raises NotSubrecipeError when ``part`` is not a
    subrecipe of ``host``.
    """
    if not is_subrecipe(part, host):
        raise NotSubrecipeError("front is only defined for subrecipes")
    return _front(host, part)


def _front(host: Recipe, part: Recipe) -> frozenset[str]:
    host_roles, part_roles = roles(host), roles(part)
    return (part_roles.outputs - host_roles.outputs) | (
        part_roles.inputs - host_roles.inputs
    )


def is_untrimmed_subrecipe(part: Recipe, host: Recipe) -> bool:
    """True iff ``part`` is a subrecipe keeping every comestible its actions touch."""
    return is_subrecipe(part, host) and _keeps_touched(part, host)


def _keeps_touched(part: Recipe, host: Recipe) -> bool:
    part_nodes = part.graph.nodes
    return all(
        (host.graph.predecessors(a) | host.graph.successors(a)) <= part_nodes
        for a in part.graph.actions
    )


def is_parallel(part: Recipe, replacement: Recipe, host: Recipe) -> bool:
    """True iff the replacement offers arcs in the part's directions at each front node."""
    return _parallel_at(front(host, part), part, replacement)


def _parallel_at(fr: frozenset[str], part: Recipe, replacement: Recipe) -> bool:
    g, r = part.graph, replacement.graph
    for c in fr:
        if g.out_degree(c) and not r.out_degree(c):
            return False
        if g.in_degree(c) and not r.in_degree(c):
            return False
    return True


def structural_substitute(
    host: Recipe,
    part: Recipe,
    replacement: Recipe,
    hierarchies: Hierarchies,
) -> Recipe | RewriteFailure:
    """Replace ``part`` inside ``host`` by ``replacement``.

    Checks side conditions i-v, reporting all of them on failure, and
    re-validates the assembled result.
    """
    violations: list[Violation] = []

    subrecipe = is_subrecipe(part, host)
    if not (subrecipe and _keeps_touched(part, host)):
        violations.append(
            Violation("iii", "the removed part is not an untrimmed subrecipe of the host")
        )
    if subrecipe:
        fr = _front(host, part)
        repl_roles = roles(replacement)
        missing = fr - (repl_roles.inputs | repl_roles.outputs)
        if missing:
            violations.append(
                Violation(
                    "i",
                    "front nodes missing from the replacement's inputs and outputs",
                    nodes=tuple(sorted(missing)),
                )
            )
        if not _parallel_at(fr, part, replacement):
            violations.append(
                Violation("ii", "replacement arcs do not match the part's directions at the front")
            )

    kept = host.graph.nodes - part.graph.nodes
    stolen = kept & replacement.graph.nodes
    if stolen:
        violations.append(
            Violation(
                "iv",
                "replacement reuses node ids of the kept part",
                nodes=tuple(sorted(stolen)),
            )
        )

    # Condition v protects the typing rule of the result, which constrains
    # comestibles only: actions may share or refine each other's types freely
    # (a host with two equally typed actions must still satisfy R[R1/R1] = R).
    kept_types = {n: host.type_of(n) for n in kept & host.graph.comestibles}
    inserted = {m: replacement.type_of(m) for m in replacement.graph.comestibles}
    violations += [
        Violation(
            "v",
            "kept comestible's type is comparable to an inserted one's",
            nodes=(n, m),
            types=(kept_types[n], inserted[m]),
        )
        for n, m in hierarchies.comestible._comparable_pairs(kept_types, inserted)
        if n != m
    ]
    if violations:
        return RewriteFailure(tuple(violations))

    graph = recipe_graph(
        (host.graph.comestibles - part.graph.comestibles) | replacement.graph.comestibles,
        (host.graph.actions - part.graph.actions) | replacement.graph.actions,
        (host.graph.arcs - part.graph.arcs) | replacement.graph.arcs,
    )
    typing = {n: t for n, t in host.typing.items() if n in kept} | replacement.typing
    # conditions i-v can hold while the assembly still breaks a structural
    # rule, e.g. when the part swallows a comestible the kept actions use
    return assemble(graph, typing, hierarchies, RewriteFailure)


def apply_sequence(
    host: Recipe,
    steps: Sequence[RewriteStep],
    hierarchies: Hierarchies,
) -> Recipe | RewriteFailure:
    """Left-to-right fold of structural substitutions.

    The empty sequence returns the host unchanged; the first failing step
    aborts and its index is recorded on the failure.
    """
    current = host
    for i, step in enumerate(steps):
        result = structural_substitute(current, step.remove, step.insert, hierarchies)
        if isinstance(result, RewriteFailure):
            return replace(result, step=i)
        current = result
    return current


def verify_secondary_sequence(
    host: Recipe,
    primary: Sequence[RewriteStep],
    secondary: Sequence[RewriteStep],
    accepts: AcceptabilitySet,
    hierarchies: Hierarchies,
) -> bool:
    """Does the secondary sequence repair acceptability after the primary one?

    True iff the combined sequence applies and its result is acceptable. A
    sequence that does not even apply raises RewriteFailureError rather than
    answering False, so structural impossibility stays distinguishable from
    an unacceptable outcome.
    """
    result = apply_sequence(host, list(primary) + list(secondary), hierarchies)
    if isinstance(result, RewriteFailure):
        raise RewriteFailureError(result)
    return not check_acceptable(result, accepts, hierarchies)


def search_secondary_steps(
    host: Recipe,
    primary: Sequence[RewriteStep],
    library: Sequence[RewriteStep],
    accepts: AcceptabilitySet,
    hierarchies: Hierarchies,
    max_steps: int = 2,
    budget: int = 10**5,
) -> list[tuple[RewriteStep, ...]]:
    """Bounded enumeration of secondary sequences drawn from a step library.

    Tries every sequence of up to ``max_steps`` library steps after the
    primary sequence and returns those whose result is acceptable, shortest
    first; sequences of one length come in library order of their first
    step, then of their second, and so on. Only user-supplied steps are
    considered; there is no synthesis of replacement subrecipes from
    scratch. A ``max_steps`` of zero or less tries only the empty sequence.
    """
    after_primary = apply_sequence(host, primary, hierarchies)
    if isinstance(after_primary, RewriteFailure):
        raise RewriteFailureError(after_primary)

    b = _Budget(budget)
    found: list[tuple[RewriteStep, ...]] = []
    if not check_acceptable(after_primary, accepts, hierarchies):
        found.append(())
    # the recipe after the first i chosen steps, and those steps
    current: list[Recipe] = [after_primary]
    chosen: list[RewriteStep] = []

    def choices(i: int):
        for step in library:
            b.spend()
            result = structural_substitute(current[i], step.remove, step.insert, hierarchies)
            if isinstance(result, RewriteFailure):
                continue
            current.append(result)
            chosen.append(step)
            if not check_acceptable(result, accepts, hierarchies):
                found.append(tuple(chosen))
            yield
            current.pop()
            chosen.pop()

    for _ in _depth_first(max_steps, choices):
        pass
    found.sort(key=len)
    return found


@dataclass(frozen=True)
class StructuralCostModel:
    """Tunable weights for the heuristic edit cost between two recipes.

    The default charges ``edit_weight`` per inserted or deleted node and per
    arc that the best same-kind node matching cannot carry over, plus the
    type distance between matched nodes. This is a pragmatic default, not a
    canonical definition; reports should mark it non-normative.
    """

    distances: DistanceModel = field(default_factory=DistanceModel)
    edit_weight: float = 1.0


def structural_cost(
    r1: Recipe,
    r2: Recipe,
    hierarchies: Hierarchies,
    model: StructuralCostModel | None = None,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Heuristic edit distance between two recipes.

    Minimizes, over injective same-kind node matchings that are total on the
    smaller side, the weighted count of unmatched nodes and unpreserved arcs
    plus the summed type distance of matched pairs.

    Branch and bound over the nodes of ``r1``, actions before comestibles so
    that arcs are decided early. After deciding the first ``i`` nodes at
    label cost ``spent``, every completion costs at least

        spent + tail[i] + sum(colmin[i][m] for m unused)
        + edit_weight * (unmatched + |A1| + |A2| - 2 * min(|A1|, |A2|, carried + open))

    where ``tail[i]`` sums each remaining node's cheapest partner cost over
    the kinds on which every node of ``r1`` must be matched, and
    ``colmin[i][m]`` is the cheapest partner of a node ``m`` of ``r2`` among
    the remaining nodes of ``r1``, for the kinds on which ``r1`` has spare
    nodes and so every node of ``r2`` must be matched. Each kind is bounded
    by one of the two terms, never both. ``carried`` counts the arcs of
    ``r1`` already carried onto arcs of ``r2`` and ``open`` the arcs of
    ``r1`` with an end not yet decided. A partial matching whose bound
    reaches the best total found is pruned; the bound is admissible, so the
    minimum is exact (Riesen & Bunke, Image and Vision Computing 2009, give
    the bipartite view behind both label terms). Every option tried costs
    one expansion of ``budget``; overspending raises BudgetExceededError.
    """
    r1.graph._check_arcs()
    r2.graph._check_arcs()
    if model is None:
        model = StructuralCostModel()
    w = model.edit_weight
    b = _Budget(budget)
    arcs1, arcs2 = r1.graph.arcs, r2.graph.arcs
    max_carried = min(len(arcs1), len(arcs2))

    # one entry per node of r1: (node, kind, partners by cost, cheapest cost)
    order: list[tuple[str, str, list[tuple[float, str]], float]] = []
    excess: dict[str, int] = {}
    unmatched = 0
    for kind, left, right in (
        ("action", r1.graph.actions, r2.graph.actions),
        ("comestible", r1.graph.comestibles, r2.graph.comestibles),
    ):
        h = hierarchies.for_kind(kind)
        excess[kind] = len(left) - len(right)
        unmatched += abs(excess[kind])
        for n in sorted(left):
            partners = sorted(
                (model.distances.distance(h, r1.type_of(n), r2.type_of(m)), m)
                for m in right
            )
            cheapest = partners[0][0] if partners and excess[kind] <= 0 else 0.0
            order.append((n, kind, partners, cheapest))
    tail = [0.0] * (len(order) + 1)
    # colmin[i] maps each node of r2 whose kind has spare r1 nodes to its
    # cheapest partner at position i or later, while its kind has one left
    colmin: list[dict[str, float]] = [{}] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        _, kind, partners, cheapest = order[i]
        tail[i] = tail[i + 1] + cheapest
        if excess[kind] > 0:
            colmin[i] = dict(colmin[i + 1])
            for d, m in partners:
                if d < colmin[i].get(m, math.inf):
                    colmin[i][m] = d
        else:
            colmin[i] = colmin[i + 1]
    edits = unmatched + len(arcs1) + len(arcs2)  # before carried arcs are taken off
    # arcs of r1 are decided by their later endpoint in ``order``
    position = {n: i for i, (n, *_) in enumerate(order)}
    closing: list[list[tuple[str, str]]] = [[] for _ in order]
    for s, t in arcs1:
        closing[max(position[s], position[t])].append((s, t))

    mapping: dict[str, str] = {}
    used: set[str] = set()
    skipped = dict.fromkeys(excess, 0)
    # (label cost, arcs carried, arcs open, bound) before node i is decided
    root = tail[0] + sum(colmin[0].values()) + w * (edits - 2 * max_carried)
    state = [(0.0, 0, len(arcs1), root)]
    best = math.inf

    def choices(i: int):
        """Decide node ``i`` each way whose bound stays below the best total."""
        spent, carried, open_, _ = state[i]
        n, kind, partners, _ = order[i]
        arcs_here = closing[i]
        open_ -= len(arcs_here)
        rest = tail[i + 1]
        cols = colmin[i + 1]
        if cols:
            # the unused nodes of r2 that the remaining nodes of r1 must match
            rest += sum(c for m, c in cols.items() if m not in used)
        if skipped[kind] < excess[kind]:
            # n may stay unmatched while r1 has spare nodes of its kind
            b.spend()
            bound = spent + rest + w * (edits - 2 * min(max_carried, carried + open_))
            if bound < best:
                skipped[kind] += 1
                state.append((spent, carried, open_, bound))
                yield
                state.pop()
                skipped[kind] -= 1
        for d, m in partners:
            if m in used:
                continue
            b.spend()
            mapping[n] = m
            kept = carried + sum(
                1
                for s, t in arcs_here
                if s in mapping and t in mapping and (mapping[s], mapping[t]) in arcs2
            )
            spent_m = spent + d
            rest_m = rest - cols[m] if m in cols else rest
            bound = spent_m + rest_m + w * (edits - 2 * min(max_carried, kept + open_))
            if bound < best:
                used.add(m)
                state.append((spent_m, kept, open_, bound))
                yield
                state.pop()
                used.discard(m)
            del mapping[n]

    for _ in _depth_first(len(order), choices):
        best = state[-1][3]  # every arc is decided: the bound is the total
    return best
