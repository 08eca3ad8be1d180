"""Acceptability tuples: which (input, action, output) type triples make sense.

A recipe is acceptable when every pair of arcs through an action is licensed
by some tuple. Tuple sets can be expanded along the hierarchies so that a
licensed triple also licenses nearby generalizations and specializations.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cached_property

from .core import Recipe
from .errors import SchemaError
from .typekb import Hierarchies, TypeHierarchy, side_document

POLICIES = ("exact", "path-comparable")
_ACCEPTABILITY_KEYS = frozenset({"tuples", "policy", "depth_limit"})


@dataclass(frozen=True)
class AcceptTuple:
    """One licensed (input type, action type, output type) combination."""

    input: str
    action: str
    output: str

    def as_list(self) -> list[str]:
        return [self.input, self.action, self.output]


@dataclass(frozen=True)
class AcceptabilitySet:
    """A finite set of acceptability tuples plus its matching policy."""

    tuples: frozenset[AcceptTuple]
    policy: str = "exact"
    depth_limit: int = 1

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")

    def __contains__(self, triple: AcceptTuple) -> bool:
        return triple in self.tuples


def accept_set(
    triples: Iterable[tuple[str, str, str] | AcceptTuple],
    policy: str = "exact",
    depth_limit: int = 1,
) -> AcceptabilitySet:
    items = frozenset(
        t if isinstance(t, AcceptTuple) else AcceptTuple(*t) for t in triples
    )
    return AcceptabilitySet(tuples=items, policy=policy, depth_limit=depth_limit)


def load_acceptability(
    doc, hierarchies: Hierarchies, where: str = "acceptability"
) -> AcceptabilitySet:
    """Parse ``{"tuples": [[in, act, out], ...], "policy": ..., "depth_limit": ...}``.

    A bare JSON array is accepted as shorthand for the ``tuples`` field.
    Type texts are resolved to canonical ids. Faults of shape and unknown
    types are located under ``where``.
    """
    doc, items = side_document(doc, "tuples", _ACCEPTABILITY_KEYS, where)
    tuples = []
    for path, item in items:
        if not (isinstance(item, list) and len(item) == 3 and all(isinstance(t, str) for t in item)):
            raise SchemaError(path, "expected an [input, action, output] triple of type names")
        t1, t2, t3 = item
        tuples.append(
            AcceptTuple(
                hierarchies.comestible.resolve_at(t1, path),
                hierarchies.action.resolve_at(t2, path),
                hierarchies.comestible.resolve_at(t3, path),
            )
        )
    policy = doc.get("policy", "exact")
    if policy not in POLICIES:
        raise SchemaError(f"{where}.policy", f"expected one of {POLICIES}")
    depth = doc.get("depth_limit", 1)
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise SchemaError(f"{where}.depth_limit", "expected a non-negative integer")
    return accept_set(tuples, policy=policy, depth_limit=depth)


@dataclass(frozen=True)
class ArcViolation:
    """One unlicensed (comestible, action, comestible) arc pair of a recipe."""

    input: str
    action: str
    output: str
    triple: AcceptTuple

    def __str__(self) -> str:
        return (
            f"({self.input}, {self.action}, {self.output}) typed "
            f"({self.triple.input}, {self.triple.action}, {self.triple.output}) is not licensed"
        )


def arc_triples(recipe: Recipe) -> list[tuple[str, str, str]]:
    """All (c, a, c') node triples where (c, a) and (a, c') are arcs."""
    graph = recipe.graph
    triples = []
    for a in sorted(graph.actions):
        ins = sorted(graph.predecessors(a))
        outs = sorted(graph.successors(a))
        for c in ins:
            for c2 in outs:
                triples.append((c, a, c2))
    return triples


class _Licences:
    """Which (input, action, output) type triples the tuples of one set license.

    A tuple licenses a triple when each slot matches on its own: the types
    are equal under the exact policy, or comparable within ``depth_limit``
    steps otherwise. Only a canonical type id of the slot's kind matches; an
    alias, an unknown text or a type of the other kind matches no slot. The
    tuples are indexed by action, and comparability within k steps is
    symmetric, so a triple is tested only against the tuples whose action
    matches its own. The types each of those tuples' slots match are worked
    out the first time a triple reaches its action; under a non-exact
    policy, a tuple's input or output text that names no comestible type
    raises ``UnknownTypeError`` then.
    """

    def __init__(self, accepts: AcceptabilitySet, hierarchies: Hierarchies):
        self._tuples = accepts.tuples
        self._exact = accepts.policy == "exact"
        self._depth = accepts.depth_limit
        self._com, self._act = hierarchies.comestible, hierarchies.action
        self._slots: dict[tuple[str, str], frozenset[str]] = {}
        self._pairs: dict[str, list[tuple[frozenset[str], frozenset[str]]]] = {}
        self._answers: dict[tuple[str, str, str], bool] = {}

    @cached_property
    def _by_action(self) -> dict[str, list[tuple[str, str]]]:
        """The tuples' (input, output) pairs by action, built on first use."""
        index: dict[str, list[tuple[str, str]]] = {}
        for t in self._tuples:
            action = t.action
            if not self._exact and action in self._act:
                action = self._act.resolve(action)
            index.setdefault(action, []).append((t.input, t.output))
        return index

    def _matched(self, action: str) -> list[tuple[frozenset[str], frozenset[str]]]:
        """The types that the input and output slots of each tuple of ``action`` match."""
        found = self._pairs.get(action)
        if found is None:
            com = self._com
            found = self._pairs[action] = [
                (self._match(com, i), self._match(com, o)) for i, o in self._by_action[action]
            ]
        return found

    def _match(self, h: TypeHierarchy, t: str) -> frozenset[str]:
        """The types that a tuple slot holding ``t`` licenses under the policy."""
        key = (h.kind, t)
        found = self._slots.get(key)
        if found is None:
            if self._exact:
                found = frozenset((t,))
            else:
                found = h.comparable_within(t, self._depth)
            self._slots[key] = found
        return found

    def _licensed(self, types: tuple[str, str, str]) -> bool:
        """True when some tuple licenses the (input, action, output) ``types``."""
        found = self._answers.get(types)
        if found is None:
            found = self._answers[types] = AcceptTuple(*types) in self._tuples or (
                not self._exact and self._licensed_near(*types)
            )
        return found

    def _licensed_near(self, i: str, a: str, o: str) -> bool:
        """The non-exact test, through the tuples of the actions comparable to ``a``."""
        act = self._act
        if a not in act or act.resolve(a) != a:
            return False
        for action in self._match(act, a) & self._by_action.keys():
            for ins, outs in self._matched(action):
                if i in ins and o in outs:
                    return True
        return False

    def _supports(self, slots, sets: list[set[str]]) -> dict[int, set[str]]:
        """Per domain position of one triple, its types that some tuple licenses.

        ``slots`` gives, for input, action and output, a domain position or
        None with the fixed type; ``sets`` holds each position's canonical
        types. A type at one position is supported when some tuple matches
        it there, matches the fixed types, and matches at least one remaining
        type at every other position.
        """
        ins, acts, outs = (sets[j] if j is not None else {t} for j, t in slots)
        found: dict[int, set[str]] = {j: set() for j, _ in slots if j is not None}
        actions = {b for a in acts for b in self._match(self._act, a)}
        for action in actions & self._by_action.keys():
            act_hit = acts & self._match(self._act, action)
            for t_ins, t_outs in self._matched(action):
                if ins.isdisjoint(t_ins) or outs.isdisjoint(t_outs):
                    continue
                for (j, _), hit in zip(slots, (ins & t_ins, act_hit, outs & t_outs)):
                    if j is not None:
                        found[j] |= hit
        return found


def check_acceptable(
    recipe: Recipe, accepts: AcceptabilitySet, hierarchies: Hierarchies
) -> list[ArcViolation]:
    """Return every unlicensed arc pair; an empty list means the recipe is acceptable.

    All offending pairs are reported, not just the first, so substitution
    planners can see the full repair surface.
    """
    licences = _Licences(accepts, hierarchies)
    violations = []
    for c, a, c2 in arc_triples(recipe):
        types = (recipe.type_of(c), recipe.type_of(a), recipe.type_of(c2))
        if not licences._licensed(types):
            violations.append(ArcViolation(c, a, c2, AcceptTuple(*types)))
    return violations


def is_acceptable(
    recipe: Recipe, accepts: AcceptabilitySet, hierarchies: Hierarchies
) -> bool:
    return not check_acceptable(recipe, accepts, hierarchies)


def expand_tuples(accepts: AcceptabilitySet, hierarchies: Hierarchies) -> AcceptabilitySet:
    """The exact set that licenses what ``accepts`` licenses.

    Under the exact policy the set is returned unchanged. Otherwise every
    tuple comparable to one of its tuples within ``depth_limit`` steps is
    added, and the result's policy is exact, so expanding it again returns it.
    """
    if accepts.policy == "exact":
        return accepts
    depth = accepts.depth_limit
    h_com, h_act = hierarchies.comestible, hierarchies.action
    generated: set[AcceptTuple] = set()
    for seed in accepts.tuples:
        ins = h_com.comparable_within(seed.input, depth)
        acts_ = h_act.comparable_within(seed.action, depth)
        outs = h_com.comparable_within(seed.output, depth)
        for t1 in ins:
            for t2 in acts_:
                for t3 in outs:
                    generated.add(AcceptTuple(t1, t2, t3))
    return replace(accepts, tuples=accepts.tuples | frozenset(generated), policy="exact")
