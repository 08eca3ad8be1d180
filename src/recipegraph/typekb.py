"""Type hierarchies for actions and comestibles, plus type-distance models.

A hierarchy is a rooted DAG of type identifiers: every node is a subtype of
its ancestors, and two types are *comparable* when one is an ancestor of the
other. Type texts may be written in different ways; an alias table maps every
accepted spelling to one canonical identifier. Hierarchies are immutable after
load and all queries are pure.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass, field

from .errors import (
    CycleDetectedError,
    DanglingEdgeError,
    DuplicateAliasError,
    MultipleRootsError,
    NoRootError,
    SchemaError,
    UnknownReferenceError,
    UnknownTypeError,
)

KINDS = ("action", "comestible")
_HIERARCHY_KEYS = frozenset({"kind", "root", "types"})
_TYPE_KEYS = frozenset({"id", "parents", "aliases"})
_DISTANCES_KEYS = frozenset({"pairs", "generalization_penalty", "step_cost"})

def bfs(
    start: str, neighbours: Callable[[str], Iterable[str]], radius: int | None = None
) -> dict[str, int]:
    """Least number of steps from ``start`` to each node it reaches, itself at 0.

    ``neighbours`` gives the nodes one step away from a node. With ``radius``
    the search stops at nodes that many steps away.
    """
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        steps = dist[cur] + 1
        if radius is not None and steps > radius:
            continue
        for nxt in neighbours(cur):
            if nxt not in dist:
                dist[nxt] = steps
                queue.append(nxt)
    return dist


class TypeHierarchy:
    """Rooted DAG of type ids answering subtype, comparability, and depth queries.

    Construct through :func:`load_hierarchy`, which validates the invariants
    (acyclic, single root, no dangling edges, unambiguous aliases). Loading
    is linear in the number of types: a type's up and down distances are
    computed by one breadth-first search the first time a query needs them,
    and cached on the instance with the comparable sets built from them.
    """

    def __init__(
        self,
        kind: str,
        root: str,
        parents: Mapping[str, frozenset[str]],
        aliases: Mapping[str, str],
    ):
        self.kind = kind
        self.root = root
        self._parents = {t: frozenset(ps) for t, ps in parents.items()}
        self._aliases = dict(aliases)
        self._children: dict[str, set[str]] = {t: set() for t in self._parents}
        for t, ps in self._parents.items():
            for p in ps:
                self._children[p].add(t)
        # per type, the least steps up to each ancestor and down to each descendant
        self._up: dict[str, dict[str, int]] = {}
        self._down: dict[str, dict[str, int]] = {}
        self._comparable: dict[tuple[str, int | None], frozenset[str]] = {}
        self.depth = max(self._down_from(root).values())

    def _up_from(self, t: str) -> dict[str, int]:
        dist = self._up.get(t)
        if dist is None:
            dist = self._up[t] = bfs(t, self._parents.__getitem__)
        return dist

    def _down_from(self, t: str) -> dict[str, int]:
        dist = self._down.get(t)
        if dist is None:
            dist = self._down[t] = bfs(t, self._children.__getitem__)
        return dist

    @property
    def types(self) -> frozenset[str]:
        return frozenset(self._parents)

    @property
    def aliases(self) -> dict[str, str]:
        return dict(self._aliases)

    def __contains__(self, text: str) -> bool:
        return text in self._parents or text in self._aliases

    def resolve(self, text: str) -> str:
        """Map any accepted spelling to its canonical type id."""
        if text in self._parents:
            return text
        if text in self._aliases:
            return self._aliases[text]
        raise UnknownTypeError(text, self.kind)

    def resolve_at(self, text: str, where: str) -> str:
        """``resolve``, with an unknown text reported as an UnknownReferenceError at ``where``."""
        try:
            return self.resolve(text)
        except UnknownTypeError:
            raise UnknownReferenceError(
                f"{where}: type {text!r} is not in the {self.kind} hierarchy"
            ) from None

    def parents(self, t: str) -> frozenset[str]:
        return self._parents[self.resolve(t)]

    def is_subtype(self, t1: str, t2: str) -> bool:
        """True iff ``t1`` equals ``t2`` or sits below it in the hierarchy."""
        t1, t2 = self.resolve(t1), self.resolve(t2)
        return t2 in self._up_from(t1)

    def comparable(self, t1: str, t2: str) -> bool:
        """True iff one of the two types is an ancestor-or-self of the other."""
        near = self.comparable_within(t1)
        return self.resolve(t2) in near

    def ancestors(self, t: str, within: int | None = None) -> frozenset[str]:
        """Ancestors of ``t`` including itself, optionally capped at ``within`` steps."""
        dist = self._up_from(self.resolve(t))
        if within is None:
            return frozenset(dist)
        return frozenset(u for u, d in dist.items() if d <= within)

    def descendants(self, t: str, within: int | None = None) -> frozenset[str]:
        dist = self._down_from(self.resolve(t))
        if within is None:
            return frozenset(dist)
        return frozenset(u for u, d in dist.items() if d <= within)

    def comparable_within(self, t: str, steps: int | None = None) -> frozenset[str]:
        """Types comparable to ``t`` within ``steps`` up or down moves (None: any), cached."""
        found = self._comparable.get((t, steps))
        if found is None:
            found = self.ancestors(t, steps) | self.descendants(t, steps)
            self._comparable[t, steps] = found
        return found

    def _comparable_pairs(self, left: Mapping[str, str], right: Mapping[str, str]) -> list:
        """Sorted ``(n, m)`` of ``left`` and ``right`` nodes whose type texts are comparable."""
        if not left or not right:
            return []
        by_type: dict[str, list[str]] = {}
        for m, u in right.items():
            by_type.setdefault(self.resolve(u), []).append(m)
        pairs = []
        for n, t in left.items():
            for u in self.comparable_within(t):
                for m in by_type.get(u, ()):
                    pairs.append((n, m))
        return sorted(pairs)

    def relatives(self, t: str, radius: int) -> frozenset[str]:
        """Types within ``radius`` steps of ``t`` treating edges as undirected."""
        return frozenset(
            bfs(self.resolve(t), lambda u: self._parents[u] | self._children[u], radius)
        )

    def up_distance(self, t: str, ancestor: str) -> int | None:
        """Least number of upward steps from ``t`` to ``ancestor``, or None."""
        return self._up_from(self.resolve(t)).get(self.resolve(ancestor))

    def __repr__(self) -> str:  # pragma: no cover
        return f"TypeHierarchy(kind={self.kind!r}, root={self.root!r}, {len(self._parents)} types)"


@dataclass(frozen=True)
class Hierarchies:
    """The pair of hierarchies a workspace reasons over, one per node kind."""

    action: TypeHierarchy
    comestible: TypeHierarchy

    def for_kind(self, kind: str) -> TypeHierarchy:
        if kind == "action":
            return self.action
        if kind == "comestible":
            return self.comestible
        raise ValueError(f"unknown kind {kind!r}")

    def kind_of_type(self, text: str) -> str | None:
        """Which hierarchy declares ``text``, if any."""
        if text in self.comestible:
            return "comestible"
        if text in self.action:
            return "action"
        return None


def check_keys(doc: Mapping, allowed: frozenset[str], where: str) -> None:
    """Raise a SchemaError at ``where`` naming the first key of ``doc`` outside ``allowed``."""
    if not doc.keys() <= allowed:
        key = next(k for k in doc if k not in allowed)
        raise SchemaError(where, f"unknown key {key!r}")


def load_hierarchy(doc: Mapping, where: str = "hierarchy") -> TypeHierarchy:
    """Build a validated hierarchy from its JSON document form.

    The document is ``{"kind", "root", "types": [{"id", "parents", "aliases"}]}``.
    Raises CycleDetectedError, MultipleRootsError, NoRootError,
    DanglingEdgeError, or DuplicateAliasError when the invariants fail, and
    SchemaError when the document shape is wrong, holds an unknown key or
    repeats a type id; every message starts with ``where``.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError(where, "expected an object")
    check_keys(doc, _HIERARCHY_KEYS, where)
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"{where}.kind", f"expected one of {KINDS}, got {kind!r}")
    root = doc.get("root")
    if not isinstance(root, str) or not root:
        raise SchemaError(f"{where}.root", "expected a non-empty string")
    entries = doc.get("types")
    if not isinstance(entries, list):
        raise SchemaError(f"{where}.types", "expected a list")

    parents: dict[str, frozenset[str]] = {}
    aliases: dict[str, str] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise SchemaError(f"{where}.types[{i}]", "expected an object")
        if not entry.keys() <= _TYPE_KEYS:  # the path is built only for the fault
            check_keys(entry, _TYPE_KEYS, f"{where}.types[{i}]")
        tid = entry.get("id")
        if not isinstance(tid, str) or not tid:
            raise SchemaError(f"{where}.types[{i}].id", "expected a non-empty string")
        if tid in parents:
            raise SchemaError(f"{where}.types[{i}].id", f"duplicate type id {tid!r}")
        ps = entry.get("parents", [])
        if not isinstance(ps, list) or not all(isinstance(p, str) for p in ps):
            raise SchemaError(f"{where}.types[{i}].parents", "expected a list of strings")
        parents[tid] = frozenset(ps)
        names = entry.get("aliases", [])
        if not isinstance(names, list) or not all(isinstance(a, str) for a in names):
            raise SchemaError(f"{where}.types[{i}].aliases", "expected a list of strings")
        for alias in names:
            if alias in aliases and aliases[alias] != tid:
                raise DuplicateAliasError(alias, (aliases[alias], tid), where)
            aliases[alias] = tid

    for alias, target in aliases.items():
        if alias in parents and alias != target:
            raise DuplicateAliasError(alias, (alias, target), where)
    for entry, (t, ps) in zip(entries, parents.items()):
        if not ps <= parents.keys():
            p = next(p for p in entry["parents"] if p not in parents)  # in document order
            raise DanglingEdgeError(t, p, where)

    cycle = find_cycle(parents, parents)
    if cycle is not None:
        raise CycleDetectedError(cycle, where)

    parentless = sorted(t for t, ps in parents.items() if not ps)
    if root not in parents:
        raise NoRootError(f"{where}: declared root {root!r} is not among the types")
    if len(parentless) > 1:
        raise MultipleRootsError(tuple(parentless), where)
    if parentless != [root]:
        raise NoRootError(
            f"{where}: declared root {root!r} has parents; maximal node is {parentless[0]!r}"
        )

    return TypeHierarchy(kind, root, parents, aliases)


def topological_order(nodes: Iterable[str], succ: Mapping[str, Iterable[str]]) -> list[str]:
    """The ``nodes`` that no cycle reaches, each one after all of its predecessors.

    ``succ.get(n, ())`` gives the successors of ``n``; successors outside
    ``nodes`` are ignored. Kahn's peel places a node once every predecessor
    is placed, so the nodes on a cycle, and those behind one, are left out.
    """
    waiting = dict.fromkeys(nodes, 0)
    for n in waiting:
        for t in succ.get(n, ()):
            if t in waiting:
                waiting[t] += 1
    order = [n for n, d in waiting.items() if not d]
    for n in order:  # grows while it is read
        for t in succ.get(n, ()):
            d = waiting.get(t)
            if d is not None:
                waiting[t] = d - 1
                if d == 1:
                    order.append(t)
    return order


def find_cycle(
    nodes: Collection[str], succ: Mapping[str, Iterable[str]]
) -> tuple[str, ...] | None:
    """One directed cycle through ``nodes`` as a closed walk (first node repeated last), or None.

    ``nodes`` and ``succ`` are read as ``topological_order`` reads them.
    Every node that it leaves out has a predecessor among the others left
    out, so walking predecessors from the least of them must repeat a node.
    """
    order = topological_order(nodes, succ)
    if len(order) == len(nodes):
        return None
    left = set(nodes).difference(order)
    pred: dict[str, list[str]] = {n: [] for n in left}
    for n in left:
        for t in succ.get(n, ()):
            if t in pred:
                pred[t].append(n)
    walk: dict[str, int] = {}
    cur = min(left)
    while cur not in walk:
        walk[cur] = len(walk)
        cur = min(pred[cur])
    back = list(walk)[walk[cur]:]
    return (cur, *reversed(back))


@dataclass(frozen=True)
class DistanceModel:
    """Symmetric non-negative distance on type pairs driving substitution cost.

    Exact pairs come from ``table``; anything else falls back to a hierarchy
    route: the two endpoints climb to their cheapest common ancestor, paying
    ``step_cost`` per step, plus ``generalization_penalty`` per level of
    difference between the endpoints' climbs. The level-shift penalty is what
    makes a same-level sibling a closer substitute than a general ancestor.
    The total is normalized by hierarchy depth, and the identity distance is
    0 regardless of table contents.
    """

    table: Mapping[tuple[str, str], float] = field(default_factory=dict)
    generalization_penalty: float = 2.0
    step_cost: float = 1.0

    @staticmethod
    def key(t1: str, t2: str) -> tuple[str, str]:
        return (t1, t2) if t1 <= t2 else (t2, t1)

    def distance(self, hierarchy: TypeHierarchy, t1: str, t2: str) -> float:
        t1, t2 = hierarchy.resolve(t1), hierarchy.resolve(t2)
        if t1 == t2:
            return 0.0
        entry = self.table.get(self.key(t1, t2))
        if entry is not None:
            return entry
        return self._fallback(hierarchy, t1, t2)

    def _fallback(self, hierarchy: TypeHierarchy, t1: str, t2: str) -> float:
        # every type climbs to the one root, so the two climbs always meet
        best = math.inf
        up1 = hierarchy._up_from(t1)
        up2 = hierarchy._up_from(t2)
        for anc, d1 in up1.items():
            d2 = up2.get(anc)
            if d2 is None:
                continue
            cost = (d1 + d2) * self.step_cost + abs(d1 - d2) * self.generalization_penalty
            if cost < best:
                best = cost
        return best / max(1, hierarchy.depth)


def side_document(
    doc, key: str, allowed: frozenset[str], where: str
) -> tuple[Mapping, list[tuple[str, object]]]:
    """The object of a side document and each element of its ``key`` list with its path.

    A bare JSON array is shorthand for ``{key: array}``; a missing ``key``
    reads as an empty list. Faults of shape, and keys outside ``allowed``,
    are located under ``where``.
    """
    if isinstance(doc, list):
        doc = {key: doc}
    if not isinstance(doc, Mapping):
        raise SchemaError(where, "expected an object or a list of triples")
    check_keys(doc, allowed, where)
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"{where}.{key}", "expected a list")
    return doc, [(f"{where}.{key}[{i}]", item) for i, item in enumerate(items)]


def load_distances(doc, hierarchies: Hierarchies, where: str = "distances") -> DistanceModel:
    """Parse a distance document ``{"pairs": [[t1, t2, d], ...], "generalization_penalty": x}``.

    A bare JSON array is accepted as shorthand for the ``pairs`` field. Both
    types of a pair must live in the same hierarchy, and distances,
    ``step_cost`` and ``generalization_penalty`` must be finite non-negative
    numbers. Faults are located under ``where``.
    """
    doc, pairs = side_document(doc, "pairs", _DISTANCES_KEYS, where)
    table: dict[tuple[str, str], float] = {}
    for path, item in pairs:
        if not (isinstance(item, list) and len(item) == 3):
            raise SchemaError(path, "expected a [t1, t2, d] triple")
        t1, t2, d = item
        if not isinstance(t1, str) or not isinstance(t2, str):
            raise SchemaError(path, "types must be strings")
        d = _non_negative(d, path)
        kind = hierarchies.kind_of_type(t1)
        if kind is None:
            raise UnknownReferenceError(f"{path}: type {t1!r} is not declared in any hierarchy")
        h = hierarchies.for_kind(kind)
        table[DistanceModel.key(h.resolve(t1), h.resolve_at(t2, path))] = d
    penalty = _non_negative(
        doc.get("generalization_penalty", 2.0), f"{where}.generalization_penalty"
    )
    step = _non_negative(doc.get("step_cost", 1.0), f"{where}.step_cost")
    return DistanceModel(table=table, generalization_penalty=penalty, step_cost=step)


def _non_negative(value, path: str) -> float:
    """``value`` as a finite non-negative float, else a SchemaError at ``path``.

    Booleans are refused although Python counts them as ints, and so are NaN
    and the infinities, which Python's ``json`` reads from ``NaN`` and
    ``Infinity`` and which no cost comparison can order.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and number >= 0:
            return number
    raise SchemaError(path, "expected a finite non-negative number")
