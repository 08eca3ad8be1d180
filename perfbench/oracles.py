"""Answer checks that do not trust the package under test.

Every check recomputes what it needs from raw data: the corpus JSON document,
arc lists and typing dicts. The one exception is the type-distance function
fed to ``pair_cost``, which comes from the package, as in the test suite's
brute-force oracles: the check targets the planner's search, not the
distance table.
"""

from __future__ import annotations

import itertools
from collections import deque


class WrongAnswer(Exception):
    """An operation returned an answer that contradicts the expected one."""


def expect(cond: bool, message: str):
    if not cond:
        raise WrongAnswer(message)


class RawCorpus:
    """The corpus document, indexed without calling the package."""

    def __init__(self, doc: dict):
        self.parents: dict[str, dict[str, list[str]]] = {}
        self.aliases: dict[str, dict[str, str]] = {}
        for kind in ("action", "comestible"):
            types = doc["hierarchies"][kind]["types"]
            self.parents[kind] = {t["id"]: list(t.get("parents", [])) for t in types}
            self.aliases[kind] = {a: t["id"] for t in types for a in t.get("aliases", [])}
        self._up = {
            kind: {t: _closure(t, ps) for t in ps} for kind, ps in self.parents.items()
        }
        accept = doc["acceptability"]
        self.policy = accept.get("policy", "exact")
        self.tuples = {
            (
                self.resolve("comestible", t1),
                self.resolve("action", t2),
                self.resolve("comestible", t3),
            )
            for t1, t2, t3 in accept["tuples"]
        }
        self.recipes = {r["id"]: r for r in doc["recipes"]}

    def resolve(self, kind: str, text: str) -> str:
        if text in self.parents[kind]:
            return text
        return self.aliases[kind][text]

    def ancestors(self, kind: str, t: str) -> set[str]:
        return self._up[kind][self.resolve(kind, t)]

    def descendants(self, kind: str, t: str) -> set[str]:
        t = self.resolve(kind, t)
        return {u for u, ups in self._up[kind].items() if t in ups}

    def comparable(self, t1: str, t2: str) -> bool:
        return t1 in self.ancestors("comestible", t2) or t2 in self.ancestors("comestible", t1)

    def typing(self, rid: str) -> dict[str, str]:
        r = self.recipes[rid]
        coms = set(r["comestibles"])
        return {
            n: self.resolve("comestible" if n in coms else "action", t)
            for n, t in r["typing"].items()
        }

    def recipe_doc(self, rid: str) -> dict:
        """Canonical recipe document: sorted nodes and arcs, resolved types."""
        r = self.recipes[rid]
        typing = self.typing(rid)
        return {
            "comestibles": sorted(r["comestibles"]),
            "actions": sorted(r["actions"]),
            "arcs": sorted([s, t] for s, t in r["arcs"]),
            "typing": {n: typing[n] for n in sorted(typing)},
        }


def _closure(start: str, edges: dict[str, list[str]]) -> set[str]:
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in edges[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def check_substitution_pair(
    raw: RawCorpus, rid: str, mark: str, primary: dict, secondary: dict
):
    """Re-check a planner answer from raw arcs, types and tuples.

    ``mark`` is what is missing: a node of the recipe, or a type, which makes
    every node typed at or below it unavailable. No rebinding may use a type
    at or below the missing one.
    """
    recipe = raw.recipes[rid]
    coms = set(recipe["comestibles"])
    where = f"preferred_pair({rid}, missing {mark})"
    typing = raw.typing(rid)

    def kind_of(node: str) -> str:
        return "comestible" if node in coms else "action"

    if mark in typing:
        missing_kind = kind_of(mark)
        banned = raw.descendants(missing_kind, typing[mark])
        affected = {mark}
    else:
        missing_kind = next(
            k for k in raw.parents if mark in raw.parents[k] or mark in raw.aliases[k]
        )
        banned = raw.descendants(missing_kind, mark)
        affected = {n for n, t in typing.items() if kind_of(n) == missing_kind and t in banned}
    expect(set(primary) == affected, f"{where}: primary rebinds {sorted(primary)}")
    expect(not set(primary) & set(secondary), f"{where}: primary and secondary overlap")
    for node, t in (primary | secondary).items():
        expect(node in typing, f"{where}: rebinds unknown node {node}")
        kind = kind_of(node)
        expect(t in raw.parents[kind], f"{where}: {node} bound to non-{kind} type {t!r}")
        expect(
            kind != missing_kind or t not in banned, f"{where}: {node} bound to unavailable {t!r}"
        )
        typing[node] = t
    for c1, c2 in itertools.combinations(sorted(coms), 2):
        expect(
            not raw.comparable(typing[c1], typing[c2]),
            f"{where}: comestibles {c1}, {c2} get comparable types",
        )
    expect(raw.policy == "exact", "corpus acceptability policy is not exact")
    arcs = [tuple(a) for a in recipe["arcs"]]
    for c, a in arcs:
        if c not in coms:
            continue
        for a2, c2 in arcs:
            if a2 == a:
                triple = (typing[c], typing[a], typing[c2])
                expect(triple in raw.tuples, f"{where}: unlicensed triple {triple}")


def pair_cost(raw: RawCorpus, rid: str, bindings: dict, dist) -> float:
    """Sum of ``dist(kind, old type, new type)`` over the rebound nodes."""
    coms = set(raw.recipes[rid]["comestibles"])
    typing = raw.typing(rid)
    return sum(
        dist("comestible" if n in coms else "action", typing[n], t)
        for n, t in sorted(bindings.items())
    )


def check_bijection(parts1, parts2, mapping: dict, same_types: bool, where: str):
    """``mapping`` must be a kind-preserving bijection carrying arcs onto arcs."""
    expect(set(mapping) == set(parts1.comestibles) | set(parts1.actions), f"{where}: not total")
    expect(len(set(mapping.values())) == len(mapping), f"{where}: not injective")
    expect(
        {mapping[c] for c in parts1.comestibles} == set(parts2.comestibles),
        f"{where}: comestibles not mapped onto comestibles",
    )
    expect(
        {(mapping[s], mapping[t]) for s, t in parts1.arcs} == set(parts2.arcs),
        f"{where}: arcs not preserved",
    )
    if same_types:
        expect(
            all(parts1.typing[n] == parts2.typing[m] for n, m in mapping.items()),
            f"{where}: types not preserved",
        )


def check_order_map(parts1, parts2, mapping: dict, where: str):
    """``mapping`` must be total and carry every arc onto a path of the second recipe.

    By transitivity that preserves the whole path order. Every node of the
    generated shapes has at most one successor, so the path from an image is
    a single walk and the check needs no reachability sets.
    """
    nodes1 = set(parts1.comestibles) | set(parts1.actions)
    nodes2 = set(parts2.comestibles) | set(parts2.actions)
    expect(set(mapping) == nodes1, f"{where}: not total")
    expect(set(mapping.values()) <= nodes2, f"{where}: image outside the second recipe")
    succ: dict[str, str] = {}
    for s, t in parts2.arcs:
        if s in succ:
            raise ValueError(f"{where}: {s} has two successors; the walk needs at most one")
        succ[s] = t
    for s, t in parts1.arcs:
        node, target = mapping[s], mapping[t]
        while node is not None and node != target:
            node = succ.get(node)
        expect(node == target, f"{where}: arc ({s}, {t}) not carried onto a path")
