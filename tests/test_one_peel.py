"""One topological peel per recipe graph, and the cycles reported from it.

``RecipeGraph._topo`` is the one peel of a graph: validation and the
comparison classes both read it. ``find_cycle`` walks only the nodes a peel
left out. ``reference_find_cycle`` below peels for itself, as the cycle
finder did before the peel moved onto the graph, and the cycles reported on
every corpus recipe and hierarchy with one added back edge must be its
cycles.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Iterable, Mapping

import pytest

import recipegraph.core
from recipegraph.bundle import corpus_path, load_corpus
from recipegraph.compare import equivalent, isomorphic
from recipegraph.core import Recipe, recipe_graph, validate_recipe_graph
from recipegraph.errors import CycleDetectedError
from recipegraph.typekb import load_hierarchy, topological_order


def reference_find_cycle(
    nodes: Collection[str], succ: Mapping[str, Iterable[str]]
) -> tuple[str, ...] | None:
    """One directed cycle through ``nodes`` as a closed walk, or None: it peels for itself."""
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


WS = load_corpus()
RECIPES = [WS.recipe(rid) for rid in WS.recipe_ids()]


def one_back_arc(recipe: Recipe):
    """Arc sets with one arc reversed, or with one arc added from a node back to one it reaches."""
    g = recipe.graph
    for s, t in sorted(g.arcs):
        yield g.arcs - {(s, t)} | {(t, s)}
    for k in sorted(g.nodes):
        for m in sorted(recipe.reachable_from(k) - {k}):
            yield g.arcs | {(m, k)}


def reported_cycles(graph) -> list[tuple[str, ...]]:
    return [v.nodes for v in validate_recipe_graph(graph) if v.message == "graph contains a cycle"]


def test_reported_cycles_are_the_reference_walks():
    recipe_cycles = 0
    for recipe in RECIPES:
        g = recipe.graph
        for arcs in one_back_arc(recipe):
            succ: dict[str, list[str]] = {}
            for s, t in arcs:
                succ.setdefault(s, []).append(t)
            expected = reference_find_cycle(g.comestibles | g.actions, succ)
            assert reported_cycles(recipe_graph(g.comestibles, g.actions, arcs)) == (
                [expected] if expected else []
            )
            recipe_cycles += expected is not None

    hierarchy_cycles = 0
    for kind, hdoc in sorted(json.loads(corpus_path().read_text())["hierarchies"].items()):
        doc = {"kind": kind, **hdoc}
        h = load_hierarchy(doc)
        for i, entry in enumerate(doc["types"]):
            # a parent edge from a type to itself or to any type below it closes a cycle
            for below in sorted(h.descendants(entry["id"])):
                types = list(doc["types"])
                types[i] = {**entry, "parents": [*entry["parents"], below]}
                parents = {e["id"]: frozenset(e["parents"]) for e in types}
                with pytest.raises(CycleDetectedError) as err:
                    load_hierarchy({**doc, "types": types})
                assert err.value.cycle == reference_find_cycle(parents, parents)
                hierarchy_cycles += 1

    assert min(recipe_cycles, hierarchy_cycles) >= 250
    assert recipe_cycles + hierarchy_cycles >= 500


def test_a_graph_is_peeled_once_for_validation_and_comparison(monkeypatch):
    peeled = []

    def counting(nodes, succ):
        peeled.append(nodes)
        return topological_order(nodes, succ)

    monkeypatch.setattr(recipegraph.core, "topological_order", counting)
    recipe = WS.recipe("spaghetti-pasata")
    g = recipe.graph
    # new graphs, so no peel is cached on them yet
    r1, r2 = (Recipe(recipe_graph(g.comestibles, g.actions, g.arcs), recipe.typing) for _ in range(2))
    for r in (r1, r2):
        assert validate_recipe_graph(r.graph) == []
    assert equivalent(r1, r2) is not None
    assert isomorphic(r1, r2) is not None
    assert isomorphic(r2, r1) is not None
    assert r1.graph.nodes is r1.graph.nodes
    assert [id(nodes) for nodes in peeled] == [id(r1.graph.nodes), id(r2.graph.nodes)]
