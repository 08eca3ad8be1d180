"""Random recipe generation for property and acceptance suites.

Recipes grow action by action: each new action consumes existing comestibles
(keeping the graph connected and acyclic) and/or fresh inputs, and produces
fresh outputs (keeping comestible in-degree at most one). Comestible types are
drawn from disjoint branches of a synthetic hierarchy, so the typing rules
hold by construction. Mutation helpers then break exactly one structural
condition at a time.
"""

from __future__ import annotations

import itertools
from random import Random

from recipegraph.core import Recipe, RecipeGraph, build_recipe, recipe_graph, roles
from recipegraph.typekb import Hierarchies, load_hierarchy

N_BRANCHES = 40


def synthetic_hierarchies(branches: int = N_BRANCHES) -> Hierarchies:
    """One root with ``branches`` two-level chains per kind."""

    def doc(kind: str, root: str, stem: str) -> dict:
        types = [{"id": root, "parents": []}]
        for i in range(branches):
            types.append({"id": f"{stem}{i:02d}", "parents": [root]})
            types.append({"id": f"{stem}{i:02d} fine", "parents": [f"{stem}{i:02d}"]})
        return {"kind": kind, "root": root, "types": types}

    return Hierarchies(
        action=load_hierarchy(doc("action", "act", "verb")),
        comestible=load_hierarchy(doc("comestible", "com", "ing")),
    )


SYNTH = synthetic_hierarchies()


def random_recipe(
    rng: Random,
    hierarchies: Hierarchies = SYNTH,
    max_actions: int = 4,
    max_nodes: int = 12,
    prefix: str = "g",
) -> Recipe:
    branch_order = list(range(N_BRANCHES))
    rng.shuffle(branch_order)
    branch_iter = iter(branch_order)

    def fresh_type() -> str:
        i = next(branch_iter)
        base = f"ing{i:02d}"
        return base if rng.random() < 0.5 else f"{base} fine"

    counter = itertools.count()
    comestibles: list[str] = []
    actions: list[str] = []
    arcs: list[tuple[str, str]] = []
    typing: dict[str, str] = {}
    # comestibles produced by some action and not yet consumed; later actions
    # draw from here so connectivity always flows producer -> consumer
    open_outputs: list[str] = []

    def new_comestible() -> str:
        node = f"{prefix}c{next(counter)}"
        comestibles.append(node)
        typing[node] = fresh_type()
        return node

    def new_action() -> str:
        node = f"{prefix}a{next(counter)}"
        actions.append(node)
        verb = rng.randrange(N_BRANCHES)
        typing[node] = f"verb{verb:02d}" if rng.random() < 0.5 else f"verb{verb:02d} fine"
        return node

    n_actions = rng.randint(1, max_actions)
    for j in range(n_actions):
        # an action needs one node for itself plus at least one fresh output
        room = max_nodes - (len(comestibles) + len(actions))
        if j > 0 and room < 2:
            break
        a = new_action()
        inputs: list[str] = []
        if j > 0:
            take = 1 + (1 if len(open_outputs) > 1 and rng.random() < 0.3 else 0)
            for _ in range(take):
                chosen = rng.choice(open_outputs)
                open_outputs.remove(chosen)
                inputs.append(chosen)
        room = max_nodes - (len(comestibles) + len(actions))
        n_fresh_in = 0 if j > 0 and rng.random() < 0.5 else 1
        n_fresh_in = min(n_fresh_in + (1 if rng.random() < 0.3 else 0), max(room - 1, 0))
        if j == 0:
            n_fresh_in = max(n_fresh_in, 1)
        for _ in range(n_fresh_in):
            inputs.append(new_comestible())
        room = max_nodes - (len(comestibles) + len(actions))
        n_out = min(1 + (1 if rng.random() < 0.3 else 0), max(room, 1))
        outputs = [new_comestible() for _ in range(n_out)]
        open_outputs.extend(outputs)
        arcs.extend((c, a) for c in set(inputs))
        arcs.extend((a, c) for c in outputs)

    return build_recipe(comestibles, actions, arcs, typing, hierarchies)


def random_untrimmed_part(rng: Random, host: Recipe, hierarchies: Hierarchies = SYNTH) -> Recipe:
    """A connected untrimmed subrecipe of ``host``: some actions plus their neighbours."""
    acts = sorted(host.graph.actions)
    start = rng.choice(acts)
    chosen = {start}
    while rng.random() < 0.4 and len(chosen) < len(acts):
        # grow through a comestible shared with an already chosen action
        frontier = [
            a
            for a in acts
            if a not in chosen
            and any(
                (host.graph.predecessors(a) | host.graph.successors(a))
                & (host.graph.predecessors(b) | host.graph.successors(b))
                for b in chosen
            )
        ]
        if not frontier:
            break
        chosen.add(rng.choice(frontier))
    coms = set()
    for a in chosen:
        coms |= host.graph.predecessors(a) | host.graph.successors(a)
    arcs = [(s, t) for s, t in host.graph.arcs if {s, t} & chosen and {s, t} <= (coms | chosen)]
    typing = {n: host.type_of(n) for n in coms | chosen}
    return build_recipe(coms, chosen, arcs, typing, hierarchies)


def relabelled_replacement(
    rng: Random, host: Recipe, part: Recipe, hierarchies: Hierarchies = SYNTH
) -> Recipe:
    """A replacement for ``part``: same graph shape with interior nodes renamed.

    A part comestible is interior when every host arc at it stays inside the
    part; only those (and the part's actions) can be safely renamed, because
    arcs of kept actions must keep their endpoints. Renamed comestibles move
    to branches the host does not use, so the typing conditions hold.
    """
    used_branches = {t.split()[0] for t in host.typing.values()}
    free = [
        f"ing{i:02d}" for i in range(N_BRANCHES) if f"ing{i:02d}" not in used_branches
    ]
    rng.shuffle(free)
    free_iter = iter(free)

    def interior(c: str) -> bool:
        touching = host.graph.predecessors(c) | host.graph.successors(c)
        return touching <= part.graph.actions

    rename: dict[str, str] = {}
    typing: dict[str, str] = {}
    for n in sorted(part.graph.nodes):
        if n in part.graph.actions:
            rename[n] = f"{n}x"
            typing[f"{n}x"] = part.type_of(n)
        elif interior(n):
            rename[n] = f"{n}x"
            typing[f"{n}x"] = next(free_iter)
        else:
            rename[n] = n
            typing[n] = part.type_of(n)
    return build_recipe(
        [rename[c] for c in part.graph.comestibles],
        [rename[a] for a in part.graph.actions],
        [(rename[s], rename[t]) for s, t in part.graph.arcs],
        typing,
        hierarchies,
    )


def break_condition_1(rng: Random, recipe: Recipe) -> RecipeGraph:
    """Drop every action; condition 1 requires both node sets non-empty."""
    g = recipe.graph
    return recipe_graph(g.comestibles, [], [])


def break_condition_2(rng: Random, recipe: Recipe) -> RecipeGraph | None:
    """Arc between two inputs: joins two comestibles, breaking nothing else."""
    ins = sorted(roles(recipe).inputs)
    if len(ins) < 2:
        return None
    c1, c2 = rng.sample(ins, 2)
    g = recipe.graph
    return recipe_graph(g.comestibles, g.actions, g.arcs | {(c1, c2)})


def break_condition_3(rng: Random, recipe: Recipe) -> RecipeGraph | None:
    """Arc from a descendant comestible back to an ancestor action: a cycle."""
    g = recipe.graph
    options = [
        (c, a)
        for a in sorted(g.actions)
        for c in sorted(recipe.reachable_from(a) & g.comestibles)
        if (c, a) not in g.arcs
    ]
    if not options:
        return None
    c, a = rng.choice(options)
    return recipe_graph(g.comestibles, g.actions, g.arcs | {(c, a)})


def break_condition_4(rng: Random, recipe: Recipe) -> RecipeGraph:
    """Fresh action with an output only: it has no input arc."""
    g = recipe.graph
    target = rng.choice(sorted(roles(recipe).inputs))
    return recipe_graph(g.comestibles, g.actions | {"mx"}, g.arcs | {("mx", target)})


def break_condition_5(rng: Random, recipe: Recipe) -> RecipeGraph | None:
    """Second producer for an already produced comestible."""
    g = recipe.graph
    options = [
        (a, c)
        for c in sorted(g.comestibles)
        if g.in_degree(c) == 1
        for a in sorted(g.actions)
        if (a, c) not in g.arcs and a not in recipe.reachable_from(c)
    ]
    if not options:
        return None
    a, c = rng.choice(options)
    return recipe_graph(g.comestibles, g.actions, g.arcs | {(a, c)})


def fry_chain_doc(actions: int) -> dict:
    """Bundle holding ``long``: a chain of ``actions`` actions, every one a fry.

    Actions are typed under ``act -> heat -> fry`` (plus ``cut``), the
    ``actions + 1`` comestibles with distinct leaves of a flat hierarchy. The
    tuples license every arc triple with ``cut`` as its action, so replacing
    the fries means searching over every action node at once.
    """
    coms = [f"c{i:04d}" for i in range(actions + 1)]
    acts = [f"a{i:04d}" for i in range(actions)]
    leaves = [f"ing{i}" for i in range(actions + 1)]
    return {
        "hierarchies": {
            "action": {
                "kind": "action",
                "root": "act",
                "types": [
                    {"id": "act", "parents": []},
                    {"id": "heat", "parents": ["act"]},
                    {"id": "fry", "parents": ["heat"]},
                    {"id": "cut", "parents": ["act"]},
                ],
            },
            "comestible": {
                "kind": "comestible",
                "root": "com",
                "types": [{"id": "com", "parents": []}]
                + [{"id": t, "parents": ["com"]} for t in leaves],
            },
        },
        "nodes": dict.fromkeys(coms, "comestible") | dict.fromkeys(acts, "action"),
        "recipes": [
            {
                "id": "long",
                "comestibles": coms,
                "actions": acts,
                "arcs": [*map(list, zip(coms, acts)), *map(list, zip(acts, coms[1:]))],
                "typing": dict(zip(coms, leaves)) | dict.fromkeys(acts, "fry"),
            }
        ],
        "acceptability": {
            "tuples": [[leaves[i], "cut", leaves[i + 1]] for i in range(actions)],
            "policy": "exact",
            "depth_limit": 1,
        },
        "distances": {"pairs": [], "generalization_penalty": 2.0, "step_cost": 1.0},
    }
