"""Seeded generator for the large-recipes workload.

Everything here is plain Python data (node-id lists, arc lists, typing dicts)
so that expected answers are known by construction and never come from the
package under test. The benchmark turns these parts into package values
during set-up.

Shapes:

* chain (deep): ``c0 -> a0 -> c1 -> a1 -> ... -> cN``;
* merge tree (wide): N+1 fresh inputs merged pairwise, first in first
  merged, until one output is left, so N actions and 2N+1 comestibles.

The shapes depend on the size only. The seed picks the node ids (their
sorted order, which drives the searches, is a seeded shuffle), the types,
the unlicensed triples and the ids of the relabelled copies.

Comestibles are typed with distinct leaves of a flat synthetic comestible
hierarchy (root plus pairwise-incomparable leaves), so the typing rules hold
by construction; actions draw from a small flat action hierarchy.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from random import Random

COM_ROOT, ACT_ROOT = "com", "act"
N_COM_TYPES = 1200
N_ACT_TYPES = 40

# (shape, actions) of the searched instances, fixed so that every seed
# produces the same amount of work.
LADDER = (
    ("chain", 30),
    ("chain", 120),
    ("chain", 240),
    ("tree", 20),
    ("tree", 80),
    ("tree", 160),
)
# Past 1000 nodes; only the linear-time checks run on it.
DEEP_CHAIN_ACTIONS = 520
LEQ_PROBES = 8
OMITTED_TRIPLES = 3


def com_type(i: int) -> str:
    return f"ing{i:04d}"


def act_type(i: int) -> str:
    return f"verb{i:02d}"


def hierarchy_docs() -> tuple[dict, dict]:
    """Flat action and comestible hierarchy documents (root plus leaves)."""

    def flat(kind: str, root: str, leaves: list[str]) -> dict:
        types = [{"id": root, "parents": []}]
        types += [{"id": t, "parents": [root]} for t in leaves]
        return {"kind": kind, "root": root, "types": types}

    return (
        flat("action", ACT_ROOT, [act_type(i) for i in range(N_ACT_TYPES)]),
        flat("comestible", COM_ROOT, [com_type(i) for i in range(N_COM_TYPES)]),
    )


@dataclass
class Parts:
    comestibles: list[str]
    actions: list[str]
    arcs: list[tuple[str, str]]
    typing: dict[str, str]

    def renamed(self, rename: dict[str, str]) -> "Parts":
        f = lambda n: rename.get(n, n)  # noqa: E731
        return Parts(
            [f(c) for c in self.comestibles],
            [f(a) for a in self.actions],
            [(f(s), f(t)) for s, t in self.arcs],
            {f(n): t for n, t in self.typing.items()},
        )


@dataclass
class Instance:
    """One generated recipe with the answers its operations must give."""

    name: str
    parts: Parts
    deep: bool
    inputs: frozenset[str]
    outputs: frozenset[str]
    # (n, m, expected leq(n, m))
    leq_probes: list[tuple[str, str, bool]]
    # licensed (input type, action type, output type) triples
    tuples: list[tuple[str, str, str]]
    # node triples (c, a, c') whose type triple is left unlicensed
    unlicensed: frozenset[tuple[str, str, str]]
    # all node ids renamed; for equivalent and isomorphic
    relabelled: Parts | None = None
    # interior ids (intermediate comestibles and actions) permuted; for finer_grained
    interior_permuted: Parts | None = None


def _ids(rng: Random, prefix: str, kind: str, count: int, shuffle: bool = True) -> list[str]:
    """``count`` ids; their sorted order is a seeded shuffle of creation order
    unless ``shuffle`` is false."""
    slots = list(range(count))
    if shuffle:
        rng.shuffle(slots)
    return [f"{prefix}{kind}{s:04d}" for s in slots]


def _chain(rng: Random, prefix: str, n: int, shuffle: bool = True):
    coms = _ids(rng, prefix, "c", n + 1, shuffle)
    acts = _ids(rng, prefix, "a", n, shuffle)
    arcs = []
    for i, a in enumerate(acts):
        arcs += [(coms[i], a), (a, coms[i + 1])]
    return coms, acts, arcs


def _merge_tree(rng: Random, prefix: str, n: int):
    coms = _ids(rng, prefix, "c", 2 * n + 1)
    acts = _ids(rng, prefix, "a", n)
    fresh = iter(coms)
    # first in, first merged: a balanced tree whose shape depends on n only
    queue = deque(next(fresh) for _ in range(n + 1))
    arcs = []
    for a in acts:
        arcs += [(queue.popleft(), a), (queue.popleft(), a)]
        out = next(fresh)
        arcs.append((a, out))
        queue.append(out)
    return coms, acts, arcs


def _instance(rng: Random, name: str, shape: str, n: int, deep: bool) -> Instance:
    prefix = f"{name}."
    if shape == "chain":
        # the deep chain numbers its nodes along the chain, as recipes
        # usually are; graph search then starts at its head
        coms, acts, arcs = _chain(rng, prefix, n, shuffle=not deep)
    else:
        coms, acts, arcs = _merge_tree(rng, prefix, n)
    types = rng.sample(range(N_COM_TYPES), len(coms))
    typing = {c: com_type(t) for c, t in zip(coms, types)}
    typing.update({a: act_type(rng.randrange(N_ACT_TYPES)) for a in acts})
    parts = Parts(coms, acts, arcs, typing)

    # every node has at most one successor in both shapes
    successor = dict(arcs)
    has_in = {t for _, t in arcs}
    inputs = frozenset(c for c in coms if c not in has_in)
    outputs = frozenset(c for c in coms if c not in successor)

    def downstream(node: str) -> list[str]:
        path = [node]
        while path[-1] in successor:
            path.append(successor[path[-1]])
        return path

    # probes sit at fixed positions along the creation order, so their cost
    # does not depend on the seed; the seed only renames the nodes
    order = [node for pair in itertools.zip_longest(coms, acts) for node in pair if node]
    probes = []
    for k in range(LEQ_PROBES):
        i = 1 + k * (len(order) - 1) // LEQ_PROBES
        path = downstream(order[i])
        other = path[len(path) // 2] if k % 2 == 0 else order[i - 1]
        probes.append((order[i], other, other in path))

    com_set = set(coms)
    node_triples = [(c, a, successor[a]) for c, a in arcs if c in com_set]
    unlicensed = frozenset(rng.sample(node_triples, OMITTED_TRIPLES))
    tuples = sorted(
        (typing[c], typing[a], typing[c2])
        for c, a, c2 in node_triples
        if (c, a, c2) not in unlicensed
    )

    inst = Instance(
        name=name,
        parts=parts,
        deep=deep,
        inputs=inputs,
        outputs=outputs,
        leq_probes=probes,
        tuples=tuples,
        unlicensed=unlicensed,
    )
    if not deep:
        fresh_coms = _ids(rng, f"{name}'", "c", len(coms))
        fresh_acts = _ids(rng, f"{name}'", "a", len(acts))
        inst.relabelled = parts.renamed(
            dict(zip(coms, fresh_coms)) | dict(zip(acts, fresh_acts))
        )
        interior = {}
        for group in (
            [c for c in coms if c not in inputs and c not in outputs],
            list(acts),
        ):
            shuffled = group[:]
            rng.shuffle(shuffled)
            interior.update(zip(group, shuffled))
        inst.interior_permuted = parts.renamed(interior)
    return inst


def generate(seed: int) -> list[Instance]:
    """The instances of one pass: the fixed size ladder plus the deep chain."""
    rng = Random(seed)
    instances = [
        _instance(rng, f"{shape}{n}", shape, n, deep=False) for shape, n in LADDER
    ]
    instances.append(
        _instance(rng, f"deep{DEEP_CHAIN_ACTIONS}", "chain", DEEP_CHAIN_ACTIONS, deep=True)
    )
    return instances
