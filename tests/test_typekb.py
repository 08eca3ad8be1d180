from __future__ import annotations

import json
import random

import pytest

from recipegraph.errors import (
    CycleDetectedError,
    DanglingEdgeError,
    DuplicateAliasError,
    MultipleRootsError,
    NoRootError,
    SchemaError,
    UnknownReferenceError,
    UnknownTypeError,
)
from recipegraph.typekb import (
    DistanceModel,
    bfs,
    load_distances,
    load_hierarchy,
    topological_order,
)


def hdoc(types, root="top", kind="comestible"):
    return {"kind": kind, "root": root, "types": types}


# A hierarchy shaped like the comestible examples: depth three, siblings at
# the bottom, used for the frozen fallback-distance value.
SMALL_DOC = hdoc(
    [
        {"id": "comestible", "parents": []},
        {"id": "fish", "parents": ["comestible"]},
        {"id": "pasta", "parents": ["comestible"]},
        {"id": "spaghetti", "parents": ["pasta"]},
        {"id": "fusilli", "parents": ["pasta"]},
        {"id": "vegetable", "parents": ["comestible"]},
        {"id": "onion", "parents": ["vegetable"]},
        {"id": "carrot", "parents": ["vegetable"]},
        {"id": "raw onion", "parents": ["onion"]},
        {"id": "fried onion", "parents": ["onion"]},
        {"id": "sliced onion", "parents": ["onion"]},
    ],
    root="comestible",
)


class TestLoadHierarchy:
    def test_corpus_action_hierarchy_has_multi_parent_leaf(self, hierarchies):
        h = hierarchies.action
        assert h.root == "action"
        assert h.parents("finely chop onion") == {"finely chop", "chop onion"}
        assert h.is_subtype("finely chop onion", "chop")

    def test_single_node_hierarchy_is_legal(self):
        h = load_hierarchy(hdoc([{"id": "comestible", "parents": []}], root="comestible"))
        assert h.root == "comestible"
        assert h.depth == 0
        assert h.is_subtype("comestible", "comestible")

    def test_two_cycle_is_rejected(self):
        doc = hdoc(
            [
                {"id": "top", "parents": []},
                {"id": "a", "parents": ["b"]},
                {"id": "b", "parents": ["a"]},
            ]
        )
        with pytest.raises(CycleDetectedError) as err:
            load_hierarchy(doc)
        assert set(err.value.cycle) >= {"a", "b"}

        # 1200 levels whose ids sort child before parent load; one more parent
        # link from the top of the chain back to its leaf closes a long cycle
        ids = [f"t{i:04d}" for i in range(1200)]
        types = [{"id": t, "parents": [p]} for t, p in zip(ids, ids[1:])]
        types.append({"id": ids[-1], "parents": []})
        assert load_hierarchy(hdoc(types, root=ids[-1])).depth == 1199
        types[-2]["parents"].append(ids[0])
        with pytest.raises(CycleDetectedError) as err:
            load_hierarchy(hdoc(types, root=ids[-1]))
        cycle = err.value.cycle
        parents = {t["id"]: t["parents"] for t in types}
        assert cycle[0] == cycle[-1]
        assert all(p in parents[t] for t, p in zip(cycle, cycle[1:]))
        assert set(cycle) == set(ids[:-1])

    def test_multiple_parentless_nodes_are_rejected(self):
        doc = hdoc(
            [
                {"id": "top", "parents": []},
                {"id": "stray", "parents": []},
                {"id": "a", "parents": ["top"]},
            ]
        )
        with pytest.raises(MultipleRootsError) as err:
            load_hierarchy(doc)
        assert set(err.value.roots) == {"stray", "top"}

    def test_missing_root_is_rejected(self):
        doc = hdoc([{"id": "a", "parents": ["b"]}, {"id": "b", "parents": ["a"]}], root="a")
        with pytest.raises(CycleDetectedError):
            load_hierarchy(doc)
        doc = hdoc([{"id": "a", "parents": []}], root="zzz")
        with pytest.raises(NoRootError):
            load_hierarchy(doc)

    def test_dangling_parent_is_rejected(self):
        doc = hdoc([{"id": "top", "parents": []}, {"id": "a", "parents": ["ghost"]}])
        with pytest.raises(DanglingEdgeError):
            load_hierarchy(doc)

    def test_conflicting_alias_is_rejected(self):
        doc = hdoc(
            [
                {"id": "top", "parents": []},
                {"id": "a", "parents": ["top"], "aliases": ["also"]},
                {"id": "b", "parents": ["top"], "aliases": ["also"]},
            ]
        )
        with pytest.raises(DuplicateAliasError):
            load_hierarchy(doc)

    def test_duplicate_type_id_is_a_located_schema_error(self):
        from recipegraph.errors import SchemaError

        doc = hdoc([{"id": "f", "parents": []}, {"id": "f"}])
        with pytest.raises(SchemaError) as err:
            load_hierarchy(doc)
        assert err.value.path == "hierarchy.types[1].id"
        assert err.value.reason == "duplicate type id 'f'"

    @pytest.mark.parametrize(
        "doc, path",
        [([{"id": "top", "parents": []}], "hierarchy"), (hdoc([], kind="flavour"), "hierarchy.kind")],
        ids=["not-an-object", "unknown-kind"],
    )
    def test_a_document_of_the_wrong_shape_is_a_located_schema_error(self, doc, path):
        with pytest.raises(SchemaError) as err:
            load_hierarchy(doc)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "types, root, error, text",
        [
            (
                [{"id": "top", "parents": []}, {"id": "a", "parents": ["ghost"]}],
                "top",
                DanglingEdgeError,
                "edge 'a' -> 'ghost' points outside the hierarchy",
            ),
            (
                [
                    {"id": "top", "parents": []},
                    {"id": "a", "parents": ["top"], "aliases": ["also"]},
                    {"id": "b", "parents": ["top"], "aliases": ["also"]},
                ],
                "top",
                DuplicateAliasError,
                "alias 'also' is claimed by more than one type: a, b",
            ),
            (
                [
                    {"id": "top", "parents": []},
                    {"id": "a", "parents": ["top"], "aliases": ["b"]},
                    {"id": "b", "parents": ["top"]},
                ],
                "top",
                DuplicateAliasError,
                "alias 'b' is claimed by more than one type: b, a",
            ),
            (
                [{"id": "top", "parents": []}, {"id": "a", "parents": ["b"]}, {"id": "b", "parents": ["a"]}],
                "top",
                CycleDetectedError,
                "hierarchy contains a cycle: a -> b -> a",
            ),
            (
                [{"id": "top", "parents": []}, {"id": "stray", "parents": []}],
                "top",
                MultipleRootsError,
                "hierarchy has multiple parentless nodes: stray, top",
            ),
            (
                [{"id": "top", "parents": []}],
                "zzz",
                NoRootError,
                "declared root 'zzz' is not among the types",
            ),
            (
                [{"id": "top", "parents": []}, {"id": "a", "parents": ["top"]}],
                "a",
                NoRootError,
                "declared root 'a' has parents; maximal node is 'top'",
            ),
        ],
        ids=["dangling", "shared-alias", "alias-is-a-type-id", "cycle", "two-roots",
             "root-not-a-type", "root-has-parents"],
    )
    def test_an_invariant_fault_starts_with_where_the_hierarchy_is(
        self, types, root, error, text
    ):
        doc = hdoc(types, root=root)
        with pytest.raises(error) as err:
            load_hierarchy(doc)
        assert str(err.value) == f"hierarchy: {text}"
        with pytest.raises(error) as err:
            load_hierarchy(doc, "bundle.hierarchies.comestible")
        assert str(err.value) == f"bundle.hierarchies.comestible: {text}"


class TestQueries:
    def test_subtype_along_a_path(self, hierarchies):
        h = hierarchies.action
        assert h.is_subtype("finely chop onion", "chop")
        assert not h.is_subtype("chop", "finely chop onion")

    def test_subtype_is_reflexive(self, hierarchies):
        assert hierarchies.comestible.is_subtype("onion", "onion")

    def test_siblings_are_not_subtypes(self, hierarchies):
        h = hierarchies.comestible
        assert not h.is_subtype("raw onion", "fried onion")
        assert not h.is_subtype("fried onion", "raw onion")

    def test_comparable_parent_child_and_branches(self, hierarchies):
        h = hierarchies.comestible
        assert h.comparable("raw onion", "onion")
        assert h.comparable("onion", "raw onion")
        assert h.comparable("spaghetti", "spaghetti")
        assert not h.comparable("spaghetti", "carrot")

    def test_alias_resolution_is_idempotent(self, hierarchies):
        h = hierarchies.comestible
        canonical = h.resolve("fried onions")
        assert canonical == "fried onion"
        assert h.resolve(canonical) == canonical
        a = hierarchies.action
        assert a.resolve("bake at 356F for 45min") == "bake at 180C for 45min"

    def test_unknown_type_raises(self, hierarchies):
        with pytest.raises(UnknownTypeError):
            hierarchies.action.resolve("levitate")
        with pytest.raises(UnknownTypeError):
            hierarchies.comestible.is_subtype("raw onion", "levitate")

    def test_a_hierarchy_for_an_unknown_kind_raises(self, hierarchies):
        assert hierarchies.for_kind("action") is hierarchies.action
        with pytest.raises(ValueError):
            hierarchies.for_kind("x")

    def test_subtype_transitive_on_sampled_triples(self, hierarchies):
        rng = random.Random(7)
        for h in (hierarchies.action, hierarchies.comestible):
            types = sorted(h.types)
            for _ in range(300):
                t1, t2, t3 = (rng.choice(types) for _ in range(3))
                if h.is_subtype(t1, t2) and h.is_subtype(t2, t3):
                    assert h.is_subtype(t1, t3)
                if h.is_subtype(t1, t2) or h.is_subtype(t2, t1):
                    assert h.comparable(t1, t2) and h.comparable(t2, t1)


class TestDistance:
    def test_table_entry_wins_and_orders_candidates(self, corpus):
        h = corpus.hierarchies.comestible
        m = corpus.distances
        near = m.distance(h, "spaghetti", "tagliatelle")
        far = m.distance(h, "spaghetti", "rice")
        assert near == 0.1
        assert far == 0.8
        assert near < far

    def test_identity_is_zero_even_with_a_table_entry(self, hierarchies):
        m = DistanceModel(table={("onion", "onion"): 0.3})
        assert m.distance(hierarchies.comestible, "onion", "onion") == 0.0

    def test_fallback_for_siblings_at_depth_three(self):
        # two steps through the parent, no level shift, over depth 3
        h = load_hierarchy(SMALL_DOC)
        assert h.depth == 3
        m = DistanceModel(generalization_penalty=0.5)
        assert m.distance(h, "raw onion", "fried onion") == pytest.approx(2.0 / 3)

    def test_fallback_penalizes_generalization(self):
        h = load_hierarchy(SMALL_DOC)
        m = DistanceModel(generalization_penalty=2.0)
        # a same-level sibling is a closer substitute than the general parent
        sibling = m.distance(h, "raw onion", "fried onion")
        parent = m.distance(h, "raw onion", "onion")
        assert sibling == pytest.approx(2.0 / 3)
        assert parent == pytest.approx(3.0 / 3)
        assert sibling < parent
        assert parent == m.distance(h, "onion", "raw onion")

    def test_symmetry_and_nonnegativity_on_all_pairs(self, corpus):
        m = corpus.distances
        for h in (corpus.hierarchies.comestible, corpus.hierarchies.action):
            types = sorted(h.types)
            for t1 in types:
                assert m.distance(h, t1, t1) == 0.0
                for t2 in types:
                    d12 = m.distance(h, t1, t2)
                    assert d12 == m.distance(h, t2, t1)
                    assert d12 >= 0.0

    def test_load_distances_rejects_negative(self, hierarchies):
        from recipegraph.errors import SchemaError

        with pytest.raises(SchemaError):
            load_distances({"pairs": [["onion", "carrot", -1.0]]}, hierarchies)

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), True, False, 10**400],
        ids=["nan", "inf", "-inf", "true", "false", "int-past-float-range"],
    )
    def test_load_distances_rejects_non_finite_and_boolean_numbers(self, hierarchies, value):
        from recipegraph.errors import SchemaError

        with pytest.raises(SchemaError) as err:
            load_distances({"pairs": [["onion", "carrot", value]]}, hierarchies)
        assert err.value.path == "distances.pairs[0]"
        for field in ("step_cost", "generalization_penalty"):
            with pytest.raises(SchemaError) as err:
                load_distances({"pairs": [], field: value}, hierarchies)
            assert err.value.path == f"distances.{field}"

    def test_load_distances_rejects_nan_read_from_json(self, hierarchies):
        from recipegraph.errors import SchemaError

        doc = json.loads('{"pairs": [["onion", "carrot", 0.5]], "step_cost": NaN}')
        with pytest.raises(SchemaError) as err:
            load_distances(doc, hierarchies)
        assert err.value.path == "distances.step_cost"

    def test_load_distances_rejects_unknown_type(self, hierarchies):
        from recipegraph.errors import UnknownReferenceError

        with pytest.raises(UnknownReferenceError):
            load_distances({"pairs": [["onion", "levitate", 0.5]]}, hierarchies)

    def test_a_distances_document_of_the_wrong_shape_is_a_located_schema_error(
        self, hierarchies
    ):
        with pytest.raises(SchemaError) as err:
            load_distances("onion", hierarchies, "d.json")
        assert err.value.path == "d.json"

    @pytest.mark.parametrize(
        "pair, message",
        [
            (["nope", "onion"], "type 'nope' is not declared in any hierarchy"),
            (["onion", "nope"], "type 'nope' is not in the comestible hierarchy"),
        ],
        ids=["first", "second"],
    )
    def test_an_unknown_type_in_a_pair_is_located(self, hierarchies, pair, message):
        with pytest.raises(UnknownReferenceError) as err:
            load_distances([[*pair, 0.5]], hierarchies, "d.json")
        assert str(err.value) == f"d.json.pairs[0]: {message}"

    def test_load_distances_accepts_a_bare_triple_list(self, hierarchies):
        model = load_distances([["onion", "carrot", 0.4]], hierarchies)
        assert model.distance(hierarchies.comestible, "carrot", "onion") == 0.4


def _eager_bfs(start, edges):
    dist = {start: 0}
    queue = [start]
    for cur in queue:
        for nxt in edges[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


class _EagerHierarchy:
    """Reference answers from all-pairs distance tables built up front.

    This is how hierarchies once answered every query: one breadth-first
    search per type and direction at load, and table lookups after that.
    """

    def __init__(self, doc):
        self.parents = {e["id"]: set(e["parents"]) for e in doc["types"]}
        self.aliases = {a: e["id"] for e in doc["types"] for a in e.get("aliases", [])}
        children = {t: set() for t in self.parents}
        for t, ps in self.parents.items():
            for p in ps:
                children[p].add(t)
        near = {t: self.parents[t] | children[t] for t in self.parents}
        self.up = {t: _eager_bfs(t, self.parents) for t in self.parents}
        self.down = {t: _eager_bfs(t, children) for t in self.parents}
        self.near = {t: _eager_bfs(t, near) for t in self.parents}
        self._depth = max(d[doc["root"]] for d in self.up.values())

    def _id(self, text):
        return self.aliases.get(text, text)

    def _capped(self, table, t, within):
        return {u for u, d in table[self._id(t)].items() if within is None or d <= within}

    def depth(self):
        return self._depth

    def is_subtype(self, t1, t2):
        return self._id(t2) in self.up[self._id(t1)]

    def comparable(self, t1, t2):
        return self.is_subtype(t1, t2) or self.is_subtype(t2, t1)

    def ancestors(self, t, within=None):
        return self._capped(self.up, t, within)

    def descendants(self, t, within=None):
        return self._capped(self.down, t, within)

    def comparable_within(self, t, steps):
        return self.ancestors(t, steps) | self.descendants(t, steps)

    def relatives(self, t, radius):
        return self._capped(self.near, t, radius)

    def up_distance(self, t, ancestor):
        return self.up[self._id(t)].get(self._id(ancestor))

    def distance(self, t1, t2):
        """``DistanceModel()``'s fallback route: step cost 1, level-shift penalty 2."""
        t1, t2 = self._id(t1), self._id(t2)
        if t1 == t2:
            return 0.0
        up2 = self.up[t2]
        best = min(
            (d1 + up2[a]) * 1.0 + abs(d1 - up2[a]) * 2.0
            for a, d1 in self.up[t1].items()
            if a in up2
        )
        return best / max(1, self._depth)


def _ask(h, query, args):
    if query == "depth":
        return h.depth
    if query == "distance":
        return DistanceModel().distance(h, *args)
    return getattr(h, query)(*args)


def _hierarchy_doc(h):
    aliases = {}
    for alias, t in h.aliases.items():
        aliases.setdefault(t, []).append(alias)
    types = [
        {"id": t, "parents": sorted(h.parents(t)), "aliases": sorted(aliases.get(t, []))}
        for t in sorted(h.types)
    ]
    return {"kind": h.kind, "root": h.root, "types": types}


def _random_dag_doc(seed):
    """A rooted multi-parent DAG whose ids do not sort in level order, with aliases."""
    rng = random.Random(seed)
    ids = [f"t{i:02d}" for i in range(rng.randint(8, 30))]
    rng.shuffle(ids)
    types = [{"id": ids[0], "parents": []}]
    for i, t in enumerate(ids[1:], start=1):
        window = ids[max(0, i - 5):i]
        types.append(
            {
                "id": t,
                "parents": rng.sample(window, rng.randint(1, min(3, len(window)))),
                "aliases": [f"{t} also {j}" for j in range(rng.randint(0, 2))],
            }
        )
    rng.shuffle(types)
    return hdoc(types, root=ids[0])


class TestQueriesMatchEagerTables:
    @pytest.mark.parametrize(
        "source", ["action", "comestible", *(f"dag-{seed}" for seed in range(6))]
    )
    def test_every_query_matches_the_all_pairs_reference(self, hierarchies, source):
        if source.startswith("dag-"):
            doc = _random_dag_doc(int(source.removeprefix("dag-")))
        else:
            doc = _hierarchy_doc(hierarchies.for_kind(source))
        ref = _EagerHierarchy(doc)
        rng = random.Random(source)
        spellings = sorted(ref.parents) + sorted(ref.aliases)
        calls = [("depth", ())]
        for t in spellings:
            calls += [("ancestors", (t,)), ("descendants", (t,))]
            for k in range(4):
                calls += [
                    (query, (t, k))
                    for query in ("ancestors", "descendants", "comparable_within", "relatives")
                ]
        pairs = [(a, b) for a in spellings for b in spellings]
        for a, b in rng.sample(pairs, min(len(pairs), 600)):
            calls += [
                (query, (a, b))
                for query in ("is_subtype", "comparable", "up_distance", "distance")
            ]
        rng.shuffle(calls)

        # each query first on a hierarchy nothing has asked yet, then all of
        # them in one shuffled order on a hierarchy that earlier queries warm
        for query, args in calls[:300]:
            expected = getattr(ref, query)(*args)
            assert _ask(load_hierarchy(doc), query, args) == expected, (query, args)
        warm = load_hierarchy(doc)
        for query, args in calls:
            assert _ask(warm, query, args) == getattr(ref, query)(*args), (query, args)


class TestDeepHierarchy:
    def test_a_ten_thousand_level_chain_loads_and_answers(self):
        ids = [f"t{i:05d}" for i in range(10_000)]
        types = [{"id": t, "parents": [p]} for t, p in zip(ids, ids[1:])]
        types.append({"id": ids[-1], "parents": []})
        h = load_hierarchy(hdoc(types, root=ids[-1]))
        leaf, root = ids[0], ids[-1]
        assert h.depth == 9999
        assert h.is_subtype(leaf, root)
        assert not h.is_subtype(root, leaf)
        assert h.up_distance(leaf, root) == 9999
        # 9999 steps up at cost 1, plus 2 per level between the two endpoints
        assert DistanceModel().distance(h, leaf, root) == 3.0


class TestTopologicalOrder:
    def test_placed_nodes_follow_their_predecessors_and_cycles_stay_out(self):
        rng = random.Random(19)
        for _ in range(500):
            nodes = [f"n{i}" for i in range(rng.randint(0, 9))]
            succ = {n: rng.sample(nodes, rng.randint(0, min(3, len(nodes)))) for n in nodes}
            order = topological_order(nodes, succ)
            place = {n: i for i, n in enumerate(order)}
            assert len(place) == len(order)
            for n in order:
                assert all(place[n] < place[t] for t in succ[n] if t in place), (succ, order)
            # left out: the nodes on a cycle, and every node reachable from one
            reach = {n: bfs(n, succ.__getitem__) for n in nodes}
            on_cycle = {n for n in nodes if any(n in reach[t] for t in succ[n])}
            behind = {t for n in on_cycle for t in reach[n]}
            assert set(nodes) - place.keys() == behind, (succ, order)

    def test_successors_outside_the_nodes_are_ignored(self):
        # z -> a closes the cycle a -> z -> a only when z is one of the nodes
        succ = {"a": ("b", "z"), "b": ("c",), "z": ("a",)}
        assert topological_order(["a", "b", "c"], succ) == ["a", "b", "c"]
        assert topological_order(["a", "b", "c", "z"], succ) == []
        assert topological_order(["c", "b"], succ) == ["b", "c"]
