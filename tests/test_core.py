from __future__ import annotations

from random import Random

import pytest

import recgen

from recipegraph.compare import equivalent, isomorphic, more_specific
from recipegraph.core import (
    Recipe,
    build_recipe,
    inputs_types,
    is_atomic,
    leq,
    make_recipe,
    outputs_types,
    recipe_graph,
    roles,
    typing_violations,
    validate_recipe_graph,
)
from recipegraph.errors import InvalidRecipeError, UnknownNodeError
from recipegraph.rewrite import structural_cost
from recipegraph.typekb import Hierarchies, load_hierarchy
from recipegraph.typesubst import CostModel, find_secondary, preferred_pair, substitution_to


def conditions(violations):
    return {v.condition for v in violations}


class TestValidateRecipeGraph:
    def test_pasta_fixture_is_valid(self, corpus):
        raw = corpus.raw("spaghetti-pasata")
        assert validate_recipe_graph(raw.graph) == []

    def test_empty_actions_is_condition_1(self):
        g = recipe_graph({"c1"}, set(), set())
        found = validate_recipe_graph(g)
        assert conditions(found) == {"1"}

    def test_empty_comestibles_is_condition_1(self):
        g = recipe_graph(set(), {"a1"}, set())
        found = conditions(validate_recipe_graph(g))
        assert "1" in found
        assert found <= {"1", "4"}  # the arcless action also trips condition 4

    def test_an_id_used_as_both_kinds_is_condition_2(self):
        g = recipe_graph({"n1", "c2"}, {"n1", "a1"}, {("n1", "a1"), ("a1", "c2")})
        found = [v for v in validate_recipe_graph(g) if v.condition == "2"]
        assert [(v.message, v.nodes) for v in found] == [("node ids used as both kinds", ("n1",))]

    def test_comestible_to_comestible_arc_is_condition_2(self):
        g = recipe_graph({"c1", "c2", "c3"}, {"a1"}, {("c1", "a1"), ("a1", "c3"), ("c1", "c2"), ("c2", "a1")})
        assert "2" in conditions(validate_recipe_graph(g))

    def test_cycle_is_condition_3(self, corpus):
        # union of the chop-tomato and tomato-loop graphs closes a loop
        from recipegraph.compose import bipartite_union

        g = bipartite_union(
            corpus.recipe("chop-tomato").graph, corpus.recipe("tomato-loop").graph
        )
        # a chain of 600 actions nests deeper than the interpreter's recursion
        # limit; it is valid, and one back arc closes a cycle along all of it
        coms = [f"c{i:03d}" for i in range(601)]
        acts = [f"a{i:03d}" for i in range(600)]
        chain = recipe_graph(
            coms, acts, [*zip(coms, acts), *zip(acts, coms[1:])]
        )
        assert validate_recipe_graph(chain) == []
        looped = recipe_graph(coms, acts, chain.arcs | {("c600", "a000")})

        for graph, length in ((g, None), (looped, 1201)):
            found = validate_recipe_graph(graph)
            assert conditions(found) == {"3"}
            [violation] = found
            assert "cycle" in violation.message
            cycle = violation.nodes
            assert cycle[0] == cycle[-1]
            assert set(zip(cycle, cycle[1:])) <= graph.arcs
            assert length is None or len(cycle) == length

    def test_disconnected_is_condition_3(self):
        g = recipe_graph(
            {"c1", "c2", "c3", "c4"},
            {"a1", "a2"},
            {("c1", "a1"), ("a1", "c2"), ("c3", "a2"), ("a2", "c4")},
        )
        found = validate_recipe_graph(g)
        assert conditions(found) == {"3"}
        [violation] = found
        assert "connected" in violation.message

    def test_action_without_output_is_condition_4(self):
        g = recipe_graph(
            {"c1", "c2"}, {"a1", "a2"}, {("c1", "a1"), ("a1", "c2"), ("c2", "a2")}
        )
        found = validate_recipe_graph(g)
        assert conditions(found) == {"4"}
        assert found[0].nodes == ("a2",)

    def test_comestible_with_two_producers_is_condition_5(self):
        g = recipe_graph(
            {"c1", "c2", "c3"},
            {"a1", "a2"},
            {("c1", "a1"), ("a1", "c2"), ("c1", "a2"), ("a2", "c2"), ("a2", "c3")},
        )
        found = validate_recipe_graph(g)
        assert conditions(found) == {"5"}
        assert found[0].nodes == ("c2",)

    def test_all_violations_are_reported_together(self):
        g = recipe_graph({"c1", "c2"}, {"a1", "a2"}, {("c1", "a1"), ("a1", "c1"), ("a2", "c2")})
        found = conditions(validate_recipe_graph(g))
        assert {"3", "4"} <= found


class TestMakeRecipe:
    def test_fixture_types_pass(self, corpus, hierarchies):
        raw = corpus.raw("spaghetti-pasata")
        recipe = make_recipe(raw.graph, raw.typing, hierarchies)
        assert recipe.type_of("c3") == "pasata"

    def test_equal_comestible_types_are_rejected(self, hierarchies):
        g = recipe_graph({"x1", "x2", "x3"}, {"y1"}, {("x1", "y1"), ("x2", "y1"), ("y1", "x3")})
        typing = {"x1": "raw onion", "x2": "raw onion", "y1": "fry", "x3": "fried onion"}
        found = typing_violations(g, typing, hierarchies)
        assert conditions(found) == {"comparable"}
        assert found[0].nodes == ("x1", "x2")
        with pytest.raises(InvalidRecipeError):
            make_recipe(g, typing, hierarchies)

    def test_ancestor_descendant_comestibles_are_rejected(self, hierarchies):
        g = recipe_graph({"x1", "x2"}, {"y1"}, {("x1", "y1"), ("y1", "x2")})
        typing = {"x1": "raw onion", "x2": "onion", "y1": "fry"}
        found = typing_violations(g, typing, hierarchies)
        assert conditions(found) == {"comparable"}

    def test_sibling_branch_types_are_accepted(self, corpus, hierarchies):
        # distinct freezer states live on different branches on purpose
        for rid in ("peas-freeze", "peas-thaw", "peas-refreeze"):
            raw = corpus.raw(rid)
            assert typing_violations(raw.graph, raw.typing, hierarchies) == []

    def test_untyped_node_is_reported(self, hierarchies):
        g = recipe_graph({"x1", "x2"}, {"y1"}, {("x1", "y1"), ("y1", "x2")})
        found = typing_violations(g, {"x1": "raw onion", "y1": "fry"}, hierarchies)
        assert conditions(found) == {"untyped"}
        assert found[0].nodes == ("x2",)

    def test_kind_mismatch_is_reported(self, hierarchies):
        g = recipe_graph({"x1", "x2"}, {"y1"}, {("x1", "y1"), ("y1", "x2")})
        typing = {"x1": "fry", "x2": "fried onion", "y1": "raw onion"}
        found = typing_violations(g, typing, hierarchies)
        assert conditions(found) == {"kind"}

    def test_unknown_type_is_reported(self, hierarchies):
        g = recipe_graph({"x1", "x2"}, {"y1"}, {("x1", "y1"), ("y1", "x2")})
        typing = {"x1": "raw onion", "x2": "moon rock", "y1": "fry"}
        found = typing_violations(g, typing, hierarchies)
        assert conditions(found) == {"unknown-type"}

    def test_alias_spellings_resolve_to_canonical(self, hierarchies):
        g = recipe_graph({"x1", "x2"}, {"y1"}, {("x1", "y1"), ("y1", "x2")})
        typing = {"x1": "raw onion", "y1": "bake at 356F for 45min", "x2": "fried onions"}
        recipe = make_recipe(g, typing, hierarchies)
        assert recipe.type_of("y1") == "bake at 180C for 45min"
        assert recipe.type_of("x2") == "fried onion"


class TestRolesAndOrder:
    def test_pasta_roles_match_the_fixture(self, corpus):
        rs = roles(corpus.recipe("spaghetti-pasata"))
        assert rs.inputs == {"c0", "c1", "c3", "c4"}
        assert rs.outputs == {"c6", "c8"}
        assert rs.mids == {"c2", "c5", "c7"}

    def test_atomic_roles(self, corpus):
        rs = roles(corpus.recipe("boil-atomic"))
        assert rs.inputs == {"c1", "c2"}
        assert rs.outputs == {"c3"}
        assert rs.mids == set()

    def test_role_type_accessors(self, corpus):
        recipe = corpus.recipe("boil-atomic")
        assert inputs_types(recipe) == {"spaghetti", "boiling salted water"}
        assert outputs_types(recipe) == {"cooked spaghetti"}

    def test_every_fixture_has_inputs_and_outputs(self, corpus):
        for rid in corpus.recipe_ids():
            rs = roles(corpus.recipe(rid))
            assert rs.inputs, rid
            assert rs.outputs, rid
            assert rs.inputs | rs.outputs | rs.mids == corpus.recipe(rid).graph.comestibles

    def test_leq_examples(self, corpus):
        recipe = corpus.recipe("spaghetti-pasata")
        assert leq(recipe, "c1", "c7")
        assert leq(recipe, "c3", "c8")
        assert leq(recipe, "c5", "c8")
        assert leq(recipe, "c5", "c5")
        assert not leq(recipe, "c8", "c1")

    def test_leq_unknown_node(self, corpus):
        with pytest.raises(UnknownNodeError):
            leq(corpus.recipe("boil-atomic"), "c1", "zz")

    def test_an_unknown_node_has_no_type_and_no_order(self, corpus):
        recipe = corpus.recipe("boil-atomic")
        with pytest.raises(UnknownNodeError):
            recipe.type_of("zz")
        with pytest.raises(UnknownNodeError):
            leq(recipe, "zz", "c1")

    def test_leq_is_a_partial_order(self, corpus):
        recipe = corpus.recipe("spaghetti-pasata")
        nodes = sorted(recipe.graph.nodes)
        for n in nodes:
            assert leq(recipe, n, n)
            for m in nodes:
                if leq(recipe, n, m) and leq(recipe, m, n):
                    assert n == m
                for k in nodes:
                    if leq(recipe, n, m) and leq(recipe, m, k):
                        assert leq(recipe, n, k)

    def test_is_atomic(self, corpus):
        assert is_atomic(corpus.recipe("boil-atomic"))
        assert not is_atomic(corpus.recipe("spaghetti-pasata"))


class TestRecipeValue:
    def test_structural_equality_and_hash(self, corpus, hierarchies):
        raw = corpus.raw("fry-onion")
        again = build_recipe(
            raw.graph.comestibles, raw.graph.actions, raw.graph.arcs, raw.typing, hierarchies
        )
        first = corpus.recipe("fry-onion")
        assert first == again
        assert hash(first) == hash(again)
        assert len({first, again}) == 1

    def test_typing_difference_breaks_equality(self, corpus, hierarchies):
        from recipegraph.typesubst import apply_substitution

        first = corpus.recipe("fry-onion")
        changed = apply_substitution(first, {"c1": "sliced onion"}, hierarchies)
        assert first != changed

    def test_a_recipe_never_equals_a_value_of_another_type(self, corpus):
        recipe = corpus.recipe("fry-onion")
        assert (recipe == 0) is False
        assert (recipe != "x") is True

    def test_repr_gives_the_size(self, corpus):
        assert repr(corpus.recipe("fry-onion")) == "Recipe(2 comestibles, 1 actions, 2 arcs)"


def _reference_comparable_pairs(graph, typing, hierarchies):
    """The original all-pairs comparability loop over the resolvable comestibles."""
    h = hierarchies.comestible
    resolved = {
        c: h.resolve(typing[c]) for c in graph.comestibles if c in typing and typing[c] in h
    }
    typed = sorted(resolved)
    return [
        ((c1, c2), (resolved[c1], resolved[c2]))
        for i, c1 in enumerate(typed)
        for c2 in typed[i + 1:]
        if h.comparable(resolved[c1], resolved[c2])
    ]


# a multi-parent comestible hierarchy with aliases: tomato sits below three
# parents, cherry tomato below tomato, apple below two of them
MULTI_PARENT = Hierarchies(
    action=recgen.SYNTH.action,
    comestible=load_hierarchy(
        {
            "kind": "comestible",
            "root": "food",
            "types": [
                {"id": "food", "parents": []},
                {"id": "veg", "parents": ["food"]},
                {"id": "fruit", "parents": ["food"], "aliases": ["fruits"]},
                {"id": "red", "parents": ["food"]},
                {"id": "tomato", "parents": ["veg", "fruit", "red"], "aliases": ["love apple", "tom"]},
                {"id": "cherry tomato", "parents": ["tomato"]},
                {"id": "apple", "parents": ["fruit", "red"]},
                {"id": "leek", "parents": ["veg"]},
                {"id": "salt", "parents": ["food"]},
            ],
        }
    ),
)


class TestComparabilityMatchesAllPairs:
    @staticmethod
    def assert_same_as_reference(graph, typing, hierarchies):
        found = typing_violations(graph, typing, hierarchies)
        pairs = [(v.nodes, v.types) for v in found if v.condition == "comparable"]
        assert pairs == _reference_comparable_pairs(graph, typing, hierarchies)
        assert all(v.condition == "comparable" for v in found[len(found) - len(pairs):])
        return len(pairs)

    @staticmethod
    def random_typing(rng, graph, hierarchies, spellings):
        """Repeated, aliased and a few wrong-kind, unknown or missing types."""
        actions = sorted(hierarchies.action.types)
        typing = {a: rng.choice(actions) for a in graph.actions}
        for c in graph.comestibles:
            roll = rng.random()
            if roll < 0.05:
                continue
            if roll < 0.1:
                typing[c] = rng.choice(actions + ["no such type"])
            else:
                typing[c] = rng.choice(spellings)
        return typing

    def test_corpus_hierarchy(self, corpus, hierarchies):
        h = hierarchies.comestible
        spellings = sorted(h.types | h.aliases.keys())
        found = 0
        for seed in range(60):
            rng = Random(seed)
            graph = corpus.raw(rng.choice(corpus.recipe_ids())).graph
            typing = self.random_typing(rng, graph, hierarchies, spellings)
            found += self.assert_same_as_reference(graph, typing, hierarchies)
        assert found > 0

    def test_multi_parent_hierarchy_with_aliases(self):
        h = MULTI_PARENT.comestible
        spellings = sorted(h.types | h.aliases.keys())
        found = 0
        for seed in range(200):
            rng = Random(seed)
            graph = recgen.random_recipe(rng, max_actions=5).graph
            typing = self.random_typing(rng, graph, MULTI_PARENT, spellings)
            found += self.assert_same_as_reference(graph, typing, MULTI_PARENT)
        assert found > 0


def _with_aliases(h):
    """``h`` with one extra spelling, the id in capitals, for every type."""
    from recipegraph.bundle import hierarchy_doc

    doc = hierarchy_doc(h)
    for entry in doc["types"]:
        entry["aliases"] = [entry["id"].upper()]
    return load_hierarchy(doc)


ALIASED = Hierarchies(
    action=_with_aliases(recgen.SYNTH.action), comestible=_with_aliases(recgen.SYNTH.comestible)
)


class TestMakeRecipeAgreesWithTypingViolations:
    @staticmethod
    def retype(rng, recipe):
        """The recipe's typing with a few random faults, in a shuffled order."""
        typing = dict(recipe.typing)
        coms = sorted(recipe.graph.comestibles)
        for _ in range(rng.randint(0, 3)):
            n = rng.choice(sorted(recipe.graph.nodes))
            kind = recipe.graph.kind_of(n)
            other = ALIASED.comestible if kind == "action" else ALIASED.action
            roll = rng.random()
            if roll < 0.3:
                typing[n] = typing.get(n, recipe.typing[n]).upper()  # an alias
            elif roll < 0.4:
                typing[n] = rng.choice(sorted(other.types))  # the wrong kind
            elif roll < 0.5:
                typing[n] = "no such type"
            elif roll < 0.6:
                typing.pop(n, None)  # untyped
            elif roll < 0.7:
                typing[f"stray{rng.randrange(3)}"] = rng.choice(sorted(ALIASED.comestible.types))
            elif len(coms) > 1:
                c1, c2 = rng.sample(coms, 2)
                below = recipe.typing[c1].split()[0] + " fine"
                typing[c2] = rng.choice([recipe.typing[c1], below])  # comparable to c1
        items = list(typing.items())
        rng.shuffle(items)
        return dict(items)

    def test_random_retypings(self):
        """Either the violations ``typing_violations`` lists, or every type resolved in order."""
        made = failed = 0
        for seed in range(400):
            rng = Random(seed)
            recipe = recgen.random_recipe(rng, max_actions=5)
            graph = recipe.graph
            typing = self.retype(rng, recipe)
            expected = typing_violations(graph, typing, ALIASED)
            if expected:
                with pytest.raises(InvalidRecipeError) as err:
                    make_recipe(graph, typing, ALIASED)
                assert list(err.value.violations) == expected
                failed += 1
            else:
                got = make_recipe(graph, typing, ALIASED).typing
                resolve = {n: ALIASED.for_kind(graph.kind_of(n)).resolve(t) for n, t in typing.items()}
                assert list(got.items()) == list(resolve.items())
                made += 1
        assert made > 50 and failed > 50


# Every search over a recipe, each run on the recipe given twice where it takes two.
SEARCHES = {
    "isomorphic": lambda r, ws: isomorphic(r, r),
    "equivalent": lambda r, ws: equivalent(r, r),
    "more_specific": lambda r, ws: more_specific(r, r, ws.hierarchies),
    "substitution_to": lambda r, ws: substitution_to(r, r),
    "structural_cost": lambda r, ws: structural_cost(r, r, ws.hierarchies),
    "find_secondary": lambda r, ws: find_secondary(r, {}, ws.acceptability, ws.hierarchies),
    "preferred_pair": lambda r, ws: preferred_pair(
        r, ["c1"], ws.acceptability, CostModel(), ws.hierarchies
    ),
}


class TestSearchesOnUnvalidatedRecipes:
    @pytest.mark.parametrize("stray", [("a1", "zz"), ("zz", "c1")], ids=["to-zz", "from-zz"])
    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_an_arc_outside_the_node_sets_is_condition_2(self, corpus, search, stray):
        # fry-onion with one arc more; Recipe() itself validates nothing
        arcs = {("c1", "a1"), ("a1", "c2"), stray}
        typing = {"c1": "raw onion", "a1": "fry", "c2": "fried onion"}
        recipe = Recipe(recipe_graph({"c1", "c2"}, {"a1"}, arcs), typing)
        with pytest.raises(InvalidRecipeError) as err:
            SEARCHES[search](recipe, corpus)
        (violation,) = err.value.violations
        assert violation.condition == "2"
        assert violation.arcs == (stray,)
        assert violation in validate_recipe_graph(recipe.graph)
