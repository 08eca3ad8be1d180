"""Randomized invariants over generated recipes.

Hypothesis drives the simple algebraic laws through a seeded-generator
strategy; the heavier structural suites (closure round trips, rewrite laws)
run as seeded loops in the acceptance module.
"""

from __future__ import annotations

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import recgen
from recgen import SYNTH, random_recipe
from oracles import brute_isomorphisms
from recipegraph.compare import isomorphic
from recipegraph.compose import CompositionFailure, bipartite_union, compose
from recipegraph.core import Recipe, leq, roles, validate_recipe_graph
from recipegraph.typesubst import apply_substitution

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

recipes = st.integers(0, 10**9).map(lambda seed: random_recipe(Random(seed)))


def fresh_branch_types(recipe: Recipe, rng: Random, k: int = 1) -> list[str]:
    used = {t.split()[0] for t in recipe.typing.values()}
    free = [f"ing{i:02d}" for i in range(recgen.N_BRANCHES) if f"ing{i:02d}" not in used]
    return rng.sample(free, k)


def rename_copy(recipe: Recipe, suffix: str) -> Recipe:
    from recipegraph.core import build_recipe

    return build_recipe(
        {f"{c}{suffix}" for c in recipe.graph.comestibles},
        {f"{a}{suffix}" for a in recipe.graph.actions},
        [(f"{s}{suffix}", f"{t}{suffix}") for s, t in recipe.graph.arcs],
        {f"{n}{suffix}": t for n, t in recipe.typing.items()},
        SYNTH,
    )


class TestGeneratedGraphs:
    @PROPERTY_SETTINGS
    @given(recipe=recipes)
    def test_generator_output_is_always_valid(self, recipe: Recipe):
        assert validate_recipe_graph(recipe.graph) == []

    @PROPERTY_SETTINGS
    @given(recipe=recipes)
    def test_degree_observations(self, recipe: Recipe):
        g = recipe.graph
        for a in g.actions:
            assert g.in_degree(a) > 0
            assert g.out_degree(a) > 0
        for c in g.comestibles:
            assert g.in_degree(c) <= 1
        rs = roles(recipe)
        assert rs.inputs and rs.outputs
        assert rs.inputs | rs.outputs | rs.mids == g.comestibles
        assert rs.inputs.isdisjoint(rs.outputs)
        assert rs.inputs.isdisjoint(rs.mids)
        assert rs.outputs.isdisjoint(rs.mids)

    @PROPERTY_SETTINGS
    @given(recipe=recipes, seed=st.integers(0, 10**6))
    def test_mutations_are_caught_with_their_condition(self, recipe: Recipe, seed: int):
        rng = Random(seed)
        for condition, breaker in (
            ("1", recgen.break_condition_1),
            ("2", recgen.break_condition_2),
            ("3", recgen.break_condition_3),
            ("4", recgen.break_condition_4),
            ("5", recgen.break_condition_5),
        ):
            broken = breaker(rng, recipe)
            if broken is None:
                continue
            violations = validate_recipe_graph(broken)
            found = {v.condition for v in violations}
            assert condition in found
            if condition != "1":
                assert found == {condition}
            if condition == "3":
                [cycle] = [v.nodes for v in violations if "cycle" in v.message]
                assert cycle[0] == cycle[-1]
                assert set(zip(cycle, cycle[1:])) <= broken.arcs

    @PROPERTY_SETTINGS
    @given(recipe=recipes, seed=st.integers(0, 10**6))
    def test_leq_is_a_partial_order(self, recipe: Recipe, seed: int):
        rng = Random(seed)
        nodes = sorted(recipe.graph.nodes)
        for _ in range(30):
            n, m, k = (rng.choice(nodes) for _ in range(3))
            assert leq(recipe, n, n)
            if leq(recipe, n, m) and leq(recipe, m, n):
                assert n == m
            if leq(recipe, n, m) and leq(recipe, m, k):
                assert leq(recipe, n, k)


class TestSubstitutionAlgebra:
    @PROPERTY_SETTINGS
    @given(recipe=recipes, seed=st.integers(0, 10**6))
    def test_reflexivity(self, recipe: Recipe, seed: int):
        n = Random(seed).choice(sorted(recipe.graph.nodes))
        assert apply_substitution(recipe, {n: recipe.type_of(n)}, SYNTH) == recipe

    @PROPERTY_SETTINGS
    @given(recipe=recipes, seed=st.integers(0, 10**6))
    def test_commuting_singletons_on_distinct_nodes(self, recipe: Recipe, seed: int):
        rng = Random(seed)
        nodes = sorted(recipe.graph.comestibles)
        if len(nodes) < 2:
            return
        n1, n2 = rng.sample(nodes, 2)
        t1, t2 = fresh_branch_types(recipe, rng, 2)
        one_way = apply_substitution(apply_substitution(recipe, {n1: t1}, SYNTH), {n2: t2}, SYNTH)
        other_way = apply_substitution(apply_substitution(recipe, {n2: t2}, SYNTH), {n1: t1}, SYNTH)
        assert one_way == other_way
        assert one_way == apply_substitution(recipe, {n1: t1, n2: t2}, SYNTH)

    @PROPERTY_SETTINGS
    @given(recipe=recipes, seed=st.integers(0, 10**6))
    def test_reversibility(self, recipe: Recipe, seed: int):
        rng = Random(seed)
        n = rng.choice(sorted(recipe.graph.comestibles))
        [t] = fresh_branch_types(recipe, rng)
        there = apply_substitution(recipe, {n: t}, SYNTH)
        assert there != recipe
        assert apply_substitution(there, {n: recipe.type_of(n)}, SYNTH) == recipe

    @PROPERTY_SETTINGS
    @given(recipe=recipes)
    def test_bindings_for_absent_nodes_are_inert(self, recipe: Recipe):
        ghost_bindings = {"zz-ghost-1": "ing00", "zz-ghost-2": "verb00"}
        assert apply_substitution(recipe, ghost_bindings, SYNTH) == recipe

    @PROPERTY_SETTINGS
    @given(recipe=recipes, seed=st.integers(0, 10**6))
    def test_graph_never_changes(self, recipe: Recipe, seed: int):
        rng = Random(seed)
        n = rng.choice(sorted(recipe.graph.comestibles))
        [t] = fresh_branch_types(recipe, rng)
        assert apply_substitution(recipe, {n: t}, SYNTH).graph == recipe.graph


class TestUnionAndComposition:
    @PROPERTY_SETTINGS
    @given(recipe=recipes)
    def test_union_is_idempotent(self, recipe: Recipe):
        assert bipartite_union(recipe.graph, recipe.graph) == recipe.graph

    @PROPERTY_SETTINGS
    @given(r1=recipes, r2=recipes)
    def test_union_is_commutative(self, r1: Recipe, r2: Recipe):
        assert bipartite_union(r1.graph, r2.graph) == bipartite_union(r2.graph, r1.graph)

    @PROPERTY_SETTINGS
    @given(r1=recipes, r2=recipes)
    def test_disjoint_recipes_never_compose(self, r1: Recipe, r2: Recipe):
        if r1.graph.nodes & r2.graph.nodes:
            return
        assert isinstance(compose(r1, r2, SYNTH), CompositionFailure)
        assert isinstance(compose(r2, r1, SYNTH), CompositionFailure)

    @PROPERTY_SETTINGS
    @given(recipe=recipes)
    def test_self_composition_fails(self, recipe: Recipe):
        assert isinstance(compose(recipe, recipe, SYNTH), CompositionFailure)


class TestWitnessQuality:
    @PROPERTY_SETTINGS
    @given(recipe=recipes)
    def test_isomorphism_witnesses_are_verified_bijections(self, recipe: Recipe):
        witness = isomorphic(recipe, recipe)
        assert witness is not None
        mapping = witness.as_dict()
        assert set(mapping) == recipe.graph.nodes
        assert set(mapping.values()) == recipe.graph.nodes
        assert {(mapping[s], mapping[t]) for s, t in recipe.graph.arcs} == recipe.graph.arcs

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**6))
    def test_isomorphic_matches_brute_force_on_small_pairs(self, seed: int):
        rng = Random(seed)
        r1 = random_recipe(rng, max_actions=2, max_nodes=7)
        r2 = random_recipe(rng, max_actions=2, max_nodes=7)
        fast = isomorphic(r1, r2)
        slow = brute_isomorphisms(r1, r2)
        assert (fast is not None) == bool(slow)
        if fast is not None:
            assert fast.as_dict() in slow


class TestRelationStrength:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**6))
    def test_equivalent_implies_isomorphic_implies_same_counts(self, seed: int):
        from recipegraph.compare import equivalent

        rng = Random(seed)
        r1 = random_recipe(rng, max_actions=3, max_nodes=9)
        renamed = rename_copy(r1, "q")
        pair = equivalent(r1, renamed)
        assert pair is not None
        iso = isomorphic(r1, renamed)
        assert iso is not None
        assert len(r1.graph.comestibles) == len(renamed.graph.comestibles)
        assert len(r1.graph.actions) == len(renamed.graph.actions)
        assert len(r1.graph.arcs) == len(renamed.graph.arcs)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**6))
    def test_isomorphism_is_symmetric_and_transitive_via_witnesses(self, seed: int):
        rng = Random(seed)
        r1 = random_recipe(rng, max_actions=3, max_nodes=9)
        r2 = rename_copy(r1, "q")
        r3 = rename_copy(r1, "w")
        forward = isomorphic(r1, r2)
        assert forward is not None
        inverse = forward.inverse().as_dict()
        assert {(inverse[s], inverse[t]) for s, t in r2.graph.arcs} == r1.graph.arcs
        second = isomorphic(r2, r3)
        assert second is not None
        composed = {n: second.as_dict()[m] for n, m in forward.forward}
        assert {(composed[s], composed[t]) for s, t in r1.graph.arcs} == r3.graph.arcs


class TestRewriteLaws:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**6))
    def test_structural_substitution_subsumes_type_substitution(self, seed: int):
        from recipegraph.rewrite import structural_substitute

        rng = Random(seed)
        recipe = random_recipe(rng)
        coms = sorted(recipe.graph.comestibles)
        k = rng.randint(1, min(3, len(coms)))
        chosen = rng.sample(coms, k)
        new_types = fresh_branch_types(recipe, rng, k)
        bindings = dict(zip(chosen, new_types))
        retyped = apply_substitution(recipe, bindings, SYNTH)
        replacement = Recipe(recipe.graph, retyped.typing)
        result = structural_substitute(recipe, recipe, replacement, SYNTH)
        assert result == retyped

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 10**6))
    def test_whole_recipe_replacement_reaches_any_recipe(self, seed: int):
        from recipegraph.rewrite import structural_substitute

        rng = Random(seed)
        host = random_recipe(rng)
        target = random_recipe(rng, prefix="h")
        assert structural_substitute(host, host, target, SYNTH) == target
