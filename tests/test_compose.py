from __future__ import annotations

import importlib

import pytest

from recipegraph.compose import (
    CompositionFailure,
    bipartite_union,
    compose,
    compose_closure,
    decompose,
)
from recipegraph.core import Recipe, is_atomic, recipe_graph, roles, validate_recipe_graph
from recipegraph.errors import ClosureLimitError, KindConflictError, RecipeError


class TestBipartiteUnion:
    def test_loop_halves_union_into_a_cycle(self, corpus):
        g = bipartite_union(
            corpus.recipe("chop-tomato").graph, corpus.recipe("tomato-loop").graph
        )
        assert g.comestibles == {"c1", "c2"}
        assert g.actions == {"a1", "a2"}
        assert len(g.arcs) == 4
        found = validate_recipe_graph(g)
        assert [v.condition for v in found] == ["3"]
        assert "cycle" in found[0].message

    def test_union_with_itself_is_identity(self, corpus):
        g = corpus.recipe("hummus").graph
        assert bipartite_union(g, g) == g

    def test_union_of_a_subgraph_is_absorbed(self, corpus, induced):
        host = corpus.recipe("spaghetti-pasata")
        part = induced(host, {"c3", "c4", "c5", "a2"})
        assert bipartite_union(host.graph, part.graph) == host.graph

    def test_disjoint_union_keeps_two_components(self, corpus):
        g = bipartite_union(
            corpus.recipe("peas-freeze").graph, corpus.recipe("chop-lettuce").graph
        )
        found = validate_recipe_graph(g)
        assert [v.condition for v in found] == ["3"]
        assert "connected" in found[0].message

    def test_kind_conflict_is_rejected(self):
        g1 = recipe_graph({"n1"}, {"n2"}, {("n1", "n2")})
        g2 = recipe_graph({"n2"}, {"n1"}, {("n2", "n1")})
        with pytest.raises(KindConflictError):
            bipartite_union(g1, g2)


class TestCompose:
    def test_output_feeding_input_composes_to_a_chain(self, corpus, hierarchies):
        result = compose(corpus.recipe("boil-chain"), corpus.recipe("drain-chain"), hierarchies)
        assert isinstance(result, Recipe)
        assert result.graph.comestibles == {"c1", "c2", "c3"}
        assert result.graph.actions == {"a1", "a2"}
        rs = roles(result)
        assert rs.inputs == {"c1"}
        assert rs.mids == {"c2"}
        assert rs.outputs == {"c3"}

    def test_backfeeding_pair_fails_condition_4_only(self, corpus, hierarchies):
        result = compose(corpus.recipe("chop-tomato"), corpus.recipe("tomato-loop"), hierarchies)
        assert isinstance(result, CompositionFailure)
        assert result.conditions == {"4"}
        assert not result

    def test_failure_text_names_each_violated_condition(self, corpus, hierarchies):
        result = compose(corpus.recipe("chop-tomato"), corpus.recipe("tomato-loop"), hierarchies)
        assert str(result) == (
            "composition failed: condition 4: outputs of the second recipe feed "
            "inputs of the first | nodes c1"
        )

    def test_disjoint_recipes_fail_condition_1(self, corpus, hierarchies):
        result = compose(corpus.recipe("peas-freeze"), corpus.recipe("chop-lettuce"), hierarchies)
        assert isinstance(result, CompositionFailure)
        assert "1" in result.conditions

    def test_peas_chain_extends_then_hits_condition_6(self, corpus, hierarchies):
        freeze = corpus.recipe("peas-freeze")
        thaw = corpus.recipe("peas-thaw")
        refreeze = corpus.recipe("peas-refreeze")
        rethaw = corpus.recipe("peas-rethaw")
        two = compose(freeze, thaw, hierarchies)
        assert isinstance(two, Recipe)
        three = compose(two, refreeze, hierarchies)
        assert isinstance(three, Recipe)
        assert roles(three).inputs == {"c1"}
        assert roles(three).outputs == {"c4"}
        blocked = compose(three, rethaw, hierarchies)
        assert isinstance(blocked, CompositionFailure)
        assert blocked.conditions == {"6"}
        # the evidence names the two thawed-peas nodes
        [violation] = blocked.violations
        assert set(violation.nodes) == {"c3", "c5"}

    def test_role_identities_of_a_successful_composition(self, corpus, hierarchies):
        r1 = corpus.recipe("chop-lettuce")
        r2 = corpus.recipe("mix-salad")
        result = compose(r1, r2, hierarchies)
        assert isinstance(result, Recipe)
        roles1, roles2, got = roles(r1), roles(r2), roles(result)
        glue = roles1.outputs & roles2.inputs
        assert got.inputs == (roles1.inputs | roles2.inputs) - glue
        assert got.mids == glue | roles1.mids | roles2.mids
        assert got.outputs == (roles1.outputs | roles2.outputs) - glue

    def test_successful_composition_is_anticommutative(self, corpus, hierarchies):
        r1 = corpus.recipe("boil-chain")
        r2 = corpus.recipe("drain-chain")
        assert isinstance(compose(r1, r2, hierarchies), Recipe)
        assert isinstance(compose(r2, r1, hierarchies), CompositionFailure)

    def test_self_composition_always_fails(self, corpus, hierarchies):
        recipe = corpus.recipe("hummus")
        result = compose(recipe, recipe, hierarchies)
        assert isinstance(result, CompositionFailure)

    def test_double_producer_sharing_is_reported_as_result_failure(self):
        from recgen import SYNTH
        from recipegraph.core import build_recipe

        # x3 is an output of the first recipe and an intermediate of the
        # second; the six conditions all pass, yet the union gives x3 two
        # producers and cannot be a recipe
        first = build_recipe(
            {"x1", "x2", "x3"},
            {"y1"},
            [("x1", "y1"), ("y1", "x2"), ("y1", "x3")],
            {"x1": "ing00", "y1": "verb00", "x2": "ing01", "x3": "ing02"},
            SYNTH,
        )
        second = build_recipe(
            {"x2", "x3", "x4"},
            {"y2", "y3"},
            [("x2", "y2"), ("y2", "x3"), ("x3", "y3"), ("y3", "x4")],
            {"x2": "ing01", "y2": "verb01", "x3": "ing02", "y3": "verb02", "x4": "ing03"},
            SYNTH,
        )
        result = compose(first, second, SYNTH)
        assert isinstance(result, CompositionFailure)
        assert result.conditions == {"result"}
        assert any("x3" in v.nodes for v in result.violations)

    def test_a_glue_node_typed_differently_on_each_side_fails_condition_5(
        self, corpus, hierarchies
    ):
        from recipegraph.typesubst import apply_substitution

        drain = apply_substitution(corpus.recipe("drain-chain"), {"c2": "pasta water"}, hierarchies)
        result = compose(corpus.recipe("boil-chain"), drain, hierarchies)
        assert isinstance(result, CompositionFailure)
        [violation] = result.violations
        assert violation.condition == "5"
        assert violation.nodes == ("c2",)
        assert violation.types == ("cooked spaghetti", "pasta water")

    def test_a_shared_input_typed_differently_is_a_typing_failure(self, corpus, hierarchies):
        from recipegraph.core import build_recipe

        # c2 is an input of both recipes, so no condition constrains its type
        drain = build_recipe(
            {"c2", "c3", "c4"},
            {"a2"},
            [("c2", "a2"), ("c3", "a2"), ("a2", "c4")],
            {"c2": "water", "c3": "cooked spaghetti", "a2": "drain and pour in bowl",
             "c4": "spaghetti in bowl"},
            hierarchies,
        )
        result = compose(corpus.recipe("boil-atomic"), drain, hierarchies)
        assert isinstance(result, CompositionFailure)
        [violation] = result.violations
        assert violation.condition == "typing"
        assert violation.nodes == ("c2",)

    def test_cross_kind_node_reuse_is_an_error(self, corpus, hierarchies):
        from recipegraph.core import build_recipe

        # node "a1" is an action in the corpus but a comestible here
        rogue = build_recipe(
            {"a1", "zz2"},
            {"zz1"},
            [("a1", "zz1"), ("zz1", "zz2")],
            {"a1": "raw onion", "zz1": "fry", "zz2": "fried onion"},
            hierarchies,
        )
        with pytest.raises(KindConflictError):
            compose(corpus.recipe("fry-onion"), rogue, hierarchies)

    def test_salad_triple_shows_non_associativity(self, corpus, hierarchies):
        r1 = corpus.recipe("chop-tomato")
        r2 = corpus.recipe("chop-lettuce")
        r3 = corpus.recipe("mix-salad")
        r23 = compose(r2, r3, hierarchies)
        assert isinstance(r23, Recipe)
        full = compose(r1, r23, hierarchies)
        assert isinstance(full, Recipe)
        assert full.graph.comestibles == {"c1", "c2", "c3", "c4", "c5"}
        assert isinstance(compose(r1, r2, hierarchies), CompositionFailure)


class TestClosure:
    def test_peas_closure_is_exactly_the_six_derived_recipes(self, corpus, hierarchies):
        a1 = corpus.recipe("peas-freeze")
        a2 = corpus.recipe("peas-thaw")
        a3 = corpus.recipe("peas-refreeze")
        closed = compose_closure([a1, a2, a3], hierarchies)
        twelve = compose(a1, a2, hierarchies)
        twenty_three = compose(a2, a3, hierarchies)
        full = compose(twelve, a3, hierarchies)
        assert isinstance(full, Recipe)
        assert closed == {a1, a2, a3, twelve, twenty_three, full}
        # both association orders collapse to the same element
        assert compose(a1, twenty_three, hierarchies) == full

    def test_singleton_closure_is_itself(self, corpus, hierarchies):
        recipe = corpus.recipe("hummus")
        assert compose_closure([recipe], hierarchies) == {recipe}

    def test_disjoint_seeds_stay_uncombined(self, corpus, hierarchies):
        seeds = [corpus.recipe("peas-freeze"), corpus.recipe("chop-lettuce")]
        assert compose_closure(seeds, hierarchies) == set(seeds)

    def test_limit_is_reported_with_partial_closure(self, corpus, hierarchies):
        seeds = [
            corpus.recipe("peas-freeze"),
            corpus.recipe("peas-thaw"),
            corpus.recipe("peas-refreeze"),
        ]
        with pytest.raises(ClosureLimitError) as err:
            compose_closure(seeds, hierarchies, max_recipes=4)
        assert len(err.value.partial) >= 4

    def test_a_seed_set_past_the_limit_is_reported_before_any_composition(
        self, corpus, hierarchies
    ):
        seeds = [corpus.recipe("peas-freeze"), corpus.recipe("peas-thaw")]
        with pytest.raises(ClosureLimitError) as err:
            compose_closure(seeds, hierarchies, max_recipes=1)
        assert str(err.value) == "seed set already exceeds max_recipes"
        assert err.value.partial == frozenset(seeds)

    def test_node_limit_is_reported(self, corpus, hierarchies):
        seeds = [corpus.recipe("peas-freeze"), corpus.recipe("peas-thaw")]
        with pytest.raises(ClosureLimitError):
            compose_closure(seeds, hierarchies, max_nodes=4)


    @pytest.mark.parametrize("option", ["max_recipes", "max_nodes"])
    def test_a_negative_limit_is_rejected_before_any_composition(
        self, monkeypatch, corpus, hierarchies, option
    ):
        def no_compose(*args):
            raise AssertionError("composed despite a negative limit")

        # the package exports the function ``compose``, which hides the module
        monkeypatch.setattr(importlib.import_module("recipegraph.compose"), "compose", no_compose)
        seeds = [corpus.recipe("peas-freeze"), corpus.recipe("peas-thaw")]
        with pytest.raises(RecipeError) as err:
            compose_closure(seeds, hierarchies, **{option: -1})
        assert type(err.value) is RecipeError
        assert str(err.value) == f"{option} must be a non-negative integer, got -1"

class TestDecompose:
    def test_one_piece_per_action(self, corpus, hierarchies):
        recipe = corpus.recipe("spaghetti-pasata")
        pieces = decompose(recipe, hierarchies)
        assert len(pieces) == len(recipe.graph.actions)
        assert all(is_atomic(p) for p in pieces)
        by_action = {next(iter(p.graph.actions)): p for p in pieces}
        assert by_action["a2"].graph.comestibles == {"c3", "c4", "c5"}
        assert by_action["a3"].graph.comestibles == {"c2", "c6", "c7"}

    def test_atomic_decomposes_to_itself(self, corpus, hierarchies):
        recipe = corpus.recipe("fry-onion")
        assert decompose(recipe, hierarchies) == (recipe,)

    def test_round_trip_through_composition(self, corpus, hierarchies):
        for rid in ("spaghetti-pasata", "hummus", "vegetable-soup", "carrot-soup"):
            recipe = corpus.recipe(rid)
            closed = compose_closure(decompose(recipe, hierarchies), hierarchies)
            assert recipe in closed, rid


HASH_SEED_SCRIPT = """
from recipegraph.bundle import load_corpus
from recipegraph.compose import bipartite_union, decompose
from recipegraph.core import recipe_graph
from recipegraph.errors import KindConflictError

ws = load_corpus()
for rid in ("spaghetti-pasata", "vegetable-soup"):
    print([list(p.typing) for p in decompose(ws.recipe(rid), ws.hierarchies)])
ids = [f"n{i}" for i in range(8)]
try:
    bipartite_union(recipe_graph(ids, ["a"], []), recipe_graph(["c"], ids, []))
except KindConflictError as exc:
    print(exc.nodes)
"""


def test_decompose_and_kind_conflicts_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import recipegraph

    src = str(Path(recipegraph.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            capture_output=True, env=env, timeout=60, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert b"('n0', 'n1', 'n2', 'n3', 'n4', 'n5', 'n6', 'n7')" in outputs.pop()
