from __future__ import annotations

import pytest

from oracles import brute_structural_cost
from recipegraph.core import Recipe
from recipegraph.errors import NotSubrecipeError, RewriteFailureError
from recipegraph.rewrite import (
    RewriteFailure,
    RewriteStep,
    StructuralCostModel,
    apply_sequence,
    front,
    is_parallel,
    is_untrimmed_subrecipe,
    search_secondary_steps,
    structural_cost,
    structural_substitute,
    verify_secondary_sequence,
)
from recipegraph.typekb import DistanceModel


@pytest.fixture()
def hummus_parts(corpus, induced):
    host = corpus.recipe("hummus")
    prep = induced(host, {"c1", "a1", "c2", "a2", "c3"})
    cook = induced(host, {"c2", "a2", "c3"})
    return host, prep, cook


class TestFront:
    def test_prep_section_fronts_on_the_cooked_output(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        assert front(host, prep) == {"c3"}

    def test_middle_section_fronts_on_both_ends(self, corpus, hummus_parts):
        host, _, cook = hummus_parts
        assert front(host, cook) == {"c2", "c3"}

    def test_whole_recipe_has_empty_front(self, corpus):
        host = corpus.recipe("hummus")
        assert front(host, host) == set()

    def test_non_subrecipe_is_rejected(self, corpus):
        with pytest.raises(NotSubrecipeError):
            front(corpus.recipe("hummus"), corpus.recipe("fry-onion"))


class TestUntrimmed:
    def test_sections_with_all_their_comestibles_are_untrimmed(self, corpus, hummus_parts):
        host, prep, cook = hummus_parts
        assert is_untrimmed_subrecipe(prep, host)
        assert is_untrimmed_subrecipe(cook, host)
        assert is_untrimmed_subrecipe(host, host)

    def test_missing_adjacent_comestible_disqualifies(self, corpus, induced):
        # the sauce section without one of the mix inputs
        host = corpus.recipe("spaghetti-pasata")
        partial = induced(host, {"c3", "a2", "c5"})
        assert not is_untrimmed_subrecipe(partial, host)


class TestParallel:
    def test_replacement_produces_into_the_same_front_node(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        replacement = corpus.recipe("hummus-canned-shortcut")
        assert is_parallel(prep, replacement, host)

    def test_recipe_is_parallel_to_itself(self, corpus):
        host = corpus.recipe("hummus")
        assert is_parallel(host, host, host)

    def test_consuming_instead_of_producing_breaks_parallelism(
        self, corpus, hierarchies, hummus_parts
    ):
        from recipegraph.core import build_recipe

        host, prep, _ = hummus_parts
        flipped = build_recipe(
            {"c3", "c9x"},
            {"a9"},
            [("c3", "a9"), ("a9", "c9x")],
            {"c3": "cooked chickpeas", "a9": "blend with tahini", "c9x": "hummus"},
            hierarchies,
        )
        assert not is_parallel(prep, flipped, host)


class TestStructuralSubstitute:
    def test_canned_shortcut_replaces_the_prep_section(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        result = structural_substitute(
            host, prep, corpus.recipe("hummus-canned-shortcut"), corpus.hierarchies
        )
        assert result == corpus.recipe("hummus-canned")

    def test_two_step_cook_replaces_the_single_boil(self, corpus, hummus_parts):
        host, _, cook = hummus_parts
        result = structural_substitute(
            host, cook, corpus.recipe("hummus-pressure-cook"), corpus.hierarchies
        )
        assert result == corpus.recipe("hummus-slow")

    def test_replacing_a_part_by_itself_is_identity(self, corpus, hummus_parts):
        host, prep, cook = hummus_parts
        for part in (prep, cook, host):
            assert structural_substitute(host, part, part, corpus.hierarchies) == host

    def test_substitution_reverses(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        shortcut = corpus.recipe("hummus-canned-shortcut")
        forward = structural_substitute(host, prep, shortcut, corpus.hierarchies)
        assert isinstance(forward, Recipe)
        back = structural_substitute(forward, shortcut, prep, corpus.hierarchies)
        assert back == host

    def test_whole_recipe_swap_reaches_any_recipe(self, corpus):
        host = corpus.recipe("hummus")
        other = corpus.recipe("vegetable-soup")
        result = structural_substitute(host, host, other, corpus.hierarchies)
        assert result == other

    def test_empty_front_policy_flag(self, corpus):
        host = corpus.recipe("hummus")
        other = corpus.recipe("vegetable-soup")
        result = structural_substitute(
            host, host, other, corpus.hierarchies, allow_empty_front=False
        )
        assert isinstance(result, RewriteFailure)
        assert "policy" in result.conditions

    def test_trimmed_part_fails_condition_iii(self, corpus, induced):
        host = corpus.recipe("spaghetti-pasata")
        partial = induced(host, {"c3", "a2", "c5"})
        result = structural_substitute(
            host, partial, corpus.recipe("bolognese-sauce-prep"), corpus.hierarchies
        )
        assert isinstance(result, RewriteFailure)
        assert "iii" in result.conditions

    def test_node_stealing_fails_condition_iv(self, corpus, hierarchies, hummus_parts):
        from recipegraph.core import build_recipe

        host, prep, _ = hummus_parts
        thief = build_recipe(
            {"c7", "c3", "c4"},
            {"a9"},
            [("c7", "a9"), ("c4", "a9"), ("a9", "c3")],
            {
                "c7": "canned chickpeas",
                "c4": "water",
                "a9": "heat canned chickpeas in water",
                "c3": "cooked chickpeas",
            },
            hierarchies,
        )
        result = structural_substitute(host, prep, thief, corpus.hierarchies)
        assert isinstance(result, RewriteFailure)
        assert "iv" in result.conditions

    def test_comparable_insertion_fails_condition_v(self, corpus, hierarchies, hummus_parts):
        from recipegraph.core import build_recipe

        host, prep, _ = hummus_parts
        # replacement output typed like a kept node's chickpea spread
        clash = build_recipe(
            {"c7", "c8", "c3"},
            {"a9"},
            [("c7", "a9"), ("c8", "a9"), ("a9", "c3")],
            {
                "c7": "hummus",
                "c8": "water",
                "a9": "heat canned chickpeas in water",
                "c3": "cooked chickpeas",
            },
            hierarchies,
        )
        result = structural_substitute(host, prep, clash, corpus.hierarchies)
        assert isinstance(result, RewriteFailure)
        assert "v" in result.conditions

    def test_front_node_missing_from_replacement_fails_condition_i(
        self, corpus, hierarchies, hummus_parts
    ):
        from recipegraph.core import build_recipe

        host, prep, _ = hummus_parts
        detached = build_recipe(
            {"c7", "c9x"},
            {"a9"},
            [("c7", "a9"), ("a9", "c9x")],
            {"c7": "canned chickpeas", "a9": "heat canned chickpeas in water", "c9x": "water"},
            hierarchies,
        )
        result = structural_substitute(host, prep, detached, corpus.hierarchies)
        assert isinstance(result, RewriteFailure)
        assert "i" in result.conditions

    def test_swallowed_shared_comestible_is_caught_at_revalidation(
        self, hierarchies
    ):
        from recipegraph.core import build_recipe

        # x1 feeds both actions; removing y1's section strands the (x1, y2) arc
        host = build_recipe(
            {"x1", "x2", "x3"},
            {"y1", "y2"},
            [("x1", "y1"), ("y1", "x2"), ("x1", "y2"), ("y2", "x3")],
            {
                "x1": "tomato",
                "y1": "chop",
                "x2": "chopped tomato",
                "y2": "mix",
                "x3": "salad",
            },
            hierarchies,
        )
        part = build_recipe(
            {"x1", "x2"},
            {"y1"},
            [("x1", "y1"), ("y1", "x2")],
            {"x1": "tomato", "y1": "chop", "x2": "chopped tomato"},
            hierarchies,
        )
        replacement = build_recipe(
            {"x9", "x2"},
            {"y9"},
            [("x9", "y9"), ("y9", "x2")],
            {"x9": "lettuce", "y9": "chop", "x2": "chopped tomato"},
            hierarchies,
        )
        result = structural_substitute(host, part, replacement, hierarchies)
        assert isinstance(result, RewriteFailure)
        assert result.conditions == {"result"}


class TestSequences:
    def test_bolognese_rewrite_sequence(self, corpus, induced):
        host = corpus.recipe("spaghetti-pasata")
        prim_remove = induced(host, {"c3", "c4", "a2", "c5"})
        prim_insert = corpus.recipe("bolognese-sauce-prep")
        intermediate = structural_substitute(
            host, prim_remove, prim_insert, corpus.hierarchies
        )
        assert isinstance(intermediate, Recipe)
        sec_remove = induced(intermediate, {"c5", "c7", "a4", "c8"})
        sec_insert = corpus.recipe("bolognese-assembly")
        result = apply_sequence(
            host,
            [RewriteStep(prim_remove, prim_insert), RewriteStep(sec_remove, sec_insert)],
            corpus.hierarchies,
        )
        assert result == corpus.recipe("spaghetti-bolognese")

    def test_empty_sequence_is_identity(self, corpus):
        host = corpus.recipe("hummus")
        assert apply_sequence(host, [], corpus.hierarchies) == host

    def test_reversed_pair_restores_the_original(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        shortcut = corpus.recipe("hummus-canned-shortcut")
        result = apply_sequence(
            host,
            [RewriteStep(prep, shortcut), RewriteStep(shortcut, prep)],
            corpus.hierarchies,
        )
        assert result == host

    def test_failing_step_reports_its_index(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        bad = RewriteStep(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt"))
        result = apply_sequence(
            host,
            [RewriteStep(prep, corpus.recipe("hummus-canned-shortcut")), bad],
            corpus.hierarchies,
        )
        assert isinstance(result, RewriteFailure)
        assert result.step == 1

    def test_failure_text_names_the_step(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        bad = RewriteStep(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt"))
        result = apply_sequence(
            host,
            [RewriteStep(prep, corpus.recipe("hummus-canned-shortcut")), bad],
            corpus.hierarchies,
        )
        assert str(result) == (
            "structural substitution failed at step 1: condition iii: the removed "
            "part is not an untrimmed subrecipe of the host; condition iv: "
            "replacement reuses node ids of the kept part | nodes c4, c7"
        )
        alone = structural_substitute(host, bad.remove, bad.insert, corpus.hierarchies)
        assert str(alone) == (
            "structural substitution failed: condition iii: the removed part is not "
            "an untrimmed subrecipe of the host; condition iv: replacement reuses "
            "node ids of the kept part | nodes c4"
        )

    def test_verify_full_bolognese_sequence(self, corpus, induced):
        host = corpus.recipe("spaghetti-pasata")
        prim_remove = induced(host, {"c3", "c4", "a2", "c5"})
        primary = [RewriteStep(prim_remove, corpus.recipe("bolognese-sauce-prep"))]
        intermediate = apply_sequence(host, primary, corpus.hierarchies)
        sec_remove = induced(intermediate, {"c5", "c7", "a4", "c8"})
        secondary = [RewriteStep(sec_remove, corpus.recipe("bolognese-assembly"))]
        assert verify_secondary_sequence(
            host, primary, secondary, corpus.acceptability, corpus.hierarchies
        )
        # without the downstream relabel the bolognese sauce is unlicensed
        assert not verify_secondary_sequence(
            host, primary, [], corpus.acceptability, corpus.hierarchies
        )

    def test_verify_propagates_inapplicable_sequences(self, corpus):
        bad = [RewriteStep(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt"))]
        with pytest.raises(RewriteFailureError):
            verify_secondary_sequence(
                corpus.recipe("hummus"), bad, [], corpus.acceptability, corpus.hierarchies
            )

    def test_empty_sequences_on_acceptable_recipe(self, corpus):
        assert verify_secondary_sequence(
            corpus.recipe("spaghetti-pasata"), [], [], corpus.acceptability, corpus.hierarchies
        )

    def test_library_search_finds_the_assembly_step(self, corpus, induced):
        host = corpus.recipe("spaghetti-pasata")
        prim_remove = induced(host, {"c3", "c4", "a2", "c5"})
        primary = [RewriteStep(prim_remove, corpus.recipe("bolognese-sauce-prep"))]
        intermediate = apply_sequence(host, primary, corpus.hierarchies)
        sec_remove = induced(intermediate, {"c5", "c7", "a4", "c8"})
        library = [
            RewriteStep(sec_remove, corpus.recipe("bolognese-assembly")),
            RewriteStep(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt")),
        ]
        found = search_secondary_steps(
            host, primary, library, corpus.acceptability, corpus.hierarchies, max_steps=1
        )
        assert found == [(library[0],)]

    def test_1500_steps_deep_the_library_search_does_not_recurse(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        shortcut = corpus.recipe("hummus-canned-shortcut")
        library = [RewriteStep(prep, shortcut), RewriteStep(shortcut, prep)]
        found = search_secondary_steps(
            host, [], library, corpus.acceptability, corpus.hierarchies,
            max_steps=1500, budget=4000,
        )
        assert found == []

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_no_steps_tries_only_the_empty_sequence(self, corpus, hummus_parts, max_steps):
        host, prep, _ = hummus_parts
        shortcut = corpus.recipe("hummus-canned-shortcut")
        library = [RewriteStep(prep, shortcut), RewriteStep(shortcut, prep)]
        found = search_secondary_steps(
            host, [], library, corpus.acceptability, corpus.hierarchies,
            max_steps=max_steps, budget=1,
        )
        assert found == []


class TestStructuralCost:
    def test_identical_recipes_cost_nothing(self, corpus):
        host = corpus.recipe("hummus")
        assert structural_cost(host, host, corpus.hierarchies) == 0.0

    def test_prep_vs_shortcut_matches_the_matching_oracle(self, corpus, hummus_parts):
        host, prep, _ = hummus_parts
        shortcut = corpus.recipe("hummus-canned-shortcut")
        zero = DistanceModel(table={}, generalization_penalty=0.0, step_cost=0.0)
        model = StructuralCostModel(distances=zero, edit_weight=1.0)
        got = structural_cost(prep, shortcut, corpus.hierarchies, model)
        assert got == 4.0

        def dist(kind, t1, t2):
            return zero.distance(corpus.hierarchies.for_kind(kind), t1, t2)

        assert got == brute_structural_cost(prep, shortcut, corpus.hierarchies, dist)

    def test_action_relabel_costs_its_type_distance(self, corpus, hierarchies):
        top = corpus.recipe("fry-onion")
        timed = corpus.recipe("fry-onion-timed")
        model = StructuralCostModel(distances=corpus.distances)
        got = structural_cost(top, timed, hierarchies, model)
        # the single action pair is forced; node ids differ but arcs map over
        expected = corpus.distances.distance(hierarchies.action, "fry", "fry for 4 min")
        assert got == pytest.approx(expected)

    def test_oracle_agreement_with_type_distances(self, corpus, hummus_parts):
        host, prep, cook = hummus_parts
        model = StructuralCostModel(distances=corpus.distances)

        def dist(kind, t1, t2):
            return corpus.distances.distance(corpus.hierarchies.for_kind(kind), t1, t2)

        for r1, r2 in [(prep, cook), (cook, corpus.recipe("hummus-pressure-cook"))]:
            got = structural_cost(r1, r2, corpus.hierarchies, model)
            assert got == pytest.approx(
                brute_structural_cost(r1, r2, corpus.hierarchies, dist)
            )


class TestStructuralCostOracle:
    def test_random_pairs_match_the_matching_oracle(self):
        from random import Random

        from recgen import SYNTH, random_recipe

        distances = DistanceModel()

        def dist(kind, t1, t2):
            return distances.distance(SYNTH.for_kind(kind), t1, t2)

        sizes_seen = set()
        for seed in range(8):
            rng = Random(seed)
            r1 = random_recipe(rng, max_actions=3, max_nodes=9, prefix="g")
            r2 = random_recipe(rng, max_actions=3, max_nodes=9, prefix="h")
            for left, right in ((r1, r2), (r2, r1)):
                for kind, nodes in (("comestible", "comestibles"), ("action", "actions")):
                    a = len(getattr(left.graph, nodes))
                    b = len(getattr(right.graph, nodes))
                    sizes_seen.add((kind, (a > b) - (a < b)))
                for weight in (0.5, 2.0):
                    model = StructuralCostModel(distances=distances, edit_weight=weight)
                    got = structural_cost(left, right, SYNTH, model)
                    want = brute_structural_cost(left, right, SYNTH, dist, weight)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        # both kinds are seen with the larger side on the left and on the right
        assert {("comestible", 1), ("comestible", -1), ("action", 1), ("action", -1)} <= sizes_seen
