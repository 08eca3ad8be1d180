from __future__ import annotations

import itertools
import math
import time

import pytest

from oracles import brute_structural_cost
from recipegraph import rewrite
from recipegraph.compare import _Budget, _depth_first
from recipegraph.core import Recipe
from recipegraph.errors import BudgetExceededError, NotSubrecipeError, RewriteFailureError
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

    def test_producing_the_front_node_the_part_consumes_breaks_parallelism(
        self, corpus, induced
    ):
        host = corpus.recipe("hummus")
        blend = induced(host, {"c3", "a3", "c4"})
        shortcut = corpus.recipe("hummus-canned-shortcut")
        assert front(host, blend) == {"c3"}
        assert not is_parallel(blend, shortcut, host)
        result = structural_substitute(host, blend, shortcut, corpus.hierarchies)
        assert isinstance(result, RewriteFailure)
        assert "ii" in result.conditions


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

    def test_library_search_rejects_an_inapplicable_primary(self, corpus):
        bad = [RewriteStep(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt"))]
        with pytest.raises(RewriteFailureError):
            search_secondary_steps(
                corpus.recipe("hummus"), bad, [], corpus.acceptability, corpus.hierarchies
            )

    def test_library_search_on_an_acceptable_host_lists_the_empty_sequence_first(
        self, corpus
    ):
        host = corpus.recipe("spaghetti-pasata")
        library = [RewriteStep(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt"))]
        found = search_secondary_steps(
            host, [], library, corpus.acceptability, corpus.hierarchies, max_steps=1
        )
        assert found == [()]

    def test_library_search_keeps_library_order_within_a_length(self, corpus, induced):
        # the first step's recipes have more nodes, which sorting the steps'
        # text would put second
        host = corpus.recipe("spaghetti-pasata")
        sauce = induced(host, {"c3", "c4", "a2", "c5", "a4", "c7", "c8"})
        heat = induced(host, {"c3", "c4", "a2", "c5"})
        library = [RewriteStep(sauce, sauce), RewriteStep(heat, heat)]
        found = search_secondary_steps(
            host, [], library, corpus.acceptability, corpus.hierarchies, max_steps=1
        )
        assert found == [(), (library[0],), (library[1],)]

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


def _reference_structural_cost(r1, r2, hierarchies, model=None, spend=lambda: None):
    """``structural_cost`` before the column bound: the label term is rows only.

    ``spend`` is called once per option tried, where ``structural_cost``
    charges its budget.
    """
    if model is None:
        model = StructuralCostModel()
    w = model.edit_weight
    arcs1, arcs2 = r1.graph.arcs, r2.graph.arcs
    max_carried = min(len(arcs1), len(arcs2))

    order = []
    excess = {}
    unmatched = 0
    for kind, left, right in (
        ("action", r1.graph.actions, r2.graph.actions),
        ("comestible", r1.graph.comestibles, r2.graph.comestibles),
    ):
        h = hierarchies.for_kind(kind)
        excess[kind] = len(left) - len(right)
        unmatched += abs(excess[kind])
        for n in sorted(left):
            partners = sorted(
                (model.distances.distance(h, r1.type_of(n), r2.type_of(m)), m)
                for m in right
            )
            cheapest = partners[0][0] if partners and excess[kind] <= 0 else 0.0
            order.append((n, kind, partners, cheapest))
    tail = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        tail[i] = tail[i + 1] + order[i][3]
    edits = unmatched + len(arcs1) + len(arcs2)
    position = {n: i for i, (n, *_) in enumerate(order)}
    closing = [[] for _ in order]
    for s, t in arcs1:
        closing[max(position[s], position[t])].append((s, t))

    mapping = {}
    used = set()
    skipped = dict.fromkeys(excess, 0)
    state = [(0.0, 0, len(arcs1), tail[0] + w * (edits - 2 * max_carried))]
    best = math.inf

    def choices(i):
        spent, carried, open_, _ = state[i]
        n, kind, partners, _ = order[i]
        arcs_here = closing[i]
        open_ -= len(arcs_here)
        rest = tail[i + 1]
        if skipped[kind] < excess[kind]:
            spend()
            bound = spent + rest + w * (edits - 2 * min(max_carried, carried + open_))
            if bound < best:
                skipped[kind] += 1
                state.append((spent, carried, open_, bound))
                yield
                state.pop()
                skipped[kind] -= 1
        for d, m in partners:
            if m in used:
                continue
            spend()
            mapping[n] = m
            kept = carried + sum(
                1
                for s, t in arcs_here
                if s in mapping and t in mapping and (mapping[s], mapping[t]) in arcs2
            )
            spent_m = spent + d
            bound = spent_m + rest + w * (edits - 2 * min(max_carried, kept + open_))
            if bound < best:
                used.add(m)
                state.append((spent_m, kept, open_, bound))
                yield
                state.pop()
                used.discard(m)
            del mapping[n]

    for _ in _depth_first(len(order), choices):
        best = state[-1][3]
    return best


def _multi_action(corpus) -> list[str]:
    return [rid for rid in corpus.recipe_ids() if len(corpus.recipe(rid).graph.actions) >= 2]


class TestStructuralCostMatchesReference:
    @pytest.mark.parametrize("weight", [0.5, 1.0, 2.0])
    def test_every_ordered_multi_action_pair_is_identical(self, corpus, weight):
        model = StructuralCostModel(distances=corpus.distances, edit_weight=weight)
        pairs = list(itertools.permutations(_multi_action(corpus), 2))
        assert len(pairs) == 56
        for a, b in pairs:
            r1, r2 = corpus.recipe(a), corpus.recipe(b)
            got = structural_cost(r1, r2, corpus.hierarchies, model)
            assert got == _reference_structural_cost(r1, r2, corpus.hierarchies, model), (a, b)

    def test_sweep_expansions_are_pinned(self, monkeypatch, corpus):
        """Options tried and yielded on the 28 pairs of perfbench's search-sweep.

        The reference yields 36,192 options on these pairs. The column bound
        only adds to the bound, so no pair may try more options than before.
        """
        budgets = []
        yielded = [0]

        class Counting(_Budget):
            def __init__(self, limit: int):
                super().__init__(limit)
                budgets.append(self)

        def counting_depth_first(levels, choices):
            def counted(i):
                for _ in choices(i):
                    yielded[0] += 1
                    yield

            return _depth_first(levels, counted)

        monkeypatch.setattr(rewrite, "_Budget", Counting)
        monkeypatch.setattr(rewrite, "_depth_first", counting_depth_first)
        model = StructuralCostModel(distances=corpus.distances)
        tried, reference_tried = [], []
        for a, b in itertools.combinations(sorted(_multi_action(corpus)), 2):
            r1, r2 = corpus.recipe(a), corpus.recipe(b)
            structural_cost(r1, r2, corpus.hierarchies, model)
            tried.append(budgets[-1].limit - budgets[-1].left)
            spent = [0]

            def spend():
                spent[0] += 1

            _reference_structural_cost(r1, r2, corpus.hierarchies, model, spend)
            reference_tried.append(spent[0])
        assert len(tried) == 28
        assert all(new <= old for new, old in zip(tried, reference_tried))
        assert (sum(tried), sum(reference_tried), yielded[0]) == (28706, 123286, 7769)


class TestStructuralCostBudget:
    def test_a_chain_against_a_merge_tree_runs_out_of_budget_quickly(self):
        from test_compare import _chain, _flat_hierarchies, _merge_tree

        hierarchies = _flat_hierarchies(20)
        r1, r2 = _chain(hierarchies, 8), _merge_tree(hierarchies, 8)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            structural_cost(r1, r2, hierarchies, budget=10**4)
        assert time.perf_counter() - start < 5

    def test_the_slowest_sweep_pair_needs_exactly_its_options_tried(self, corpus):
        r1, r2 = corpus.recipe("spaghetti-pasata"), corpus.recipe("vegetable-soup")
        model = StructuralCostModel(distances=corpus.distances)
        assert structural_cost(r1, r2, corpus.hierarchies, model, budget=9076) == 17.666666666666664
        with pytest.raises(BudgetExceededError):
            structural_cost(r1, r2, corpus.hierarchies, model, budget=9075)
