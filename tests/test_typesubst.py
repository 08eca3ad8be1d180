from __future__ import annotations

import dataclasses
import itertools
import json
import math
from random import Random

import pytest

from oracles import brute_preferred
from recgen import SYNTH, fry_chain_doc, random_recipe
from recipegraph import typesubst
from recipegraph.acceptability import AcceptTuple, accept_set, arc_triples, check_acceptable
from recipegraph.bundle import parse_bundle
from recipegraph.compare import _Budget
from recipegraph.core import roles
from recipegraph.errors import (
    BudgetExceededError,
    InvalidRecipeError,
    NoSolutionError,
    NotIsomorphicError,
)
from recipegraph.typesubst import (
    CostModel,
    SubstitutionPair,
    apply_substitution,
    cost,
    default_candidates,
    find_secondary,
    preferred_pair,
    resolve_unavailable,
    substitution_to,
)
from recipegraph.typekb import TypeHierarchy

ROW = ("c1", "a1", "c2", "a2", "c3")


class TestApplySubstitution:
    def test_carrot_soup_rebinding_rows(self, corpus, hierarchies):
        soup = corpus.recipe("carrot-soup")
        assert [soup.type_of(n) for n in ROW] == [
            "raw carrot",
            "chop",
            "chopped carrot",
            "boil",
            "soup",
        ]
        first = apply_substitution(soup, {"c1": "raw onion"}, hierarchies)
        assert [first.type_of(n) for n in ROW] == [
            "raw onion",
            "chop",
            "chopped carrot",
            "boil",
            "soup",
        ]
        second = apply_substitution(first, {"c2": "chopped onion"}, hierarchies)
        assert [second.type_of(n) for n in ROW] == [
            "raw onion",
            "chop",
            "chopped onion",
            "boil",
            "soup",
        ]
        assert second.graph == soup.graph

    def test_identity_binding_changes_nothing(self, corpus, hierarchies):
        soup = corpus.recipe("carrot-soup")
        assert apply_substitution(soup, {"c1": soup.type_of("c1")}, hierarchies) == soup

    def test_bindings_outside_the_recipe_are_ignored(self, corpus, hierarchies):
        soup = corpus.recipe("carrot-soup")
        assert apply_substitution(soup, {"zz": "raw onion", "zy": "fry"}, hierarchies) == soup

    def test_comparable_result_is_rejected(self, corpus, hierarchies):
        soup = corpus.recipe("carrot-soup")
        with pytest.raises(InvalidRecipeError):
            apply_substitution(soup, {"c2": "raw carrot"}, hierarchies)

    def test_kind_mismatch_is_rejected(self, corpus, hierarchies):
        soup = corpus.recipe("carrot-soup")
        with pytest.raises(InvalidRecipeError):
            apply_substitution(soup, {"a1": "raw onion"}, hierarchies)


class TestSubstitutionTo:
    def test_retyping_the_fry_action(self, corpus):
        top = corpus.recipe("fry-onion")
        timed = corpus.recipe("fry-onion-timed")
        assert substitution_to(top, timed) == {"a1": "fry for 4 min"}

    def test_identity_needs_no_bindings(self, corpus):
        recipe = corpus.recipe("hummus")
        assert substitution_to(recipe, recipe) == {}

    def test_two_step_retyping_of_the_soup(self, corpus, hierarchies):
        soup = corpus.recipe("carrot-soup")
        third = apply_substitution(
            soup, {"c1": "raw onion", "c2": "chopped onion"}, hierarchies
        )
        assert substitution_to(soup, third) == {"c1": "raw onion", "c2": "chopped onion"}

    def test_non_isomorphic_pair_raises(self, corpus):
        with pytest.raises(NotIsomorphicError):
            substitution_to(corpus.recipe("fry-onion"), corpus.recipe("boil-atomic"))


class TestCost:
    def test_soup_pair_sums_the_four_table_distances(self, corpus, hierarchies):
        soup = corpus.recipe("vegetable-soup")
        pair = SubstitutionPair.of(
            {"c1": "raw onion", "c2": "potato"},
            {"a1": "chop onion", "a2": "peel and chop potato"},
        )
        model = CostModel(distances=corpus.distances)
        assert cost(pair, soup, model, hierarchies) == pytest.approx(0.2 + 0.5 + 0.2 + 0.6)

    def test_empty_pair_costs_zero(self, corpus, hierarchies):
        soup = corpus.recipe("vegetable-soup")
        for aggregation in ("sum", "max"):
            model = CostModel(distances=corpus.distances, aggregation=aggregation)
            assert cost(SubstitutionPair.of({}, {}), soup, model, hierarchies) == 0.0

    def test_singleton_agrees_under_both_aggregations(self, corpus, hierarchies):
        pasta = corpus.recipe("spaghetti-pasata")
        binding = {"c1": "tagliatelle"}
        for aggregation in ("sum", "max"):
            model = CostModel(distances=corpus.distances, aggregation=aggregation)
            assert cost(binding, pasta, model, hierarchies) == pytest.approx(0.1)

    def test_max_aggregation_takes_the_largest_term(self, corpus, hierarchies):
        soup = corpus.recipe("vegetable-soup")
        pair = SubstitutionPair.of({"c1": "raw onion", "c2": "potato"}, {})
        model = CostModel(distances=corpus.distances, aggregation="max")
        assert cost(pair, soup, model, hierarchies) == pytest.approx(0.5)

    def test_a_binding_outside_the_recipe_costs_nothing(self, corpus, hierarchies):
        pasta = corpus.recipe("spaghetti-pasata")
        model = CostModel(distances=corpus.distances)
        binding = {"c1": "tagliatelle", "zz": "rice"}
        assert cost(binding, pasta, model, hierarchies) == pytest.approx(0.1)

    def test_an_unknown_aggregation_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown aggregation 'median'"):
            CostModel(aggregation="median")

    def test_overlapping_pair_is_rejected(self):
        with pytest.raises(ValueError):
            SubstitutionPair.of({"c1": "rice"}, {"c1": "potato"})


class TestFindSecondary:
    def test_timed_boil_repair_for_dried_spaghetti(self, corpus, hierarchies):
        recipe = corpus.recipe("fresh-spaghetti")
        tuples = accept_set(
            [
                ("fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti"),
                ("dried spaghetti", "boil spaghetti for 11 minutes", "cooked spaghetti"),
            ]
        )
        found = find_secondary(recipe, {"c1": "dried spaghetti"}, tuples, hierarchies)
        assert found == [{"a1": "boil spaghetti for 11 minutes"}]

    def test_empty_primary_on_acceptable_recipe(self, corpus, hierarchies):
        recipe = corpus.recipe("spaghetti-pasata")
        assert find_secondary(recipe, {}, corpus.acceptability, hierarchies) == [{}]

    def test_vegetable_soup_needs_both_action_repairs(self, corpus, hierarchies):
        recipe = corpus.recipe("vegetable-soup")
        tuples = accept_set(
            [
                ("raw carrot", "chop carrot", "chopped vegetable"),
                ("raw onion", "chop onion", "chopped vegetable"),
                ("barley", "soak barley", "soup base"),
                ("potato", "peel and chop potato", "soup base"),
                ("chopped vegetable", "boil", "soup"),
                ("soup base", "boil", "soup"),
            ]
        )
        primary = {"c1": "raw onion", "c2": "potato"}
        found = find_secondary(recipe, primary, tuples, hierarchies, max_size=2)
        assert found == [{"a1": "chop onion", "a2": "peel and chop potato"}]

    def test_minimality_of_each_returned_set(self, corpus, hierarchies):
        from recipegraph.acceptability import is_acceptable

        recipe = corpus.recipe("fresh-spaghetti")
        tuples = accept_set(
            [
                ("fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti"),
                ("dried spaghetti", "boil spaghetti for 11 minutes", "cooked spaghetti"),
            ]
        )
        primary = {"c1": "dried spaghetti"}
        for secondary in find_secondary(recipe, primary, tuples, hierarchies):
            for dropped in secondary:
                slim = {n: t for n, t in secondary.items() if n != dropped}
                outcome = apply_substitution(recipe, {**primary, **slim}, hierarchies)
                assert not is_acceptable(outcome, tuples, hierarchies)

    def test_unsolvable_repair_raises_no_solution(self, corpus, hierarchies):
        recipe = corpus.recipe("fresh-spaghetti")
        tuples = accept_set(
            [("fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti")]
        )
        with pytest.raises(NoSolutionError):
            find_secondary(
                recipe,
                {"c1": "dried spaghetti"},
                tuples,
                hierarchies,
                candidates={"a1": ["boil"], "c2": ["soup"]},
            )

    def test_budget_is_distinguishable_from_no_solution(self, corpus, hierarchies):
        recipe = corpus.recipe("vegetable-soup")
        with pytest.raises(BudgetExceededError):
            find_secondary(
                recipe,
                {"c1": "raw onion", "c2": "potato"},
                corpus.acceptability,
                hierarchies,
                budget=10,
            )


class TestPreferredPair:
    def test_missing_spaghetti_prefers_tagliatelle(self, corpus, hierarchies):
        pasta = corpus.recipe("spaghetti-pasata")
        model = CostModel(distances=corpus.distances)
        pair = preferred_pair(pasta, ["spaghetti"], corpus.acceptability, model, hierarchies)
        assert pair is not None
        assert dict(pair.primary) == {"c1": "tagliatelle"}
        assert dict(pair.secondary) == {}
        assert cost(pair, pasta, model, hierarchies) == pytest.approx(0.1)

    def test_nothing_missing_on_acceptable_recipe_is_the_empty_pair(self, corpus, hierarchies):
        pasta = corpus.recipe("spaghetti-pasata")
        model = CostModel(distances=corpus.distances)
        pair = preferred_pair(pasta, [], corpus.acceptability, model, hierarchies)
        assert pair == SubstitutionPair.of({}, {})
        assert cost(pair, pasta, model, hierarchies) == 0.0

    def test_type_mark_covers_subtypes_and_bans_them(self, corpus, hierarchies):
        recipe = corpus.recipe("fresh-spaghetti")
        tuples = accept_set(
            [
                ("fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti"),
                ("dried spaghetti", "boil spaghetti for 11 minutes", "cooked spaghetti"),
                ("tagliatelle", "boil spaghetti for 11 minutes", "cooked spaghetti"),
            ]
        )
        model = CostModel(distances=corpus.distances)
        # lacking all spaghetti rules out the dried fallback as well
        pair = preferred_pair(recipe, ["spaghetti"], tuples, model, hierarchies)
        assert pair is not None
        assert dict(pair.primary) == {"c1": "tagliatelle"}
        assert dict(pair.secondary) == {"a1": "boil spaghetti for 11 minutes"}

    @pytest.mark.parametrize(
        "unavailable, pool",
        [(["c1"], []), (["spaghetti"], ["dried spaghetti"])],
        ids=["no-candidates", "every-candidate-banned"],
    )
    def test_a_missing_node_with_an_empty_pool_has_no_pair(
        self, corpus, hierarchies, unavailable, pool
    ):
        recipe = corpus.recipe("fresh-spaghetti")
        model = CostModel(distances=corpus.distances)
        pair = preferred_pair(
            recipe, unavailable, corpus.acceptability, model, hierarchies,
            candidates={"c1": pool},
        )
        assert pair is None

    def test_unavailable_with_no_candidates_returns_none(self, corpus, hierarchies):
        recipe = corpus.recipe("fresh-spaghetti")
        model = CostModel(distances=corpus.distances)
        pair = preferred_pair(
            recipe,
            ["c1"],
            accept_set([("fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti")]),
            model,
            hierarchies,
            candidates={"c1": ["rice"]},
        )
        assert pair is None

    def test_matches_exhaustive_enumeration_on_a_two_node_instance(self, corpus, hierarchies):
        recipe = corpus.recipe("vegetable-soup")
        tuples = accept_set(
            [
                ("raw carrot", "chop carrot", "chopped vegetable"),
                ("raw onion", "chop onion", "chopped vegetable"),
                ("barley", "soak barley", "soup base"),
                ("potato", "peel and chop potato", "soup base"),
                ("chopped vegetable", "boil", "soup"),
                ("soup base", "boil", "soup"),
            ]
        )
        candidates = {
            "c1": ["raw onion", "raw purple carrot"],
            "c2": ["potato", "rice"],
            "a1": ["chop onion", "chop"],
            "a2": ["peel and chop potato", "soak"],
        }
        model = CostModel(distances=corpus.distances)
        pair = preferred_pair(
            recipe, ["c1", "c2"], tuples, model, hierarchies, candidates=candidates
        )
        assert pair is not None

        def dist(node, new_type):
            kind = "comestible" if node in recipe.graph.comestibles else "action"
            h = hierarchies.for_kind(kind)
            return corpus.distances.distance(h, recipe.type_of(node), new_type)

        expected = brute_preferred(
            recipe,
            ["c1", "c2"],
            candidates,
            {(t.input, t.action, t.output) for t in tuples.tuples},
            dist,
            forbidden_pairs=hierarchies,
        )
        assert expected is not None
        got = cost(pair, recipe, model, hierarchies)
        assert got == pytest.approx(expected[0])
        assert sorted(dict(pair.primary).items()) == expected[1]
        assert sorted(dict(pair.secondary).items()) == expected[2]


class TestNothingUnavailable:
    """With no unavailable node the pair is the cheapest repair of the recipe as it is."""

    @pytest.mark.parametrize("aggregation", ["sum", "max"])
    def test_the_pair_is_the_cheapest_secondary_set(self, corpus, hierarchies, aggregation):
        model = CostModel(distances=corpus.distances, aggregation=aggregation)
        budget = 10_000
        kinds = set()
        for rid in corpus.recipe_ids():
            recipe = corpus.recipe(rid)
            used = {
                AcceptTuple(*(recipe.type_of(n) for n in triple))
                for triple in arc_triples(recipe)
            }
            # drop one licensing tuple, so the recipe itself needs a repair
            for dropped in sorted(used & corpus.acceptability.tuples, key=AcceptTuple.as_list):
                accepts = accept_set(corpus.acceptability.tuples - {dropped})
                repairs = _outcome(
                    lambda: find_secondary(recipe, {}, accepts, hierarchies, None, model, budget)
                )
                pair = _outcome(
                    lambda: preferred_pair(recipe, [], accepts, model, hierarchies, budget=budget)
                )
                if isinstance(repairs, list):
                    assert pair == SubstitutionPair.of({}, repairs[0])
                else:
                    assert pair == (None if repairs == "NoSolutionError" else repairs)
                kinds.add(pair if isinstance(pair, str) else type(pair).__name__)
        assert kinds == {"SubstitutionPair", "BudgetExceededError"}

    def test_no_repair_is_none(self, corpus, hierarchies):
        recipe = corpus.recipe("fresh-spaghetti")
        tuples = accept_set(
            [("dried spaghetti", "boil spaghetti for 11 minutes", "cooked spaghetti")]
        )
        candidates = {"a1": ["boil"], "c2": ["soup"]}
        model = CostModel(distances=corpus.distances)
        with pytest.raises(NoSolutionError):
            find_secondary(recipe, {}, tuples, hierarchies, candidates)
        assert preferred_pair(recipe, [], tuples, model, hierarchies, candidates) is None


class TestLongChains:
    def test_replacing_1100_fries_runs_out_of_budget_without_recursing(self):
        ws = parse_bundle(json.dumps(fry_chain_doc(1100)))
        model = CostModel(distances=ws.distances)
        with pytest.raises(BudgetExceededError):
            preferred_pair(
                ws.recipe("long"), ["fry"], ws.acceptability, model, ws.hierarchies, budget=5000
            )


class TestDefaultCandidates:
    def test_pools_are_kind_respecting_and_skip_the_current_type(self, corpus, hierarchies):
        recipe = corpus.recipe("carrot-soup")
        pools = default_candidates(recipe, corpus.acceptability, hierarchies)
        assert "raw carrot" not in pools["c1"]
        assert all(t in hierarchies.comestible for t in pools["c1"])
        assert all(t in hierarchies.action for t in pools["a1"])

    def test_excluded_types_are_removed_everywhere(self, corpus, hierarchies):
        recipe = corpus.recipe("carrot-soup")
        pools = default_candidates(
            recipe, corpus.acceptability, hierarchies, exclude={"soup", "boil"}
        )
        assert all("soup" not in pool for n, pool in pools.items() if n in recipe.graph.comestibles)
        assert "boil" not in pools["a2"]


def _reference_minimal_repairs(
    recipe, primary, accepts, hierarchies, candidates, budget, max_size=None
):
    """The planner's original loop: rebuild and re-check every assignment.

    Each assignment goes through ``apply_substitution`` and
    ``check_acceptable`` and costs one expansion.
    """

    def acceptable(bindings):
        try:
            candidate = apply_substitution(recipe, bindings, hierarchies)
        except InvalidRecipeError:
            return False
        return not check_acceptable(candidate, accepts, hierarchies)

    if acceptable(primary):
        return [{}]
    eligible = sorted(
        n for n in recipe.graph.nodes if n not in primary and candidates.get(n)
    )
    cap = len(eligible) if max_size is None else min(max_size, len(eligible))
    solutions = []
    for size in range(1, cap + 1):
        for domain in itertools.combinations(eligible, size):
            for choice in itertools.product(*(candidates[n] for n in domain)):
                budget.spend()
                assignment = dict(zip(domain, choice))
                items = set(assignment.items())
                if any(set(s.items()) < items for s in solutions):
                    continue
                if acceptable(dict(primary) | assignment):
                    solutions.append(assignment)
    if not solutions:
        raise NoSolutionError("no secondary substitution restores acceptability")
    return solutions


def _outcome(call):
    try:
        return call()
    except (BudgetExceededError, NoSolutionError) as exc:
        return type(exc).__name__


def assert_same_as_reference(monkeypatch, call):
    """``call`` answers as it does with the reference repair loop in place."""
    fast = _outcome(call)
    with monkeypatch.context() as m:
        m.setattr(typesubst, "_minimal_repairs", _reference_minimal_repairs)
        slow = _outcome(call)
    assert fast == slow
    return fast


class TestPlannerMatchesReference:
    def test_corpus_sweep_queries(self, monkeypatch, corpus, hierarchies):
        model = CostModel(distances=corpus.distances)
        outcomes = []
        for rid in corpus.recipe_ids():
            recipe = corpus.recipe(rid)
            for missing in sorted(roles(recipe).inputs):
                for budget in (100, 1000):
                    outcomes.append(
                        assert_same_as_reference(
                            monkeypatch,
                            lambda: preferred_pair(
                                recipe, [missing], corpus.acceptability, model,
                                hierarchies, budget=budget,
                            ),
                        )
                    )
        # the sweep holds pairs as well as budget-outs at these budgets
        assert any(isinstance(o, SubstitutionPair) for o in outcomes)
        assert "BudgetExceededError" in outcomes

    @pytest.mark.parametrize(
        "budget, pairs, budget_outs, expansions",
        [(100, 4, 37, 3776), (1000, 5, 36, 36290), (10_000, 15, 26, 340171)],
    )
    def test_sweep_expansions_are_pinned(
        self, monkeypatch, corpus, hierarchies, budget, pairs, budget_outs, expansions
    ):
        """Pairs, budget-outs and expansions over the 41 sweep queries.

        A budget-out counts as its whole limit. The answers alone would not
        show a change in where the planner charges its budget.
        """
        budgets = []

        class Counting(_Budget):
            def __init__(self, limit: int):
                super().__init__(limit)
                budgets.append(self)

        monkeypatch.setattr(typesubst, "_Budget", Counting)
        model = CostModel(distances=corpus.distances)
        outcomes = []
        for rid in corpus.recipe_ids():
            recipe = corpus.recipe(rid)
            for missing in sorted(roles(recipe).inputs):
                outcomes.append(
                    _outcome(
                        lambda: preferred_pair(
                            recipe, [missing], corpus.acceptability, model,
                            hierarchies, budget=budget,
                        )
                    )
                )
        assert len(outcomes) == len(budgets) == 41
        assert sum(isinstance(o, SubstitutionPair) for o in outcomes) == pairs
        assert outcomes.count("BudgetExceededError") == budget_outs
        assert sum(b.limit - max(b.left, 0) for b in budgets) == expansions

    def test_random_recipes_with_an_unlicensed_triple(self, monkeypatch):
        model = CostModel()
        kinds = set()
        for seed in range(16):
            rng = Random(seed)
            recipe = random_recipe(rng, max_actions=3, max_nodes=5 + seed % 3)
            typed = {
                tuple(recipe.type_of(n) for n in triple) for triple in arc_triples(recipe)
            }
            broken = rng.choice(sorted(typed))
            verb = f"verb{rng.randrange(40):02d}"
            missing = rng.choice(sorted(roles(recipe).inputs))
            pools = default_candidates(recipe, accept_set(typed), SYNTH)
            alt = rng.choice(pools[missing])

            def variants(i, a, o):
                for i2 in {i, alt if i == recipe.type_of(missing) else i}:
                    for a2 in {a, verb if a == broken[1] else a}:
                        yield (i2, a2, o)

            # unlicense one triple of the recipe; license the rebound action
            # that repairs it and the replacement type of the missing input
            licensed = {v for t in typed for v in variants(*t)} - {broken}
            candidates = {n: rng.sample(pool, min(2, len(pool))) for n, pool in pools.items()}
            candidates[missing].append(alt)
            for a in recipe.graph.actions:
                candidates[a].append(verb)
            for policy, budget in itertools.product(("exact", "path-comparable"), (100, 1000)):
                accepts = accept_set(licensed, policy=policy)
                for call in (
                    # the repair lists themselves, in the order they are found
                    lambda: typesubst._minimal_repairs(
                        recipe, {}, accepts, SYNTH, candidates, _Budget(budget)
                    ),
                    lambda: find_secondary(recipe, {}, accepts, SYNTH, candidates, budget=budget),
                    lambda: find_secondary(
                        recipe, {}, accepts, SYNTH, candidates, model, budget, max_size=2
                    ),
                    lambda: preferred_pair(
                        recipe, [missing], accepts, model, SYNTH, candidates, budget=budget
                    ),
                ):
                    found = assert_same_as_reference(monkeypatch, call)
                    kinds.add((policy, found if isinstance(found, str) else type(found).__name__))
        for policy in ("exact", "path-comparable"):
            assert {
                (policy, "list"), (policy, "SubstitutionPair"), (policy, "BudgetExceededError")
            } <= kinds

    def test_candidate_pool_with_alias_unknown_and_wrong_kind_types(
        self, monkeypatch, corpus, hierarchies
    ):
        soup = corpus.recipe("carrot-soup")
        accepts = accept_set(
            [("raw onion", "fry", "fried onion"), ("fried onion", "boil", "soup")]
        )
        candidates = {
            "c2": ["raw onion", "fried onions", "no such type", "boil"],
            "a1": ["raw carrot", "fry", "chop"],
            "a2": ["soup", "boil"],
        }
        primary = {"c1": "raw onion"}
        found = assert_same_as_reference(
            monkeypatch,
            lambda: find_secondary(soup, primary, accepts, hierarchies, candidates),
        )
        assert found == [{"a1": "fry", "c2": "fried onions"}]
        for bad_primary in ({"c1": "no such type"}, {"a1": "raw onion"}):
            assert (
                assert_same_as_reference(
                    monkeypatch,
                    lambda: find_secondary(
                        soup, bad_primary, accepts, hierarchies, candidates
                    ),
                )
                == "NoSolutionError"
            )

    # Joint: every candidate has a licensed partner, so arc consistency keeps
    # all four, but only two of the four combinations are licensed.
    # Comparable: "soak" and "prepared" sit one step above the licensed
    # "soak barley" and "soup base", so only a path-comparable set licenses them.
    JOINT = (
        {"c1": "spaghetti in bowl"},
        {
            "a1": ["pour bolognese sauce on spaghetti", "pour pasta sauce on spaghetti"],
            "c2": ["spaghetti bolognese", "spaghetti con pasata"],
        },
        [
            {"a1": "pour bolognese sauce on spaghetti", "c2": "spaghetti bolognese"},
            {"a1": "pour pasta sauce on spaghetti", "c2": "spaghetti con pasata"},
        ],
    )
    COMPARABLE = (
        {"c1": "barley"},
        {"a1": ["boil", "soak", "soak barley"], "c2": ["prepared", "soup", "soup base"]},
        [
            {"a1": "soak", "c2": "prepared"},
            {"a1": "soak", "c2": "soup base"},
            {"a1": "soak barley", "c2": "prepared"},
            {"a1": "soak barley", "c2": "soup base"},
        ],
    )

    @pytest.mark.parametrize(
        "policy, case",
        [
            ("exact", JOINT),
            ("path-comparable", JOINT),
            ("exact", (*COMPARABLE[:2], [{"a1": "soak barley", "c2": "soup base"}])),
            ("path-comparable", COMPARABLE),
        ],
        ids=["joint-exact", "joint-path-comparable", "comparable-exact", "comparable-path-comparable"],
    )
    def test_pruned_pools_keep_every_repair(self, monkeypatch, corpus, hierarchies, policy, case):
        primary, candidates, expected = case
        recipe = corpus.recipe("chop-tomato")
        accepts = dataclasses.replace(corpus.acceptability, policy=policy)
        found = assert_same_as_reference(
            monkeypatch,
            lambda: typesubst._minimal_repairs(
                recipe, primary, accepts, hierarchies, candidates, _Budget(100)
            ),
        )
        assert found == expected


def _brute_charge(lengths, max_size):
    """The repair search's charge summed domain by domain, as the search once charged it."""
    eligible = [k for k in lengths if k]
    cap = len(eligible) if max_size is None else min(max_size, len(eligible))
    return sum(
        math.prod(domain)
        for size in range(1, cap + 1)
        for domain in itertools.combinations(eligible, size)
    )


class TestRepairCharge:
    def test_closed_form_matches_the_sum_over_every_domain(self):
        rng = Random(11)
        for _ in range(300):
            lengths = [rng.choice((0, 0, 1, 2, 3, 7, 30)) for _ in range(rng.randrange(10))]
            for max_size in (None, 0, 1, rng.randrange(1, 10)):
                want = _brute_charge(lengths, max_size)
                assert typesubst._repair_charge(lengths, max_size, 10**30) == want
                assert typesubst._repair_charge(lengths, max_size, want) == want
                if want:
                    # past the budget it may stop early, but never above the full sum
                    assert want - 1 < typesubst._repair_charge(lengths, max_size, want - 1) <= want

    @pytest.mark.parametrize("max_size", [None, 1, 3])
    def test_huge_pools_stop_at_the_first_that_overflows(self, max_size):
        read = []

        def lengths():
            for i in range(100):
                read.append(i)
                yield 10**9

        assert typesubst._repair_charge(lengths(), max_size, 10**4) > 10**4
        assert len(read) == 1

    def test_partial_sums_stay_small(self):
        read = []

        def lengths():
            for i in range(100):
                read.append(i)
                yield 2

        charge = typesubst._repair_charge(lengths(), None, 10**6)
        # 3**k - 1 expansions after k pools of two
        assert 10**6 < charge <= 3 * 10**6 and len(read) == 13


class TestDoomedRepairSearch:
    """A repair search that its budget cannot cover raises before checking anything."""

    PRIMARY = {"c1": "raw carrot"}

    def charge(self, recipe, pools):
        free = [n for n in sorted(recipe.graph.nodes) if n not in self.PRIMARY]
        return _brute_charge([len(pools[n]) for n in free], None)

    def test_same_limit_and_no_domain_checked(self, monkeypatch, corpus, hierarchies):
        recipe, accepts = corpus.recipe("fry-onion"), corpus.acceptability
        pools = default_candidates(recipe, accepts, hierarchies)
        limit = self.charge(recipe, pools) - 1

        def fail(*args, **kwargs):
            raise AssertionError("a doomed search checked a domain")

        monkeypatch.setattr(typesubst._RepairChecker, "for_domain", fail)
        calls = [
            lambda: typesubst._minimal_repairs(
                recipe, dict(self.PRIMARY), accepts, hierarchies, pools, _Budget(limit)
            ),
            lambda: find_secondary(recipe, self.PRIMARY, accepts, hierarchies, budget=limit),
        ]
        for call in calls:
            with pytest.raises(BudgetExceededError) as raised:
                call()
            assert raised.value.budget == limit
        with monkeypatch.context() as m:
            m.setattr(typesubst, "_minimal_repairs", _reference_minimal_repairs)
            for call in calls[1:]:
                with pytest.raises(BudgetExceededError) as raised:
                    call()
                assert raised.value.budget == limit

    def test_a_covered_search_spends_what_the_reference_spends(
        self, monkeypatch, corpus, hierarchies
    ):
        recipe, accepts = corpus.recipe("fry-onion"), corpus.acceptability
        pools = default_candidates(recipe, accepts, hierarchies)
        limit = self.charge(recipe, pools)
        left = []
        for search in (typesubst._minimal_repairs, _reference_minimal_repairs):
            budget = _Budget(limit)
            found = search(recipe, dict(self.PRIMARY), accepts, hierarchies, pools, budget)
            assert found == [{"a1": "chop carrot", "c2": "chopped vegetable"}]
            left.append(budget.left)
        assert left == [0, 0]


def _reference_default_candidates(recipe, accepts, hierarchies, radius=2, exclude=()):
    """``default_candidates`` as it was when it built every pool at once."""
    excluded = set(exclude)
    graph = recipe.graph
    in_slot = sorted({t.input for t in accepts.tuples})
    act_slot = sorted({t.action for t in accepts.tuples})
    out_slot = sorted({t.output for t in accepts.tuples})
    candidates = {}
    for n in sorted(graph.nodes):
        if n in graph.actions:
            pool = set(act_slot)
            h = hierarchies.action
        else:
            pool = set()
            if graph.out_degree(n) > 0:
                pool.update(in_slot)
            if graph.in_degree(n) > 0:
                pool.update(out_slot)
            h = hierarchies.comestible
        pool.update(h.relatives(recipe.type_of(n), radius))
        pool.discard(recipe.type_of(n))
        pool -= excluded
        candidates[n] = sorted(pool)
    return candidates


class TestPoolsOnDemand:
    def test_default_candidates_are_unchanged(self, corpus, hierarchies):
        accepts = corpus.acceptability
        for rid in corpus.recipe_ids():
            recipe = corpus.recipe(rid)
            excludes = [()] + [
                resolve_unavailable(recipe, [missing], hierarchies)[1]
                for missing in sorted(roles(recipe).inputs)
            ]
            for exclude in excludes:
                assert default_candidates(
                    recipe, accepts, hierarchies, exclude=exclude
                ) == _reference_default_candidates(recipe, accepts, hierarchies, exclude=exclude)

    def test_a_budget_out_builds_few_comestible_pools(self, monkeypatch):
        ws = parse_bundle(json.dumps(fry_chain_doc(1100)))
        model = CostModel(distances=ws.distances)
        built = []
        relatives = TypeHierarchy.relatives

        def counting(self, t, radius):
            if self.kind == "comestible":
                built.append(t)
            return relatives(self, t, radius)

        monkeypatch.setattr(TypeHierarchy, "relatives", counting)
        for budget, most in ((1, 0), (5000, 10)):
            built.clear()
            with pytest.raises(BudgetExceededError):
                preferred_pair(
                    ws.recipe("long"), ["fry"], ws.acceptability, model, ws.hierarchies,
                    budget=budget,
                )
            assert len(built) <= most


HASH_SEED_SCRIPT = """
from recipegraph.bundle import load_corpus
from recipegraph.compose import decompose
from recipegraph.errors import DanglingEdgeError
from recipegraph.rewrite import structural_substitute
from recipegraph.typekb import load_hierarchy
from recipegraph.typesubst import substitution_to

ws = load_corpus()
hummus = ws.recipe("hummus")
piece = decompose(hummus, ws.hierarchies)[0]
print(list(structural_substitute(hummus, piece, piece, ws.hierarchies).typing))
print(list(substitution_to(ws.recipe("boil-atomic"), ws.recipe("bolognese-assembly"))))
types = [{"id": "food"}, {"id": "x", "parents": ["food", "p", "q", "r"]}]
try:
    load_hierarchy({"kind": "comestible", "root": "food", "types": types})
except DanglingEdgeError as exc:
    print("dangling", exc.parent)
"""


def test_rewrite_substitution_and_dangling_parents_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import recipegraph

    src = str(Path(recipegraph.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
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
    assert outputs.pop().endswith(b"dangling p\n")
