from __future__ import annotations

import itertools
from random import Random

import pytest

from oracles import brute_expand
from recgen import SYNTH, random_recipe
from recipegraph.acceptability import (
    AcceptTuple,
    accept_set,
    arc_triples,
    check_acceptable,
    expand_tuples,
    is_acceptable,
    load_acceptability,
)
from recipegraph.core import Recipe
from recipegraph.errors import SchemaError, UnknownReferenceError, UnknownTypeError


class TestCheckAcceptable:
    def test_pasta_fixture_is_acceptable_under_the_corpus_tuples(self, corpus, hierarchies):
        recipe = corpus.recipe("spaghetti-pasata")
        assert check_acceptable(recipe, corpus.acceptability, hierarchies) == []
        assert is_acceptable(recipe, corpus.acceptability, hierarchies)

    def test_empty_set_licenses_nothing(self, corpus, hierarchies):
        recipe = corpus.recipe("spaghetti-pasata")
        empty = accept_set([])
        found = check_acceptable(recipe, empty, hierarchies)
        assert len(found) == len(arc_triples(recipe))
        assert {(v.input, v.action, v.output) for v in found} == set(arc_triples(recipe))

    def test_substituted_ingredient_breaks_the_timed_action(self, corpus, hierarchies):
        from recipegraph.typesubst import apply_substitution

        recipe = corpus.recipe("fresh-spaghetti")
        tuples = accept_set(
            [
                ("fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti"),
                ("dried spaghetti", "boil spaghetti for 11 minutes", "cooked spaghetti"),
            ]
        )
        assert is_acceptable(recipe, tuples, hierarchies)
        switched = apply_substitution(recipe, {"c1": "dried spaghetti"}, hierarchies)
        found = check_acceptable(switched, tuples, hierarchies)
        assert [(v.input, v.action, v.output) for v in found] == [("c1", "a1", "c2")]
        assert found[0].triple == AcceptTuple(
            "dried spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti"
        )

    def test_all_offending_pairs_are_listed(self, corpus, hierarchies):
        recipe = corpus.recipe("vegetable-soup")
        partial = accept_set([("chopped vegetable", "boil", "soup")])
        found = check_acceptable(recipe, partial, hierarchies)
        assert len(found) == 3

    def test_monotone_in_the_tuple_set(self, corpus, hierarchies):
        recipe = corpus.recipe("boil-atomic")
        base = accept_set(
            [
                ("spaghetti", "boil pasta for 10 min", "cooked spaghetti"),
                ("boiling salted water", "boil pasta for 10 min", "cooked spaghetti"),
            ]
        )
        bigger = accept_set(set(base.tuples) | {AcceptTuple("milk", "bake", "soup")})
        assert is_acceptable(recipe, base, hierarchies)
        assert is_acceptable(recipe, bigger, hierarchies)


class TestExpandTuples:
    def test_exact_policy_returns_the_set_unchanged(self, hierarchies):
        tuples = accept_set([("carrot", "chop", "chopped carrot")])
        assert expand_tuples(tuples, hierarchies) is tuples

    def test_neighbourhood_examples_appear(self, hierarchies):
        tuples = accept_set(
            [("carrot", "chop", "chopped carrot")], policy="path-comparable", depth_limit=1
        )
        expanded = expand_tuples(tuples, hierarchies)
        assert AcceptTuple("raw carrot", "chop", "chopped vegetable") in expanded
        assert AcceptTuple("raw carrot", "finely chop", "chopped carrot") in expanded
        assert AcceptTuple("raw carrot", "cut in smaller pieces", "chopped carrot") in expanded
        assert AcceptTuple("raw carrot", "chop", "finely chopped carrot") in expanded

    def test_grandchild_types_need_depth_two(self, hierarchies):
        tuples = accept_set(
            [("carrot", "chop", "chopped carrot")], policy="path-comparable", depth_limit=1
        )
        shallow = expand_tuples(tuples, hierarchies)
        assert AcceptTuple("raw purple carrot", "chop", "chopped carrot") not in shallow
        deeper = accept_set(tuples.tuples, policy="path-comparable", depth_limit=2)
        deep = expand_tuples(deeper, hierarchies)
        assert AcceptTuple("raw purple carrot", "chop", "chopped carrot") in deep

    def test_expansion_matches_exhaustive_enumeration(self, hierarchies):
        seeds = {("carrot", "chop", "chopped carrot")}
        tuples = accept_set(seeds, policy="path-comparable", depth_limit=1)
        expanded = expand_tuples(tuples, hierarchies)
        expected = brute_expand(seeds, hierarchies, depth=1)
        assert {(t.input, t.action, t.output) for t in expanded.tuples} == expected

    def test_monotone_and_idempotent(self, hierarchies):
        tuples = accept_set(
            [("carrot", "chop", "chopped carrot"), ("milk", "bake", "soup")],
            policy="path-comparable",
            depth_limit=1,
        )
        once = expand_tuples(tuples, hierarchies)
        assert once.tuples >= tuples.tuples
        twice = expand_tuples(once, hierarchies)
        assert twice == once

    def test_an_expanded_set_is_exact_and_expands_to_itself(self, hierarchies):
        tuples = accept_set(
            [("carrot", "chop", "chopped carrot")], policy="path-comparable", depth_limit=2
        )
        expanded = expand_tuples(tuples, hierarchies)
        assert expanded.policy == "exact"
        assert expanded.depth_limit == 2
        assert expand_tuples(expanded, hierarchies) is expanded

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_an_expanded_set_licenses_what_its_source_licenses(self, corpus, hierarchies, depth):
        # every one-node rebinding from the default candidates that stays a recipe
        from recipegraph.errors import InvalidRecipeError
        from recipegraph.typesubst import apply_substitution, default_candidates

        source = accept_set(corpus.acceptability.tuples, policy="path-comparable", depth_limit=depth)
        expanded = expand_tuples(source, hierarchies)
        checked = 0
        for rid in corpus.recipe_ids():
            recipe = corpus.recipe(rid)
            for n, types in default_candidates(recipe, corpus.acceptability, hierarchies).items():
                for t in types:
                    try:
                        r = apply_substitution(recipe, {n: t}, hierarchies)
                    except InvalidRecipeError:
                        continue
                    checked += 1
                    assert check_acceptable(r, expanded, hierarchies) == check_acceptable(
                        r, source, hierarchies
                    ), (rid, n, t)
        assert checked == 2345

    def test_path_comparable_checking_without_pre_expansion(self, corpus, hierarchies):
        # a more specific action than the licensed one passes under the policy
        from recipegraph.typesubst import apply_substitution

        recipe = corpus.recipe("carrot-soup")
        tuples = accept_set(
            [
                ("raw carrot", "chop", "chopped carrot"),
                ("chopped carrot", "boil", "soup"),
            ],
            policy="path-comparable",
            depth_limit=1,
        )
        finer = apply_substitution(recipe, {"a1": "finely chop"}, hierarchies)
        assert is_acceptable(finer, tuples, hierarchies)
        exact = accept_set([t.as_list() for t in tuples.tuples], policy="exact")
        assert not is_acceptable(finer, exact, hierarchies)

    def test_unknown_type_in_document(self, hierarchies):
        with pytest.raises(
            UnknownReferenceError,
            match=r"^acceptability\.tuples\[0\]: type 'levitate' is not in the action hierarchy$",
        ):
            load_acceptability({"tuples": [["carrot", "levitate", "soup"]]}, hierarchies)

    def test_unknown_text_in_a_hand_built_set_is_reported_when_its_action_is_reached(
        self, corpus, hierarchies
    ):
        recipe = corpus.recipe("boil-atomic")
        licensed = ("spaghetti", "boil pasta for 10 min", "cooked spaghetti")
        for action in ("boil", "bake"):
            near = accept_set(
                [licensed, ("no such food", action, "cooked spaghetti")],
                policy="path-comparable",
            )
            if action == "boil":
                with pytest.raises(UnknownTypeError):
                    check_acceptable(recipe, near, hierarchies)
            else:
                assert len(check_acceptable(recipe, near, hierarchies)) == 1
            exact = accept_set(near.tuples, policy="exact")
            assert len(check_acceptable(recipe, exact, hierarchies)) == 1

    def test_an_unknown_policy_or_slot_is_a_value_error(self, hierarchies):
        with pytest.raises(ValueError, match="unknown policy 'psychic'"):
            accept_set([], policy="psychic")

    def test_bad_policy_in_document(self, hierarchies):
        with pytest.raises(SchemaError):
            load_acceptability({"tuples": [], "policy": "psychic"}, hierarchies)

    @pytest.mark.parametrize("depth", [True, False])
    def test_boolean_depth_limit_in_document(self, hierarchies, depth):
        with pytest.raises(SchemaError) as err:
            load_acceptability({"tuples": [], "depth_limit": depth}, hierarchies)
        assert err.value.path == "acceptability.depth_limit"

    def test_bare_triple_list_document(self, hierarchies):
        loaded = load_acceptability([["carrot", "chop", "chopped carrot"]], hierarchies)
        assert AcceptTuple("carrot", "chop", "chopped carrot") in loaded
        assert loaded.policy == "exact"


def _reference_licensed(triple, accepts, hierarchies) -> bool:
    """The full scan over every tuple, kept as the reference for the indexed lookup."""
    if triple in accepts.tuples:
        return True
    if accepts.policy == "exact":
        return False
    k = accepts.depth_limit
    h_com, h_act = hierarchies.comestible, hierarchies.action
    for t in accepts.tuples:
        if (
            triple.input in h_com.comparable_within(t.input, k)
            and triple.action in h_act.comparable_within(t.action, k)
            and triple.output in h_com.comparable_within(t.output, k)
        ):
            return True
    return False


def _odd_typing(rng: Random, recipe: Recipe, hierarchies, licensed: set) -> dict[str, str]:
    """The recipe's typing with some nodes retyped, not all of them to canonical ids.

    A node may get a relative of its type, an alias, an unknown text or a type
    of the other kind. An action given an alias has the type it stands for
    licensed on its triples, so only the alias itself keeps them unlicensed.
    """
    typing = dict(recipe.typing)
    for n in sorted(typing):
        if rng.random() < 0.5:
            continue
        kind = recipe.graph.kind_of(n)
        h = hierarchies.for_kind(kind)
        other = hierarchies.for_kind("comestible" if kind == "action" else "action")
        options = sorted(h.relatives(typing[n], 3)) + ["no such type", min(other.types)]
        options += sorted(h.aliases) * 3
        typing[n] = rng.choice(options)
        if typing[n] in h.aliases and kind == "action":
            for c, a, c2 in arc_triples(recipe):
                if a == n:
                    licensed.add((recipe.type_of(c), h.resolve(typing[n]), recipe.type_of(c2)))
    return typing


class TestLicencesMatchFullScan:
    @pytest.mark.parametrize("source", ["corpus", "synthetic"])
    def test_check_acceptable_agrees_with_the_reference(self, corpus, source):
        hierarchies = corpus.hierarchies if source == "corpus" else SYNTH
        seen = set()
        for seed in range(200):
            rng = Random(seed)
            if source == "corpus":
                recipe = corpus.recipe(rng.choice(corpus.recipe_ids()))
            else:
                recipe = random_recipe(rng, max_actions=4, max_nodes=10)
            typed = {
                tuple(recipe.type_of(n) for n in triple) for triple in arc_triples(recipe)
            }
            licensed = {t for t in typed if rng.random() < 0.5}
            odd = Recipe(recipe.graph, _odd_typing(rng, recipe, hierarchies, licensed))
            for policy, depth in itertools.product(("exact", "path-comparable"), range(4)):
                accepts = accept_set(licensed, policy=policy, depth_limit=depth)
                expected = []
                for c, a, c2 in arc_triples(odd):
                    triple = AcceptTuple(odd.type_of(c), odd.type_of(a), odd.type_of(c2))
                    if _reference_licensed(triple, accepts, hierarchies):
                        seen.add("in set" if triple in accepts else "near")
                    else:
                        expected.append((c, a, c2, triple))
                        seen.add("unlicensed")
                found = check_acceptable(odd, accepts, hierarchies)
                assert [(v.input, v.action, v.output, v.triple) for v in found] == expected
        assert seen == {"in set", "near", "unlicensed"}
