"""The comparable-pair join against the nested loops it replaced.

The typing rule, composition condition 6 and structural-substitution
condition v all look for comestibles with comparable types. The references
below check every pair with ``TypeHierarchy.comparable``, one call per pair
over sorted nodes, and must report the same violations in the same order.
Each test also counts the cases that report a pair, and those that report
several, so that neither the answers nor their order are checked vacuously.
"""

from __future__ import annotations

from random import Random

import recgen
from recgen import SYNTH
from recipegraph.compose import CompositionFailure, compose
from recipegraph.core import Recipe, Violation, roles, typing_violations
from recipegraph.rewrite import RewriteFailure, structural_substitute

SYNTH_COMESTIBLE_TYPES = sorted(SYNTH.comestible.types)


def _reference_condition_6(r1: Recipe, r2: Recipe, hierarchies) -> list[Violation]:
    h = hierarchies.comestible
    found = []
    for n in sorted(r1.graph.comestibles - roles(r1).outputs):
        for m in sorted(r2.graph.comestibles - roles(r2).inputs):
            if h.comparable(r1.type_of(n), r2.type_of(m)):
                found.append(
                    Violation(
                        "6",
                        "comparable comestible types outside the glue",
                        nodes=(n, m),
                        types=(r1.type_of(n), r2.type_of(m)),
                    )
                )
    return found


def _reference_condition_v(host: Recipe, part: Recipe, replacement: Recipe, hierarchies):
    h = hierarchies.comestible
    kept = host.graph.nodes - part.graph.nodes
    found = []
    for n in sorted(kept & host.graph.comestibles):
        for m in sorted(replacement.graph.comestibles):
            if n != m and h.comparable(host.type_of(n), replacement.type_of(m)):
                found.append(
                    Violation(
                        "v",
                        "kept comestible's type is comparable to an inserted one's",
                        nodes=(n, m),
                        types=(host.type_of(n), replacement.type_of(m)),
                    )
                )
    return found


def _reference_typing_pairs(recipe: Recipe, hierarchies) -> list[Violation]:
    h = hierarchies.comestible
    coms = sorted(recipe.graph.comestibles)
    found = []
    for i, c1 in enumerate(coms):
        for c2 in coms[i + 1:]:
            t1, t2 = h.resolve(recipe.type_of(c1)), h.resolve(recipe.type_of(c2))
            if h.comparable(t1, t2):
                found.append(
                    Violation(
                        "comparable",
                        "distinct comestibles with comparable types",
                        nodes=(c1, c2),
                        types=(t1, t2),
                    )
                )
    return found


def _labelled(violations, condition: str) -> list[Violation]:
    return [v for v in violations if v.condition == condition]


def _retyped(rng: Random, recipe: Recipe, types=SYNTH_COMESTIBLE_TYPES) -> Recipe:
    """``recipe`` with about half its comestibles retyped from ``types``, unvalidated."""
    typing = dict(recipe.typing)
    for c in sorted(recipe.graph.comestibles):
        if rng.random() < 0.5:
            typing[c] = rng.choice(types)
    return Recipe(recipe.graph, typing)


def _host_branches(host: Recipe) -> list[str]:
    """The types of the branches the host's comestibles use, and the root."""
    branches = {host.type_of(c).split()[0] for c in host.graph.comestibles}
    return sorted({SYNTH.comestible.root} | branches | {f"{b} fine" for b in branches})


def test_condition_6_on_every_ordered_corpus_pair(corpus, hierarchies):
    recipes = [corpus.recipe(rid) for rid in corpus.recipe_ids()]
    assert len(recipes) ** 2 == 729
    reported = several = 0
    for r1 in recipes:
        for r2 in recipes:
            result = compose(r1, r2, hierarchies)
            found = _labelled(result.violations, "6") if isinstance(result, CompositionFailure) else []
            expected = _reference_condition_6(r1, r2, hierarchies)
            assert found == expected, (r1, r2)
            reported += bool(expected)
            several += len(expected) > 1
    assert reported >= 60 and several >= 10


def test_condition_v_on_seeded_generated_substitutions():
    rng = Random(26)
    reported = several = 0
    for _ in range(150):
        host = recgen.random_recipe(rng)
        part = recgen.random_untrimmed_part(rng, host)
        replacement = recgen.relabelled_replacement(rng, host, part)
        replacement = _retyped(rng, replacement, _host_branches(host))
        result = structural_substitute(host, part, replacement, SYNTH)
        found = _labelled(result.violations, "v") if isinstance(result, RewriteFailure) else []
        expected = _reference_condition_v(host, part, replacement, SYNTH)
        assert found == expected
        reported += bool(expected)
        several += len(expected) > 1
    assert reported >= 40 and several >= 10


def test_typing_pairs_on_seeded_retyped_recipes():
    rng = Random(26)
    reported = several = 0
    for _ in range(300):
        recipe = _retyped(rng, recgen.random_recipe(rng, max_actions=5, max_nodes=16))
        found = _labelled(typing_violations(recipe.graph, recipe.typing, SYNTH), "comparable")
        expected = _reference_typing_pairs(recipe, SYNTH)
        assert found == expected
        reported += bool(expected)
        several += len(expected) > 1
    assert reported >= 100 and several >= 30
