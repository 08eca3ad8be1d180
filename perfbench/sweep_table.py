"""Expected answers for the search-sweep workload.

``PLAN_PAIRS`` holds every planner query (recipe, missing input) that ends in
a pair at the sweep's budget of 10^4 expansions, with that pair and its cost
under the corpus distance model (sum aggregation). Each pair passes
``oracles.check_substitution_pair``, and an exhaustive cost-bounded search
over the planner's candidate space found no cheaper acceptable pair for any
of them. The other 26 queries run out of budget; whether they have a pair is
not known.

``STRUCTURAL_COSTS`` holds ``structural_cost`` for every pair of corpus
recipes with at least two actions, as computed by the test suite's
``brute_structural_cost`` (which enumerates every node matching).
"""

from __future__ import annotations

# (recipe, missing input) -> (primary, secondary, cost)
PLAN_PAIRS = {
    ("boil-atomic", "c1"): ({"c1": "tagliatelle"}, {}, 0.1),
    ("boil-chain", "c1"): ({"c1": "tagliatelle"}, {}, 0.1),
    ("bolognese-sauce-prep", "c9"): ({"c9": "pasata"}, {"c5": "heated pasta sauce"}, 1.0),
    ("drain-chain", "c2"): (
        {"c2": "soup base"}, {"a2": "boil", "c3": "soup"}, 1.6666666666666665,
    ),
    ("fresh-spaghetti", "c1"): (
        {"c1": "dried spaghetti"}, {"a1": "boil spaghetti for 11 minutes"}, 0.25,
    ),
    ("fry-onion", "c1"): (
        {"c1": "raw carrot"}, {"a1": "chop carrot", "c2": "chopped vegetable"},
        3.1166666666666667,
    ),
    ("fry-onion-alt", "c7"): (
        {"c7": "raw carrot"}, {"a8": "chop carrot", "c4": "chopped vegetable"},
        3.1166666666666667,
    ),
    ("fry-onion-timed", "c1"): (
        {"c1": "raw carrot"}, {"a2": "chop carrot", "c2": "chopped vegetable"},
        2.783333333333333,
    ),
    ("peas-freeze", "c1"): (
        {"c1": "chopped vegetable"}, {"a1": "boil", "c2": "soup"}, 4.166666666666666,
    ),
    ("peas-refreeze", "c3"): (
        {"c3": "chopped vegetable"}, {"a3": "boil", "c4": "soup"}, 4.166666666666666,
    ),
    ("peas-rethaw", "c4"): (
        {"c4": "chopped vegetable"}, {"a4": "boil", "c5": "soup"}, 4.166666666666666,
    ),
    ("peas-thaw", "c2"): (
        {"c2": "chopped vegetable"}, {"a2": "boil", "c3": "soup"}, 4.166666666666666,
    ),
    ("spaghetti-bolognese", "c1"): ({"c1": "tagliatelle"}, {}, 0.1),
    ("spaghetti-pasata", "c1"): ({"c1": "tagliatelle"}, {}, 0.1),
    ("tomato-loop", "c2"): (
        {"c2": "chopped vegetable"}, {"a2": "boil", "c1": "soup"}, 1.9166666666666665,
    ),
}

STRUCTURAL_COSTS = {
    ("carrot-soup", "hummus"): 9.833333333333334,
    ("carrot-soup", "hummus-canned"): 6.833333333333333,
    ("carrot-soup", "hummus-pressure-cook"): 6.083333333333333,
    ("carrot-soup", "hummus-slow"): 12.833333333333332,
    ("carrot-soup", "spaghetti-bolognese"): 19.333333333333332,
    ("carrot-soup", "spaghetti-pasata"): 21.333333333333332,
    ("carrot-soup", "vegetable-soup"): 7.75,
    ("hummus", "hummus-canned"): 7.916666666666667,
    ("hummus", "hummus-pressure-cook"): 7.333333333333334,
    ("hummus", "hummus-slow"): 7.333333333333334,
    ("hummus", "spaghetti-bolognese"): 19.75,
    ("hummus", "spaghetti-pasata"): 21.75,
    ("hummus", "vegetable-soup"): 12.5,
    ("hummus-canned", "hummus-pressure-cook"): 6.083333333333333,
    ("hummus-canned", "hummus-slow"): 10.916666666666666,
    ("hummus-canned", "spaghetti-bolognese"): 18.833333333333336,
    ("hummus-canned", "spaghetti-pasata"): 20.833333333333336,
    ("hummus-canned", "vegetable-soup"): 13.083333333333334,
    ("hummus-pressure-cook", "hummus-slow"): 8.0,
    ("hummus-pressure-cook", "spaghetti-bolognese"): 20.583333333333332,
    ("hummus-pressure-cook", "spaghetti-pasata"): 22.583333333333332,
    ("hummus-pressure-cook", "vegetable-soup"): 13.333333333333334,
    ("hummus-slow", "spaghetti-bolognese"): 20.166666666666668,
    ("hummus-slow", "spaghetti-pasata"): 21.916666666666668,
    ("hummus-slow", "vegetable-soup"): 14.583333333333332,
    ("spaghetti-bolognese", "spaghetti-pasata"): 4.166666666666666,
    ("spaghetti-bolognese", "vegetable-soup"): 16.416666666666664,
    ("spaghetti-pasata", "vegetable-soup"): 17.666666666666664,
}
