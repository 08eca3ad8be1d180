"""Hand-written requests and expected answers for the corpus-cli workload.

Each request is ``(argv, exit code, {payload path: expected value})``; the
benchmark appends ``--format json`` and compares the listed fields of the
report's ``data`` object. Answers that the acceptance gate or the CLI tests
already assert are copied from them; the rest were worked out by hand from
the corpus. ``@name`` in an argv stands for the path of the work file
``name.json`` written during set-up.
"""

from __future__ import annotations


class CorpusRecipe:
    """Expected value: the canonical document of this corpus recipe."""

    def __init__(self, rid: str):
        self.rid = rid


class Golden:
    """Expected value: the contents of this file under ``tests/golden``."""

    def __init__(self, name: str):
        self.name = name


CORPUS_IDS = [
    "boil-atomic", "boil-chain", "bolognese-assembly", "bolognese-sauce-prep",
    "carrot-soup", "chop-lettuce", "chop-tomato", "drain-chain",
    "fresh-spaghetti", "fry-onion", "fry-onion-alt", "fry-onion-timed",
    "hummus", "hummus-canned", "hummus-canned-shortcut", "hummus-pressure-cook",
    "hummus-slow", "mix-salad", "peas-freeze", "peas-refreeze", "peas-rethaw",
    "peas-thaw", "spaghetti-bolognese", "spaghetti-one-pot", "spaghetti-pasata",
    "tomato-loop", "vegetable-soup",
]

# Induced parts of corpus recipes, a rewrite plan, and an acceptability file.
WORK_FILES = {
    "hummus-prep": {
        "comestibles": ["c1", "c2", "c3"],
        "actions": ["a1", "a2"],
        "arcs": [["c1", "a1"], ["a1", "c2"], ["c2", "a2"], ["a2", "c3"]],
        "typing": {
            "c1": "dried chickpeas", "a1": "soak", "c2": "soaked chickpeas",
            "a2": "boil chickpeas", "c3": "cooked chickpeas",
        },
    },
    "hummus-cook": {
        "comestibles": ["c2", "c3"],
        "actions": ["a2"],
        "arcs": [["c2", "a2"], ["a2", "c3"]],
        "typing": {"c2": "soaked chickpeas", "a2": "boil chickpeas", "c3": "cooked chickpeas"},
    },
    "pasata-sauce": {
        "comestibles": ["c3", "c4", "c5"],
        "actions": ["a2"],
        "arcs": [["c3", "a2"], ["c4", "a2"], ["a2", "c5"]],
        "typing": {
            "c3": "pasata", "c4": "fried onion", "a2": "mix and heat",
            "c5": "heated pasta sauce",
        },
    },
    # the assembly step after the sauce was swapped for the bolognese one
    "pasata-assembly": {
        "comestibles": ["c5", "c7", "c8"],
        "actions": ["a4"],
        "arcs": [["c5", "a4"], ["c7", "a4"], ["a4", "c8"]],
        "typing": {
            "c5": "heated bolognese sauce", "c7": "spaghetti in bowl",
            "a4": "pour pasta sauce on spaghetti", "c8": "spaghetti con pasata",
        },
    },
    "bolognese-plan": {
        "primary": [{"remove": "@pasata-sauce", "insert": "bolognese-sauce-prep"}],
        "secondary": [{"remove": "@pasata-assembly", "insert": "bolognese-assembly"}],
        "check_acceptability": True,
    },
    "fresh-only": {
        "tuples": [["fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti"]]
    },
}

PLAN_BUDGET = "100"

# Stands for the exit code of a plan request that runs out of budget today.
# Right answers: exit 3, or exit 0 with a pair that the raw-arc oracle
# (``oracles.check_substitution_pair``) accepts. No such request is known to
# have no pair, so exit 1 is wrong.
BUDGET_OR_PAIR = "budget-or-pair"

REQUESTS = [
    # validate
    (["validate"], 0, {"checked": CORPUS_IDS, "invalid": {}}),
    (["validate", "spaghetti-pasata", "hummus"], 0,
     {"checked": ["spaghetti-pasata", "hummus"], "invalid": {}}),
    # roles
    (["roles", "spaghetti-pasata"], 0,
     {"inputs": ["c0", "c1", "c3", "c4"], "outputs": ["c6", "c8"], "mids": ["c2", "c5", "c7"]}),
    (["roles", "hummus"], 0,
     {"inputs": ["c1"], "outputs": ["c4"], "mids": ["c2", "c3"],
      "input_types": ["dried chickpeas"], "output_types": ["hummus"]}),
    (["roles", "vegetable-soup"], 0,
     {"inputs": ["c1", "c2"], "outputs": ["c5"], "mids": ["c3", "c4"]}),
    (["roles", "spaghetti-bolognese"], 0,
     {"inputs": ["c0", "c1", "c9"], "outputs": ["c6", "c8"], "mids": ["c2", "c5", "c7"]}),
    # compare, every relation
    (["compare", "--relation", "equiv", "fry-onion", "fry-onion-alt"], 0,
     {"holds": True, "witness": {"c1": "c7", "a1": "a8", "c2": "c4"}}),
    (["compare", "--relation", "equiv", "fry-onion", "fry-onion-timed"], 1, {"holds": False}),
    (["compare", "--relation", "iso", "fry-onion", "fry-onion-timed"], 0,
     {"holds": True, "witness": {"c1": "c1", "a1": "a2", "c2": "c2"}}),
    (["compare", "--relation", "iso", "hummus", "carrot-soup"], 1, {"holds": False}),
    (["compare", "--relation", "iso", "hummus-pressure-cook", "carrot-soup"], 0,
     {"holds": True, "witness": {"c2": "c1", "a4": "a1", "c5": "c2", "a6": "a2", "c3": "c3"}}),
    (["compare", "--relation", "sub", "hummus-canned-shortcut", "hummus-canned"], 0,
     {"holds": True}),
    (["compare", "--relation", "sub", "fry-onion", "hummus"], 1, {"holds": False}),
    (["compare", "--relation", "io", "spaghetti-pasata", "spaghetti-one-pot"], 0,
     {"holds": True}),
    (["compare", "--relation", "io", "hummus", "hummus-slow"], 0, {"holds": True}),
    (["compare", "--relation", "io", "hummus", "hummus-canned"], 1, {"holds": False}),
    (["compare", "--relation", "finer", "spaghetti-pasata", "spaghetti-one-pot"], 0,
     {"holds": True}),
    (["compare", "--relation", "finer", "hummus-slow", "hummus"], 0, {"holds": True}),
    (["compare", "--relation", "finer", "--fix-io", "spaghetti-pasata", "spaghetti-one-pot"], 0,
     {"holds": True, "witness.c0": "c0", "witness.c3": "c3", "witness.c8": "c8"}),
    (["compare", "--relation", "specific", "fry-onion-timed", "fry-onion"], 0, {"holds": True}),
    (["compare", "--relation", "specific", "fry-onion", "fry-onion-timed"], 1, {"holds": False}),
    # compose, closure, decompose
    (["compose", "boil-chain", "drain-chain"], 0,
     {"composed": True, "recipe.comestibles": ["c1", "c2", "c3"], "recipe.actions": ["a1", "a2"]}),
    (["compose", "chop-tomato", "tomato-loop"], 1,
     {"composed": False, "violations.0.condition": "4", "violations.0.nodes": ["c1"]}),
    (["compose", "chop-lettuce", "mix-salad"], 0,
     {"composed": True, "recipe.comestibles": ["c2", "c3", "c4", "c5"]}),
    (["compose", "chop-tomato", "chop-lettuce"], 1,
     {"composed": False, "violations.0.condition": "1"}),
    (["closure", "peas-freeze", "peas-thaw", "peas-refreeze"], 0,
     {"size": 6, "truncated": False}),
    (["closure", "peas-freeze", "peas-thaw", "peas-refreeze", "--max-recipes", "4"], 3,
     {"truncated": True}),
    (["decompose", "spaghetti-pasata"], 0, {"count": 4}),
    (["decompose", "hummus-slow"], 0, {"count": 4}),
    # acceptability and type substitution
    (["accept", "spaghetti-pasata"], 0, {"acceptable": True, "violations": []}),
    (["accept", "vegetable-soup"], 0, {"acceptable": True}),
    (["accept", "fry-onion"], 1,
     {"acceptable": False, "violations.0.triple": ["raw onion", "fry", "fried onion"]}),
    (["accept", "hummus"], 1, {"acceptable": False, "violations.2.action": "a3"}),
    (["substitute", "carrot-soup", "--bind", "c1=raw onion"], 0,
     {"recipe.typing.c1": "raw onion", "recipe.typing.c2": "chopped carrot"}),
    (["substitute", "spaghetti-pasata", "--bind", "c1=tagliatelle"], 0,
     {"recipe.typing.c1": "tagliatelle"}),
    # c2 would become comparable to c1: an input error
    (["substitute", "carrot-soup", "--bind", "c2=raw carrot"], 2, {}),
    (["plan", "spaghetti-pasata", "--missing", "spaghetti", "--budget", PLAN_BUDGET], 0,
     {"found": True, "primary": {"c1": "tagliatelle"}, "secondary": {}, "cost": 0.1}),
    (["plan", "boil-chain", "--missing", "spaghetti", "--budget", PLAN_BUDGET], 0,
     {"found": True, "primary": {"c1": "tagliatelle"}, "secondary": {}}),
    (["plan", "fresh-spaghetti", "--missing", "c1", "--accept-file", "@fresh-only",
      "--budget", "200"], 1, {"found": False}),
    (["plan", "vegetable-soup", "--missing", "barley", "--budget", PLAN_BUDGET],
     BUDGET_OR_PAIR, {}),
    (["plan", "spaghetti-pasata", "--missing", "c4", "--budget", PLAN_BUDGET],
     BUDGET_OR_PAIR, {}),
    # structural substitution
    (["rewrite", "hummus", "--remove", "@hummus-prep", "--insert", "hummus-canned-shortcut"], 0,
     {"applied": True, "recipe": CorpusRecipe("hummus-canned")}),
    (["rewrite", "hummus", "--remove", "@hummus-cook", "--insert", "hummus-pressure-cook",
      "--cost"], 0,
     {"applied": True, "recipe": CorpusRecipe("hummus-slow"), "cost.value": 37 / 6}),
    (["rewrite", "hummus", "--remove", "@hummus-cook", "--insert", "carrot-soup"], 1,
     {"applied": False, "violations.0.condition": "i", "violations.1.condition": "iv"}),
    (["rewrite-seq", "spaghetti-pasata", "@bolognese-plan"], 0,
     {"applied": True, "acceptable": True, "recipe": CorpusRecipe("spaghetti-bolognese")}),
    # rendering
    (["export-dot", "boil-atomic"], 0, {"dot": Golden("boil_atomic.dot")}),
    (["export-dot", "spaghetti-pasata"], 0, {"dot": Golden("spaghetti_pasata.dot")}),
]
