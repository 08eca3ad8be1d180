"""One-edit recipes: the library fails only with a RecipeError.

``Recipe(graph, typing)`` does not validate, so a library caller can hand
any public operation a recipe that breaks a rule of recipes. Each example
takes a corpus recipe, makes one edit to its graph or typing, builds the
result without validation, and runs the public operations on it, paired
with a corpus recipe where an operation takes two. An operation may answer
or raise a RecipeError; any other exception is a fault of the library.
Searches run at small budgets, so an example stays cheap.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recipegraph.acceptability import check_acceptable
from recipegraph.bundle import export_dot, load_corpus, recipe_doc
from recipegraph.compare import (
    equivalent,
    finer_grained,
    in_out_aligned,
    is_subrecipe,
    isomorphic,
    more_specific,
)
from recipegraph.compose import compose, decompose
from recipegraph.core import (
    Recipe,
    leq,
    recipe_graph,
    roles,
    typing_violations,
    validate_recipe_graph,
)
from recipegraph.errors import RecipeError
from recipegraph.rewrite import structural_cost, structural_substitute
from recipegraph.typesubst import CostModel, apply_substitution, find_secondary, preferred_pair

ONE_EDIT_SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BUDGET = 2000
WS = load_corpus()
H = WS.hierarchies
RECIPES = [WS.recipe(rid) for rid in WS.recipe_ids()]
MODEL = CostModel(distances=WS.distances)
# the types the corpus uses, per node kind
TYPES = {
    kind: sorted({r.type_of(n) for r in RECIPES for n in r.graph.nodes if r.graph.kind_of(n) == kind})
    for kind in ("comestible", "action")
}

EDITS = (
    "arc-to-undeclared-node",
    "same-kind-arc",
    "back-arc",
    "self-loop",
    "dropped-typing",
    "unknown-type",
    "wrong-kind-type",
    "isolated-node",
    "dropped-arc",
)


@st.composite
def one_edit(draw):
    """A corpus recipe and a copy of it with one edit, built without validation."""
    original = draw(st.sampled_from(RECIPES))
    g = original.graph
    coms, acts, arcs = set(g.comestibles), set(g.actions), set(g.arcs)
    typing = dict(original.typing)
    n = draw(st.sampled_from(sorted(g.nodes)))
    kind = g.kind_of(n)
    edit = draw(st.sampled_from(EDITS))
    if edit == "arc-to-undeclared-node":
        # moving one end of an arc keeps the arc count, so comparisons search
        s, t = draw(st.sampled_from(sorted(arcs)))
        arcs.remove((s, t))
        arcs.add(draw(st.sampled_from([(s, "x0"), ("x0", t)])))
    elif edit == "same-kind-arc":
        same = sorted(coms if kind == "comestible" else acts)
        arcs.add((n, draw(st.sampled_from([m for m in same if m != n] or same))))
    elif edit == "back-arc":
        # an arc back to a node of the other kind that reaches its tail: a cycle
        back = sorted(
            (m, k) for k in g.nodes for m in original.reachable_from(k) if g.kind_of(m) != g.kind_of(k)
        )
        arcs.add(draw(st.sampled_from(back)))
    elif edit == "self-loop":
        arcs.add((n, n))
    elif edit == "dropped-typing":
        del typing[n]
    elif edit == "unknown-type":
        typing[n] = "no such type"
    elif edit == "wrong-kind-type":
        typing[n] = draw(st.sampled_from(TYPES["action" if kind == "comestible" else "comestible"]))
    elif edit == "isolated-node":
        new_kind = draw(st.sampled_from(sorted(TYPES)))
        (coms if new_kind == "comestible" else acts).add("x0")
        typing["x0"] = draw(st.sampled_from(TYPES[new_kind]))
    else:
        arcs.discard(draw(st.sampled_from(sorted(arcs))))
    return original, Recipe(recipe_graph(coms, acts, arcs), typing)


def operations(mutant: Recipe, original: Recipe, partner: Recipe, n: str, m: str, t: str):
    """The public operations on the mutant, by name."""
    piece = decompose(original, H)[0]
    return {
        "isomorphic": lambda: isomorphic(mutant, partner, budget=BUDGET),
        "equivalent": lambda: equivalent(partner, mutant, budget=BUDGET),
        "more_specific": lambda: more_specific(mutant, partner, H, budget=BUDGET),
        "is_subrecipe": lambda: is_subrecipe(piece, mutant),
        "in_out_aligned": lambda: in_out_aligned(mutant, partner),
        "finer_grained": lambda: finer_grained(mutant, partner, budget=BUDGET),
        "finer_grained fix_io": lambda: finer_grained(partner, mutant, budget=BUDGET, fix_io=True),
        "roles": lambda: roles(mutant),
        "leq": lambda: leq(mutant, n, m),
        "check_acceptable": lambda: check_acceptable(mutant, WS.acceptability, H),
        "typing_violations": lambda: typing_violations(mutant.graph, mutant.typing, H),
        "validate_recipe_graph": lambda: validate_recipe_graph(mutant.graph),
        "compose": lambda: compose(mutant, partner, H),
        "compose reversed": lambda: compose(partner, mutant, H),
        "decompose": lambda: decompose(mutant, H),
        "structural_cost": lambda: structural_cost(mutant, partner, H, budget=BUDGET),
        "structural_substitute": lambda: structural_substitute(mutant, piece, piece, H),
        "structural_substitute into": lambda: structural_substitute(original, piece, mutant, H),
        "apply_substitution": lambda: apply_substitution(mutant, {n: t}, H),
        "preferred_pair": lambda: preferred_pair(
            mutant, [n], WS.acceptability, MODEL, H, budget=BUDGET
        ),
        "find_secondary": lambda: find_secondary(
            mutant, {n: t}, WS.acceptability, H, budget=BUDGET
        ),
        "export_dot": lambda: export_dot(mutant),
        "recipe_doc": lambda: recipe_doc(mutant),
    }


@ONE_EDIT_SETTINGS
@given(edited=one_edit(), partner=st.sampled_from(RECIPES), data=st.data())
def test_only_recipe_errors_escape_the_public_operations(edited, partner, data):
    original, mutant = edited
    partner = data.draw(st.sampled_from([original, partner]), label="partner")
    nodes = sorted(mutant.graph.nodes)
    n, m = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
    t = data.draw(st.sampled_from(TYPES["comestible"] + TYPES["action"]))
    for name, call in operations(mutant, original, partner, n, m, t).items():
        try:
            call()
        except RecipeError:
            pass
        except Exception as exc:
            raise AssertionError(f"{name} raised {type(exc).__name__}: {exc}") from exc
