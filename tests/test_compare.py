from __future__ import annotations

from random import Random

import pytest

import recgen
from oracles import brute_isomorphisms
from recipegraph import compare
from recipegraph.compare import (
    NodeBijection,
    OrderMap,
    _Budget,
    equivalent,
    finer_grained,
    in_out_aligned,
    is_subrecipe,
    isomorphic,
    more_specific,
)
from recipegraph.core import Recipe, build_recipe, recipe_graph, roles
from recipegraph.errors import BudgetExceededError
from recipegraph.rewrite import structural_cost
from recipegraph.typekb import Hierarchies, load_hierarchy


class TestIsomorphic:
    def test_fry_pair_matches_with_the_expected_witness(self, corpus):
        witness = isomorphic(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt"))
        assert witness is not None
        assert witness.as_dict() == {"c1": "c7", "a1": "a8", "c2": "c4"}

    def test_identity_on_itself(self, corpus):
        recipe = corpus.recipe("spaghetti-pasata")
        witness = isomorphic(recipe, recipe)
        assert witness is not None
        assert all(n == m for n, m in witness.forward)

    def test_distinct_shapes_do_not_match(self, corpus):
        # two-input atomic vs one-input atomic
        assert isomorphic(corpus.recipe("boil-atomic"), corpus.recipe("fry-onion")) is None

    def test_agrees_with_brute_force_on_fixture_pairs(self, corpus):
        small = [
            "fry-onion",
            "fry-onion-alt",
            "fry-onion-timed",
            "boil-atomic",
            "chop-tomato",
            "tomato-loop",
            "mix-salad",
            "carrot-soup",
        ]
        for rid1 in small:
            for rid2 in small:
                r1, r2 = corpus.recipe(rid1), corpus.recipe(rid2)
                fast = isomorphic(r1, r2)
                slow = brute_isomorphisms(r1, r2)
                assert (fast is not None) == bool(slow), (rid1, rid2)
                if fast is not None:
                    assert fast.as_dict() in slow

    def test_budget_is_enforced(self, corpus):
        recipe = corpus.recipe("spaghetti-pasata")
        with pytest.raises(BudgetExceededError):
            isomorphic(recipe, recipe, budget=3)


class TestSubrecipe:
    def test_sauce_section_of_the_pasta_recipe(self, corpus, induced):
        host = corpus.recipe("spaghetti-pasata")
        part = induced(host, {"c3", "c4", "c5", "a2"})
        assert is_subrecipe(part, host)

    def test_reflexive(self, corpus):
        recipe = corpus.recipe("hummus")
        assert is_subrecipe(recipe, recipe)

    def test_dropping_an_induced_arc_disqualifies(self, hierarchies):
        # the whole tomato also goes into the mix; a candidate keeping both
        # nodes but not that arc is a recipe, yet not an induced part
        typing = {
            "x1": "tomato",
            "y1": "chop",
            "x2": "chopped tomato",
            "y2": "mix",
            "x3": "salad",
        }
        full_arcs = [("x1", "y1"), ("y1", "x2"), ("x2", "y2"), ("x1", "y2"), ("y2", "x3")]
        host = build_recipe({"x1", "x2", "x3"}, {"y1", "y2"}, full_arcs, typing, hierarchies)
        candidate = build_recipe(
            {"x1", "x2", "x3"}, {"y1", "y2"}, full_arcs[:-2] + [("y2", "x3")], typing, hierarchies
        )
        assert candidate.graph.arcs == host.graph.arcs - {("x1", "y2")}
        assert not is_subrecipe(candidate, host)

    def test_an_action_outside_the_host_disqualifies(self, corpus):
        part = corpus.recipe("fry-onion-alt")
        host = corpus.recipe("spaghetti-pasata")
        assert part.graph.comestibles <= host.graph.comestibles
        assert not part.graph.actions <= host.graph.actions
        assert not is_subrecipe(part, host)

    def test_type_disagreement_disqualifies(self, corpus, hierarchies, induced):
        from recipegraph.typesubst import apply_substitution

        host = corpus.recipe("spaghetti-pasata")
        part = induced(host, {"c3", "c4", "c5", "a2"})
        retyped = apply_substitution(part, {"a2": "mix"}, hierarchies)
        assert not is_subrecipe(retyped, host)


class TestEquivalent:
    def test_fry_pair_is_equivalent(self, corpus):
        witness = equivalent(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt"))
        assert witness is not None
        assert witness.as_dict() == {"c1": "c7", "a1": "a8", "c2": "c4"}

    def test_reflexive(self, corpus):
        recipe = corpus.recipe("hummus")
        assert equivalent(recipe, recipe) is not None

    def test_label_difference_breaks_equivalence(self, corpus):
        # same shape but "fry" vs "fry for 4 min"
        assert isomorphic(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-timed"))
        assert equivalent(corpus.recipe("fry-onion"), corpus.recipe("fry-onion-timed")) is None


class TestInOutAligned:
    def test_one_pot_variant_is_aligned(self, corpus):
        assert in_out_aligned(
            corpus.recipe("spaghetti-pasata"), corpus.recipe("spaghetti-one-pot")
        )

    def test_reflexive(self, corpus):
        recipe = corpus.recipe("vegetable-soup")
        assert in_out_aligned(recipe, recipe)

    def test_renamed_input_node_breaks_alignment(self, corpus, hierarchies):
        raw = corpus.raw("spaghetti-pasata")
        renamed = {
            "c0x" if n == "c0" else n: t for n, t in raw.typing.items()
        }
        arcs = [
            ("c0x" if s == "c0" else s, "c0x" if t == "c0" else t)
            for s, t in raw.graph.arcs
        ]
        coms = {"c0x" if c == "c0" else c for c in raw.graph.comestibles}
        other = build_recipe(coms, raw.graph.actions, arcs, renamed, hierarchies)
        assert not in_out_aligned(corpus.recipe("spaghetti-pasata"), other)

    def test_retyped_input_breaks_alignment(self, corpus, hierarchies):
        from recipegraph.typesubst import apply_substitution

        one_pot = corpus.recipe("spaghetti-one-pot")
        retyped = apply_substitution(one_pot, {"c1": "tagliatelle"}, hierarchies)
        assert not in_out_aligned(corpus.recipe("spaghetti-pasata"), retyped)


class TestFinerGrained:
    def test_four_step_recipe_refines_the_one_pot(self, corpus):
        fine = corpus.recipe("spaghetti-pasata")
        coarse = corpus.recipe("spaghetti-one-pot")
        witness = finer_grained(fine, coarse)
        assert witness is not None
        g = witness.as_dict()
        for n in fine.graph.nodes:
            for m in fine.graph.nodes:
                if m in fine.reachable_from(n):
                    assert g[m] in coarse.reachable_from(g[n])

    def test_fix_io_variant_also_holds_here(self, corpus):
        witness = finer_grained(
            corpus.recipe("spaghetti-pasata"), corpus.recipe("spaghetti-one-pot"), fix_io=True
        )
        assert witness is not None
        from recipegraph.core import roles

        rs = roles(corpus.recipe("spaghetti-pasata"))
        g = witness.as_dict()
        assert all(g[n] == n for n in rs.inputs | rs.outputs)

    def test_reflexive(self, corpus):
        recipe = corpus.recipe("hummus")
        assert finer_grained(recipe, recipe) is not None

    def test_not_aligned_means_not_finer(self, corpus):
        assert finer_grained(corpus.recipe("fry-onion"), corpus.recipe("boil-atomic")) is None

    def test_atomic_collapse_is_least_fine_grained(self, corpus, hierarchies):
        # any recipe refines an in-out aligned atomic version of itself
        from recipegraph.core import roles

        recipe = corpus.recipe("vegetable-soup")
        rs = roles(recipe)
        coms = rs.inputs | rs.outputs
        arcs = [(c, "zz1") for c in rs.inputs] + [("zz1", c) for c in rs.outputs]
        typing = {n: recipe.type_of(n) for n in coms}
        typing["zz1"] = "boil"
        atomic = build_recipe(coms, {"zz1"}, arcs, typing, hierarchies)
        assert finer_grained(recipe, atomic) is not None


class TestMoreSpecific:
    def test_timed_fry_is_more_specific(self, corpus, hierarchies):
        timed = corpus.recipe("fry-onion-timed")
        plain = corpus.recipe("fry-onion")
        witness = more_specific(timed, plain, hierarchies)
        assert witness is not None
        assert not more_specific(plain, timed, hierarchies)

    def test_reflexive(self, corpus, hierarchies):
        recipe = corpus.recipe("carrot-soup")
        assert more_specific(recipe, recipe, hierarchies) is not None

    def test_equivalent_recipes_are_mutually_specific(self, corpus, hierarchies):
        top, bottom = corpus.recipe("fry-onion"), corpus.recipe("fry-onion-alt")
        assert more_specific(top, bottom, hierarchies) is not None
        assert more_specific(bottom, top, hierarchies) is not None


def _reference_match_bijection(r1, r2, budget, label_ok):
    """The original bijection search: (kind, in-degree, out-degree) pools,
    most-constrained-first static order, recursive backtracking."""
    g1, g2 = r1.graph, r2.graph
    if len(g1.comestibles) != len(g2.comestibles):
        return None
    if len(g1.actions) != len(g2.actions):
        return None
    if len(g1.arcs) != len(g2.arcs):
        return None

    def signature(g, n):
        return (g.kind_of(n), g.in_degree(n), g.out_degree(n))

    sig2 = {}
    for m in sorted(g2.nodes):
        sig2.setdefault(signature(g2, m), []).append(m)
    candidates = {}
    for n in g1.nodes:
        pool = [m for m in sig2.get(signature(g1, n), []) if label_ok(n, m)]
        if not pool:
            return None
        candidates[n] = pool
    order = sorted(g1.nodes, key=lambda n: (len(candidates[n]), n))
    mapping, inverse = {}, {}

    def consistent(n, m):
        for p in g1.predecessors(n):
            if p in mapping and (mapping[p], m) not in g2.arcs:
                return False
        for s in g1.successors(n):
            if s in mapping and (m, mapping[s]) not in g2.arcs:
                return False
        for p in g2.predecessors(m):
            if p in inverse and (inverse[p], n) not in g1.arcs:
                return False
        for s in g2.successors(m):
            if s in inverse and (n, inverse[s]) not in g1.arcs:
                return False
        return True

    def extend(i):
        if i == len(order):
            return True
        n = order[i]
        for m in candidates[n]:
            if m in inverse:
                continue
            budget.spend()
            if not consistent(n, m):
                continue
            mapping[n] = m
            inverse[m] = n
            if extend(i + 1):
                return True
            del mapping[n]
            del inverse[m]
        return False

    return dict(mapping) if extend(0) else None


def _relations(hierarchies):
    """(name, fast call, label constraint of the reference) per bijection relation."""

    def specific_label(r1, r2):
        def ok(n, m):
            h = hierarchies.for_kind(r1.graph.kind_of(n))
            return h.is_subtype(r1.type_of(n), r2.type_of(m))
        return ok

    return [
        ("iso", isomorphic, lambda r1, r2: lambda n, m: True),
        ("equiv", equivalent, lambda r1, r2: lambda n, m: r1.type_of(n) == r2.type_of(m)),
        ("specific", lambda r1, r2: more_specific(r1, r2, hierarchies), specific_label),
    ]


def _assert_same_as_reference(r1, r2, hierarchies):
    for name, fast, label in _relations(hierarchies):
        found = _reference_match_bijection(r1, r2, _Budget(10**6), label(r1, r2))
        want = None if found is None else NodeBijection(tuple(sorted(found.items())))
        assert fast(r1, r2) == want, name


class TestBijectionSearchMatchesReference:
    def test_every_corpus_pair(self, corpus, hierarchies):
        recipes = [corpus.recipe(rid) for rid in corpus.recipe_ids()]
        for r1 in recipes:
            for r2 in recipes:
                _assert_same_as_reference(r1, r2, hierarchies)

    def test_seeded_generated_pairs(self):
        decided = 0
        for seed in range(120):
            rng = Random(seed)
            first = recgen.random_recipe(Random(seed), max_actions=rng.choice([1, 2, 4, 6]))
            # the same seed under other ids: an isomorphic copy when both
            # draws take the same size bound
            copy = recgen.random_recipe(
                Random(seed), max_actions=rng.choice([1, 2, 4, 6]), prefix="h"
            )
            other = recgen.random_recipe(Random(seed + 1000), max_actions=2)
            for r1, r2 in [(first, copy), (first, first), (first, other), (other, first)]:
                _assert_same_as_reference(r1, r2, recgen.SYNTH)
                decided += isomorphic(r1, r2) is not None
        assert decided > 150  # positive answers beyond the 120 self-pairs

    def test_unvalidated_cyclic_graphs_keep_kinds(self):
        # a four-cycle alternating kinds, rotatable by one step onto itself;
        # ``around`` adds a prefix c0 -> a0 -> c1 before the cycle and a tail
        # c2 -> a3 -> c3 behind it
        def loop(c, a, around):
            arcs = {(c[1], a[1]), (a[1], c[2]), (c[2], a[2]), (a[2], c[1])}
            coms, acts = {c[1], c[2]}, {a[1], a[2]}
            if around:
                arcs |= {(c[0], a[0]), (a[0], c[1]), (c[2], a[3]), (a[3], c[3])}
                coms |= {c[0], c[3]}
                acts |= {a[0], a[3]}
            typing = dict.fromkeys(coms, "x") | dict.fromkeys(acts, "y")
            return Recipe(recipe_graph(coms, acts, arcs), typing)

        def names(prefix):
            return {i: f"{prefix}{i}" for i in range(4)}

        for around in (False, True):
            r1 = loop(names("c"), names("a"), around)
            r2 = loop(names("x"), names("y"), around)
            witness = isomorphic(r1, r2)
            assert witness is not None
            assert {witness[c] for c in r1.graph.comestibles} == r2.graph.comestibles
            found = _reference_match_bijection(r1, r2, _Budget(100), lambda n, m: True)
            assert witness.as_dict() == found
            assert equivalent(r1, r2) is not None


def _split_and_rejoin(prefix: str, act: str, types: dict[str, str], hierarchies) -> Recipe:
    """Two inputs into one action with two outputs; each output and one input feed another action.

    Nodes ``{prefix}1`` .. ``{prefix}6`` are comestibles and ``{act}1`` ..
    ``{act}3`` actions. Input 1 feeds action 2 with output 3, and input 2
    feeds action 3 with output 4, so both inputs, both outputs of action 1
    and actions 2 and 3 fall into pairs that no unfolding class separates.
    """
    c = {i: f"{prefix}{i}" for i in range(1, 7)}
    a = {i: f"{act}{i}" for i in range(1, 4)}
    arcs = [
        (c[1], a[1]), (c[2], a[1]), (a[1], c[3]), (a[1], c[4]),
        (c[3], a[2]), (c[1], a[2]), (a[2], c[5]),
        (c[4], a[3]), (c[2], a[3]), (a[3], c[6]),
    ]
    return build_recipe(c.values(), a.values(), arcs, types, hierarchies)


class TestBijectionSearchBacktracks:
    """``more_specific`` pairs whose first candidates pass every label check but lead nowhere.

    Each input and each output of action 1 on the left may map to either of
    its two counterparts on the right, and the hierarchy gives the right
    side the more general types.
    """

    @pytest.fixture()
    def hierarchies(self):
        def doc(kind, root, parents):
            types = [{"id": root}] + [{"id": t, "parents": ps} for t, ps in parents.items()]
            return {"kind": kind, "root": root, "types": types}

        general = ["in-a", "in-b", "mid-a", "mid-b", "out-a", "out-b"]
        comestibles = dict.fromkeys(general, ["food"]) | {
            "z-one": ["in-a", "in-b"], "z-two": ["in-a", "in-b"],
            "m-one": ["mid-a", "mid-b"], "m-two": ["mid-a", "mid-b"],
        }
        actions = dict.fromkeys(["mix", "fry", "boil"], ["act"])
        return Hierarchies(
            action=load_hierarchy(doc("action", "act", actions)),
            comestible=load_hierarchy(doc("comestible", "food", comestibles)),
        )

    def general(self, hierarchies):
        # input d1 feeds b2 with d3: the sorted first choice for c1, and then
        # for c3, is the wrong one
        types = {
            "d1": "in-a", "d2": "in-b", "d3": "mid-a", "d4": "mid-b", "d5": "out-b", "d6": "out-a",
            "b1": "mix", "b2": "boil", "b3": "fry",
        }
        return _split_and_rejoin("d", "b", types, hierarchies)

    def specific(self, hierarchies, third_action: str):
        types = {
            "c1": "z-one", "c2": "z-two", "c3": "m-one", "c4": "m-two", "c5": "out-a",
            "c6": "out-b", "a1": "mix", "a2": "fry", "a3": third_action,
        }
        return _split_and_rejoin("c", "a", types, hierarchies)

    def test_a_search_that_fails_an_arc_check_and_backtracks(self, hierarchies):
        r1, r2 = self.specific(hierarchies, "boil"), self.general(hierarchies)
        _assert_same_as_reference(r1, r2, hierarchies)
        witness = more_specific(r1, r2, hierarchies)
        assert witness is not None
        assert witness.as_dict() == {
            "a1": "b1", "a2": "b3", "a3": "b2", "c1": "d2", "c2": "d1",
            "c3": "d4", "c4": "d3", "c5": "d6", "c6": "d5",
        }
        with pytest.raises(BudgetExceededError):
            more_specific(r1, r2, hierarchies, budget=len(r1.graph.nodes))

    def test_a_search_that_runs_out_of_candidates(self, hierarchies):
        # both fry actions fit only the one fry action on the right
        r1, r2 = self.specific(hierarchies, "fry"), self.general(hierarchies)
        _assert_same_as_reference(r1, r2, hierarchies)
        assert more_specific(r1, r2, hierarchies) is None
        # the class and label checks pass, so the search itself says no
        with pytest.raises(BudgetExceededError):
            more_specific(r1, r2, hierarchies, budget=1)


def _flat_hierarchies(n_comestible_types: int) -> Hierarchies:
    def flat(kind, root, leaves):
        types = [{"id": root, "parents": []}] + [{"id": t, "parents": [root]} for t in leaves]
        return load_hierarchy({"kind": kind, "root": root, "types": types})

    return Hierarchies(
        action=flat("action", "act", ["verb"]),
        comestible=flat("comestible", "com", [f"ing{i}" for i in range(n_comestible_types)]),
    )


def _chain(hierarchies, actions: int):
    coms = [f"c{i:04d}" for i in range(actions + 1)]
    acts = [f"a{i:04d}" for i in range(actions)]
    arcs = [*zip(coms, acts), *zip(acts, coms[1:])]
    typing = {c: f"ing{i}" for i, c in enumerate(coms)} | dict.fromkeys(acts, "verb")
    return build_recipe(coms, acts, arcs, typing, hierarchies)


def _merge_tree(hierarchies, actions: int):
    """``actions + 1`` inputs merged pairwise, first in first merged."""
    coms = [f"c{i:04d}" for i in range(2 * actions + 1)]
    acts = [f"a{i:04d}" for i in range(actions)]
    queue, fresh, arcs = coms[: actions + 1], iter(coms[actions + 1:]), []
    for a in acts:
        first, second, *queue = queue
        out = next(fresh)
        arcs += [(first, a), (second, a), (a, out)]
        queue.append(out)
    typing = {c: f"ing{i}" for i, c in enumerate(coms)} | dict.fromkeys(acts, "verb")
    return build_recipe(coms, acts, arcs, typing, hierarchies)


def _relabelled(recipe, hierarchies, seed: int):
    """The same recipe under fresh ids whose sorted order is a seeded shuffle."""
    g = recipe.graph
    rename = {}
    for prefix, group in (("x", sorted(g.comestibles)), ("y", sorted(g.actions))):
        slots = list(range(len(group)))
        Random(seed).shuffle(slots)
        rename.update({n: f"{prefix}{s:04d}" for n, s in zip(group, slots)})
    return build_recipe(
        [rename[c] for c in g.comestibles],
        [rename[a] for a in g.actions],
        [(rename[s], rename[t]) for s, t in g.arcs],
        {rename[n]: t for n, t in recipe.typing.items()},
        hierarchies,
    )


class TestLargeRecipes:
    H = _flat_hierarchies(1201)

    @pytest.mark.parametrize("shape, actions", [(_chain, 240), (_merge_tree, 160)])
    def test_relabelled_copies_decide_within_a_small_budget(self, shape, actions):
        recipe = shape(self.H, actions)
        copy = _relabelled(recipe, self.H, seed=actions)
        for search in (isomorphic, equivalent):
            witness = search(recipe, copy, budget=5000)
            assert witness is not None
            forward = witness.as_dict()
            assert {(forward[s], forward[t]) for s, t in recipe.graph.arcs} == copy.graph.arcs
            if search is equivalent:
                assert all(recipe.type_of(n) == copy.type_of(m) for n, m in forward.items())

    @pytest.mark.parametrize("search", [isomorphic, equivalent])
    def test_a_600_action_chain_matches_its_copy_without_recursing(self, search):
        chain = _chain(self.H, 600)
        assert search(chain, _relabelled(chain, self.H, seed=600)) is not None

    def test_a_600_action_chain_refines_itself_with_pinned_ends(self):
        chain = _chain(self.H, 600)
        witness = finer_grained(chain, chain, fix_io=True)
        assert witness is not None
        assert all(witness.as_dict()[n] == n for n in ("c0000", "c0600"))

    def test_a_500_action_chain_costs_nothing_against_itself(self):
        chain = _chain(self.H, 500)
        assert structural_cost(chain, chain, self.H) == 0.0


def _reference_finer_grained(r1, r2, budget, fix_io):
    """The original finer-grained search, recursive and without a closed form."""
    if not in_out_aligned(r1, r2):
        return None
    b = _Budget(budget)
    n1, n2 = sorted(r1.graph.nodes), sorted(r2.graph.nodes)
    fixed = {}
    if fix_io:
        fixed = {n: n for n in roles(r1).inputs | roles(r1).outputs}
    mapping = {}

    def ok(n, m):
        for n_prev, m_prev in mapping.items():
            if n_prev in r1.reachable_from(n) and m_prev not in r2.reachable_from(m):
                return False
            if n in r1.reachable_from(n_prev) and m not in r2.reachable_from(m_prev):
                return False
        return True

    def extend(i):
        if i == len(n1):
            return True
        n = order[i]
        for m in [fixed[n]] if n in fixed else n2:
            b.spend()
            if ok(n, m):
                mapping[n] = m
                if extend(i + 1):
                    return True
                del mapping[n]
        return False

    order = sorted(n1, key=lambda n: (n not in fixed, n))
    return OrderMap(tuple(sorted(mapping.items()))) if extend(0) else None


def _outcome(call):
    try:
        return call()
    except BudgetExceededError:
        return "budget"


class TestFinerGrainedMatchesReference:
    @pytest.mark.parametrize("fix_io", [False, True])
    def test_every_corpus_pair_at_several_budgets(self, corpus, fix_io):
        recipes = [corpus.recipe(rid) for rid in corpus.recipe_ids()]
        outcomes = set()
        for r1 in recipes:
            for r2 in recipes:
                for budget in (5, 12, 40, 10**6):
                    fast = _outcome(lambda: finer_grained(r1, r2, budget, fix_io))
                    slow = _outcome(lambda: _reference_finer_grained(r1, r2, budget, fix_io))
                    assert fast == slow
                    outcomes.add(fast if fast in (None, "budget") else "witness")
        assert outcomes == {None, "budget", "witness"}


class TestSearchExpansionsArePinned:
    """Expansions each search spends over every ordered corpus pair, and its witnesses.

    The reference tests above compare answers only; these totals also pin
    where each search charges its budget.
    """

    def test_every_ordered_corpus_pair(self, corpus, hierarchies, monkeypatch):
        class Counting(_Budget):
            spent = 0

            def spend(self, n: int = 1):
                Counting.spent += n
                super().spend(n)

        monkeypatch.setattr(compare, "_Budget", Counting)
        recipes = [corpus.recipe(rid) for rid in corpus.recipe_ids()]
        searches = {
            "isomorphic": isomorphic,
            "equivalent": equivalent,
            "more_specific": lambda r1, r2: more_specific(r1, r2, hierarchies),
            "finer_grained_fix_io": lambda r1, r2: finer_grained(r1, r2, fix_io=True),
        }
        totals = {}
        for name, search in searches.items():
            Counting.spent = 0
            witnesses = sum(search(r1, r2) is not None for r1 in recipes for r2 in recipes)
            totals[name] = (Counting.spent, witnesses)
        assert len(recipes) ** 2 == 729
        assert totals == {
            "isomorphic": (734, 223),
            "equivalent": (136, 29),
            "more_specific": (142, 31),
            "finer_grained_fix_io": (184, 32),
        }


class TestFinerGrainedClosedForm:
    def test_without_fix_io_the_witness_is_the_constant_map(self, corpus):
        fine = corpus.recipe("spaghetti-pasata")
        coarse = corpus.recipe("spaghetti-one-pot")
        least = min(coarse.graph.nodes)
        witness = finer_grained(fine, coarse)
        assert witness.forward == tuple((n, least) for n in sorted(fine.graph.nodes))
        # a recipe built without validation may hold actions only; an empty
        # one, aligned with it, has no node to map them to
        actions_only = Recipe(recipe_graph((), {"a1"}, ()), {"a1": "boil"})
        empty = Recipe(recipe_graph((), (), ()), {})
        assert finer_grained(actions_only, empty) is None

    def test_the_budget_is_one_expansion_per_node(self, corpus):
        fine = corpus.recipe("spaghetti-pasata")
        coarse = corpus.recipe("spaghetti-one-pot")
        size = len(fine.graph.nodes)
        assert finer_grained(fine, coarse, budget=size) is not None
        with pytest.raises(BudgetExceededError):
            finer_grained(fine, coarse, budget=size - 1)
