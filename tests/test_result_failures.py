"""Failures of the assembled result of composition and structural substitution.

Both operators re-check their assembled graph and typing as a recipe and
report what fails as condition "result". These tests pin the complete
violation values, one structural failure and one typing failure per operator.
"""

from __future__ import annotations

from recgen import SYNTH
from recipegraph.compose import CompositionFailure, compose
from recipegraph.core import Violation, build_recipe
from recipegraph.rewrite import RewriteFailure, structural_substitute


def _synth(coms, acts, arcs, typing, hierarchies=SYNTH):
    return build_recipe(coms, acts, arcs, typing, hierarchies)


class TestComposeResult:
    def test_double_producer_is_a_graph_failure(self):
        # x3 is an output of the first recipe and an intermediate of the
        # second, so the union gives it two producers
        first = _synth(
            {"x1", "x2", "x3"},
            {"y1"},
            [("x1", "y1"), ("y1", "x2"), ("y1", "x3")],
            {"x1": "ing00", "y1": "verb00", "x2": "ing01", "x3": "ing02"},
        )
        second = _synth(
            {"x2", "x3", "x4"},
            {"y2", "y3"},
            [("x2", "y2"), ("y2", "x3"), ("x3", "y3"), ("y3", "x4")],
            {"x2": "ing01", "y2": "verb01", "x3": "ing02", "y3": "verb02", "x4": "ing03"},
        )
        result = compose(first, second, SYNTH)
        assert isinstance(result, CompositionFailure)
        assert result.violations == (
            Violation("result", "comestibles with more than one incoming arc", nodes=("x3",)),
        )

    def test_comparable_loose_ends_are_a_typing_failure(self):
        # x5 (an output of the first that is not glued) and x6 (an input of
        # the second) lie outside condition 6, yet their types are comparable
        first = _synth(
            {"x1", "x2", "x5"},
            {"y1"},
            [("x1", "y1"), ("y1", "x2"), ("y1", "x5")],
            {"x1": "ing00", "y1": "verb00", "x2": "ing01", "x5": "ing05"},
        )
        second = _synth(
            {"x2", "x6", "x3"},
            {"y2"},
            [("x2", "y2"), ("x6", "y2"), ("y2", "x3")],
            {"x2": "ing01", "x6": "ing05 fine", "y2": "verb01", "x3": "ing03"},
        )
        result = compose(first, second, SYNTH)
        assert isinstance(result, CompositionFailure)
        assert result.violations == (
            Violation(
                "result",
                "distinct comestibles with comparable types",
                nodes=("x5", "x6"),
                types=("ing05", "ing05 fine"),
            ),
        )


class TestSubstituteResult:
    def test_stranded_arc_is_a_graph_failure(self, hierarchies):
        # x1 feeds both actions; removing y1's section strands the (x1, y2) arc
        host = build_recipe(
            {"x1", "x2", "x3"},
            {"y1", "y2"},
            [("x1", "y1"), ("y1", "x2"), ("x1", "y2"), ("y2", "x3")],
            {"x1": "tomato", "y1": "chop", "x2": "chopped tomato", "y2": "mix", "x3": "salad"},
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
        assert result.violations == (
            Violation("result", "arcs must join a comestible and an action", arcs=(("x1", "y2"),)),
            Violation("result", "graph is not connected", nodes=("x3", "y2")),
        )

    def test_foreign_types_are_a_typing_failure(self, corpus, hierarchies):
        # a whole-recipe swap checks no kept comestible, so a replacement typed
        # in other hierarchies only fails once the result is typed
        host = corpus.recipe("fry-onion")
        replacement = _synth(
            {"x1", "x2"},
            {"y1"},
            [("x1", "y1"), ("y1", "x2")],
            {"x1": "ing00", "y1": "verb00", "x2": "ing01"},
        )
        result = structural_substitute(host, host, replacement, hierarchies)
        assert isinstance(result, RewriteFailure)
        assert result.violations == tuple(
            Violation("result", "type not found in any hierarchy", nodes=(n,), types=(t,))
            for n, t in (("x1", "ing00"), ("x2", "ing01"), ("y1", "verb00"))
        )
