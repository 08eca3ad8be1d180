from __future__ import annotations

import json
from pathlib import Path

import pytest

from recipegraph.bundle import (
    bundle_doc,
    canonical_json,
    corpus_path,
    export_dot,
    load_corpus,
    parse_bundle,
    read_json,
    recipe_doc,
    serialize_bundle,
)
from recipegraph.core import typing_violations, validate_recipe_graph
from recipegraph.errors import SchemaError, UnknownReferenceError

GOLDEN = Path(__file__).parent / "golden"


def minimal_doc(**overrides):
    doc = {
        "hierarchies": {
            "action": {
                "kind": "action",
                "root": "action",
                "types": [
                    {"id": "action", "parents": []},
                    {"id": "fry", "parents": ["action"]},
                ],
            },
            "comestible": {
                "kind": "comestible",
                "root": "comestible",
                "types": [
                    {"id": "comestible", "parents": []},
                    {"id": "raw onion", "parents": ["comestible"]},
                    {"id": "fried onion", "parents": ["comestible"]},
                ],
            },
        },
        "nodes": {"n1": "comestible", "n2": "comestible", "v1": "action"},
        "recipes": [
            {
                "id": "only",
                "comestibles": ["n1", "n2"],
                "actions": ["v1"],
                "arcs": [["n1", "v1"], ["v1", "n2"]],
                "typing": {"n1": "raw onion", "v1": "fry", "n2": "fried onion"},
            }
        ],
        "acceptability": {"tuples": [], "policy": "exact", "depth_limit": 1},
        "distances": {"pairs": [], "generalization_penalty": 2.0, "step_cost": 1.0},
    }
    doc.update(overrides)
    return doc


class TestRoundTrip:
    def test_shipped_corpus_reserializes_byte_identically(self):
        raw = corpus_path().read_bytes()
        ws = parse_bundle(raw)
        assert serialize_bundle(ws) == raw

    def test_serialize_then_parse_is_stable(self):
        ws = load_corpus()
        once = serialize_bundle(ws)
        twice = serialize_bundle(parse_bundle(once))
        assert once == twice

    def test_non_canonical_input_is_canonicalized(self):
        doc = minimal_doc()
        doc["recipes"][0]["comestibles"] = ["n2", "n1"]
        messy = json.dumps(doc).encode()
        ws = parse_bundle(messy)
        out = serialize_bundle(ws)
        assert out == serialize_bundle(parse_bundle(out))
        assert json.loads(out)["recipes"][0]["comestibles"] == ["n1", "n2"]

    def test_every_corpus_recipe_revalidates_after_a_round_trip(self):
        ws = parse_bundle(serialize_bundle(load_corpus()))
        for rid in ws.recipe_ids():
            raw = ws.raw(rid)
            assert validate_recipe_graph(raw.graph) == []
            assert typing_violations(raw.graph, raw.typing, ws.hierarchies) == []

    def test_recipes_survive_with_identical_semantics(self, corpus):
        ws = parse_bundle(serialize_bundle(corpus))
        for rid in corpus.recipe_ids():
            assert ws.recipe(rid) == corpus.recipe(rid)


class TestSchemaChecks:
    def test_unregistered_node_is_rejected(self):
        doc = minimal_doc(nodes={"n1": "comestible", "v1": "action"})
        with pytest.raises(UnknownReferenceError):
            parse_bundle(json.dumps(doc))

    def test_kind_clash_with_registry_is_rejected(self):
        doc = minimal_doc()
        doc["nodes"]["n2"] = "action"
        with pytest.raises(UnknownReferenceError):
            parse_bundle(json.dumps(doc))

    def test_unknown_type_in_typing_is_rejected(self):
        doc = minimal_doc()
        doc["recipes"][0]["typing"]["n1"] = "levitating onion"
        with pytest.raises(UnknownReferenceError):
            parse_bundle(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: doc["recipes"][0]["typing"].update({"n1": "levitating onion"}),
                "bundle.recipes[0].typing: type 'levitating onion' is not in the comestible hierarchy",
            ),
            (
                lambda doc: doc["recipes"][0]["typing"].update({"ghost": "raw onion"}),
                "bundle.recipes[0].typing: node 'ghost' is not in the recipe",
            ),
            (
                lambda doc: doc["acceptability"]["tuples"].append(["nope", "fry", "fried onion"]),
                "bundle.acceptability.tuples[0]: type 'nope' is not in the comestible hierarchy",
            ),
            (
                lambda doc: doc["acceptability"]["tuples"].append(["raw onion", "nope", "fried onion"]),
                "bundle.acceptability.tuples[0]: type 'nope' is not in the action hierarchy",
            ),
        ],
        ids=["typing-type", "typing-node", "acceptability-comestible", "acceptability-action"],
    )
    def test_an_unknown_reference_is_located(self, edit, message):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(UnknownReferenceError) as err:
            parse_bundle(json.dumps(doc))
        assert str(err.value) == message

    def test_an_escaped_surrogate_pair_loads_and_a_lone_one_in_a_key_does_not(self):
        assert read_json(b'{"\\ud83c\\udf45": ["\\ud83c\\udf45"]}', "doc") == {"\U0001f345": ["\U0001f345"]}
        with pytest.raises(SchemaError) as err:
            read_json(b'{"ok": {"\\udc00": 1}}', "doc")
        assert err.value.path == "doc"

    def test_bytes_that_are_not_utf8_are_a_located_schema_error(self):
        data = json.dumps(minimal_doc(), ensure_ascii=False).replace("n1", "crème")
        with pytest.raises(SchemaError) as err:
            parse_bundle(data.encode("latin-1"))
        assert err.value.path == "bundle"

    def test_non_string_type_in_typing_is_a_located_schema_error(self):
        doc = minimal_doc()
        doc["recipes"][0]["typing"]["n1"] = ["raw onion"]
        with pytest.raises(SchemaError) as err:
            parse_bundle(json.dumps(doc))
        assert err.value.path == "bundle.recipes[0].typing"

    @pytest.mark.parametrize("element", [["raw onion"], {"raw": "onion"}])
    def test_acceptability_type_that_is_not_a_string_is_a_located_schema_error(self, element):
        doc = minimal_doc(acceptability={"tuples": [[element, "fry", "fried onion"]]})
        with pytest.raises(SchemaError) as err:
            parse_bundle(json.dumps(doc))
        assert err.value.path == "bundle.acceptability.tuples[0]"

    def test_a_distance_fault_is_located_in_the_bundle(self):
        doc = minimal_doc(distances={"pairs": [["raw onion", "fried onion", -1]]})
        with pytest.raises(SchemaError) as err:
            parse_bundle(json.dumps(doc))
        assert err.value.path == "bundle.distances.pairs[0]"

    @pytest.mark.parametrize("kind", ["action", "comestible"])
    def test_hierarchy_that_is_not_an_object_is_a_located_schema_error(self, kind):
        doc = minimal_doc()
        doc["hierarchies"][kind] = [{"id": kind, "parents": []}]
        with pytest.raises(SchemaError) as err:
            parse_bundle(json.dumps(doc))
        assert err.value.path == f"bundle.hierarchies.{kind}"

    @pytest.mark.parametrize("aliases", [{"onion": "raw onion"}, "onion", 3])
    def test_aliases_that_are_not_a_list_are_a_located_schema_error(self, aliases):
        doc = minimal_doc()
        doc["hierarchies"]["comestible"]["types"][1]["aliases"] = aliases
        with pytest.raises(SchemaError) as err:
            parse_bundle(json.dumps(doc))
        assert err.value.path == "bundle.hierarchies.comestible.types[1].aliases"

    def test_duplicate_type_id_is_a_located_schema_error(self):
        doc = minimal_doc()
        types = doc["hierarchies"]["comestible"]["types"]
        types[2] = {"id": types[1]["id"], "parents": ["comestible"]}
        with pytest.raises(SchemaError) as err:
            parse_bundle(json.dumps(doc))
        assert err.value.path == "bundle.hierarchies.comestible.types[2].id"
        assert err.value.reason == "duplicate type id 'raw onion'"

    def test_arc_endpoint_outside_recipe_is_rejected(self):
        doc = minimal_doc()
        doc["recipes"][0]["arcs"].append(["n1", "ghost"])
        with pytest.raises(UnknownReferenceError):
            parse_bundle(json.dumps(doc))

    def test_duplicate_recipe_id_is_rejected(self):
        doc = minimal_doc()
        doc["recipes"].append(doc["recipes"][0])
        with pytest.raises(SchemaError) as err:
            parse_bundle(json.dumps(doc))
        assert "duplicate" in str(err.value)

    def test_not_json_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            parse_bundle(b"this is not json")

    def test_empty_recipe_list_is_fine(self):
        doc = minimal_doc(recipes=[], nodes={})
        ws = parse_bundle(json.dumps(doc))
        assert ws.recipe_ids() == []

    def test_structurally_broken_recipes_parse_and_fail_validation_later(self):
        from recipegraph.errors import InvalidRecipeError

        doc = minimal_doc()
        doc["recipes"][0]["arcs"] = [["n1", "v1"]]
        ws = parse_bundle(json.dumps(doc))
        raw = ws.raw("only")
        found = validate_recipe_graph(raw.graph)
        assert {v.condition for v in found} == {"3", "4"}
        with pytest.raises(InvalidRecipeError):
            ws.recipe("only")

    def test_unknown_recipe_id_is_an_unknown_reference(self, corpus):
        with pytest.raises(UnknownReferenceError):
            corpus.raw("no-such-dish")


class TestDotExport:
    def test_atomic_golden_file(self, corpus):
        dot = export_dot(corpus.recipe("boil-atomic"))
        assert dot == (GOLDEN / "boil_atomic.dot").read_text()

    def test_pasta_golden_file(self, corpus):
        dot = export_dot(corpus.recipe("spaghetti-pasata"))
        assert dot == (GOLDEN / "spaghetti_pasata.dot").read_text()

    def test_arc_lines_match_arc_count(self, corpus):
        for rid in corpus.recipe_ids():
            recipe = corpus.recipe(rid)
            dot = export_dot(recipe)
            assert dot.count(" -> ") == len(recipe.graph.arcs)

    def test_node_shapes_by_kind(self, corpus):
        recipe = corpus.recipe("boil-atomic")
        dot = export_dot(recipe)
        assert dot.count("style=rounded") == len(recipe.graph.comestibles)
        assert dot.count("shape=box") == len(recipe.graph.nodes)

    def test_labels_are_escaped(self, hierarchies):
        from recipegraph.core import build_recipe
        from recipegraph.typekb import Hierarchies, load_hierarchy

        weird = load_hierarchy(
            {
                "kind": "action",
                "root": "action",
                "types": [
                    {"id": "action", "parents": []},
                    {"id": 'say "when"', "parents": ["action"]},
                ],
            }
        )
        hs = Hierarchies(action=weird, comestible=hierarchies.comestible)
        recipe = build_recipe(
            {"n1", "n2"},
            {"v1"},
            [("n1", "v1"), ("v1", "n2")],
            {"n1": "raw onion", "v1": 'say "when"', "n2": "fried onion"},
            hs,
        )
        dot = export_dot(recipe)
        assert '\\"when\\"' in dot


class TestDocumentForms:
    def test_recipe_doc_is_sorted_and_round_trips(self, corpus):
        doc = recipe_doc(corpus.raw("spaghetti-pasata"))
        assert doc["comestibles"] == sorted(doc["comestibles"])
        assert doc["arcs"] == sorted(doc["arcs"])
        assert doc["id"] == "spaghetti-pasata"

    def test_bundle_doc_carries_all_sections(self, corpus):
        doc = bundle_doc(corpus)
        assert set(doc) == {"hierarchies", "nodes", "recipes", "acceptability", "distances"}
        assert canonical_json(doc).endswith(b"\n")
