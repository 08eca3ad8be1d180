from __future__ import annotations

import json

import pytest

from recgen import fry_chain_doc
from recipegraph.bundle import load_corpus, serialize_bundle
from recipegraph.cli import build_parser, run

REPORT_KEYS = {"command", "status", "data", "diagnostics"}


@pytest.fixture()
def bundle_path(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_bytes(serialize_bundle(load_corpus()))
    return str(path)


def run_json(capsys, *argv):
    code = run([*argv, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert set(report) == REPORT_KEYS
    return code, report


def run_both(capsys, *argv):
    """Exit code, human stdout and JSON report of one request."""
    code = run(list(argv))
    human = capsys.readouterr().out
    json_code, report = run_json(capsys, *argv)
    assert json_code == code
    return code, human, report


def bundle_with(tmp_path, *recipes) -> str:
    """The corpus bundle plus extra recipe documents, written to a file."""
    doc = json.loads(serialize_bundle(load_corpus()))
    doc["recipes"].extend(recipes)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    return str(path)


# boil-atomic with the water typed ``pasta``, comparable to the spaghetti in c1.
TYPING_ONLY = {
    "id": "typing-only",
    "comestibles": ["c1", "c2", "c3"],
    "actions": ["a1"],
    "arcs": [["a1", "c3"], ["c1", "a1"], ["c2", "a1"]],
    "typing": {"a1": "boil pasta for 10 min", "c1": "spaghetti", "c2": "pasta", "c3": "cooked spaghetti"},
}


def under_hash_seeds(*argv) -> set[tuple[int, bytes]]:
    """Exit codes and stdout of ``python -m recipegraph.cli`` under PYTHONHASHSEED 0 and 1."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import recipegraph

    src = str(Path(recipegraph.__file__).resolve().parents[1])
    outcomes = set()
    for seed in ("0", "1"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-m", "recipegraph.cli", *argv],
            capture_output=True, env=env, timeout=60,
        )
        outcomes.add((done.returncode, done.stdout))
    return outcomes


class TestValidate:
    def test_corpus_is_clean(self, capsys):
        code, report = run_json(capsys, "validate")
        assert code == 0
        assert report["status"] == "ok"
        assert report["data"]["invalid"] == {}

    def test_empty_graph_recipe_is_an_input_error(self, capsys, tmp_path):
        ws = load_corpus()
        doc = json.loads(serialize_bundle(ws))
        doc["recipes"].append(
            {"id": "broken", "comestibles": ["c1"], "actions": [], "arcs": [], "typing": {"c1": "spaghetti"}}
        )
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "validate", "-b", str(path), "broken")
        assert code == 2
        assert report["status"] == "error"
        conditions = [v["condition"] for v in report["data"]["invalid"]["broken"]]
        assert "1" in conditions

    def test_non_string_type_in_a_bundle_is_an_input_error(self, capsys, tmp_path):
        doc = json.loads(serialize_bundle(load_corpus()))
        doc["recipes"][0]["typing"]["c1"] = ["x"]
        path = tmp_path / "bad-typing.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "validate", "-b", str(path))
        assert code == 2
        assert report["status"] == "error"
        assert report["diagnostics"][0].startswith("bundle.recipes[0].typing: ")

    def test_a_hierarchy_fault_names_its_hierarchy_in_both_formats(self, capsys, tmp_path):
        messages = []
        for kind in ("action", "comestible"):
            doc = json.loads(serialize_bundle(load_corpus()))
            doc["hierarchies"][kind]["types"].append({"id": "x", "parents": ["y"]})
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            code, human, report = run_both(capsys, "validate", "-b", str(path))
            message = f"bundle.hierarchies.{kind}: edge 'x' -> 'y' points outside the hierarchy"
            assert code == 2
            assert human == message + "\n"
            assert report["diagnostics"] == [message]
            messages.append(message)
        assert messages[0] != messages[1]

    def test_missing_bundle_file_is_an_input_error(self, capsys):
        code, report = run_json(capsys, "validate", "-b", "/nonexistent/bundle.json")
        assert code == 2

    def test_a_lone_surrogate_recipe_id_is_an_input_error_in_both_formats(self, capsys, tmp_path):
        doc = json.loads(serialize_bundle(load_corpus()))
        doc["recipes"][0]["id"] = "\ud800soup"
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, human, report = run_both(capsys, "validate", "--bundle", str(path))
        assert code == 2
        assert human.startswith("bundle: not valid UTF-8 JSON")
        assert report["diagnostics"] == [human.rstrip("\n")]

    def test_a_typing_violation_alone_is_reported(self, capsys, tmp_path):
        path = bundle_with(tmp_path, TYPING_ONLY)
        code, human, report = run_both(capsys, "validate", "-b", path, "typing-only", "boil-atomic")
        message = (
            "typing-only: condition comparable: distinct comestibles with comparable types"
            " | nodes c1, c2 | types spaghetti, pasta"
        )
        assert code == 2
        assert human == f"typing-only: INVALID\nboil-atomic: ok\n{message}\n"
        assert report["status"] == "error"
        assert report["diagnostics"] == [message]
        assert report["data"] == {
            "checked": ["typing-only", "boil-atomic"],
            "invalid": {
                "typing-only": [
                    {
                        "condition": "comparable",
                        "message": "distinct comestibles with comparable types",
                        "nodes": ["c1", "c2"],
                        "arcs": [],
                        "types": ["spaghetti", "pasta"],
                    }
                ]
            },
        }

    def test_graph_violations_are_reported_before_typing_is_checked(self, capsys, tmp_path):
        broken = {
            **TYPING_ONLY,
            "id": "both-broken",
            "comestibles": ["c1", "c2", "c3", "c4"],
            "typing": {**TYPING_ONLY["typing"], "c4": "pasta"},
        }
        path = bundle_with(tmp_path, broken)
        code, human, report = run_both(capsys, "validate", "-b", path, "both-broken")
        message = "both-broken: condition 3: graph is not connected | nodes c4"
        assert code == 2
        assert human == f"both-broken: INVALID\n{message}\n"
        assert report["diagnostics"] == [message]
        assert report["data"] == {
            "checked": ["both-broken"],
            "invalid": {
                "both-broken": [
                    {
                        "condition": "3",
                        "message": "graph is not connected",
                        "nodes": ["c4"],
                        "arcs": [],
                        "types": [],
                    }
                ]
            },
        }


class TestCompare:
    def test_finer_comparison_with_witness(self, capsys, bundle_path):
        code, report = run_json(
            capsys,
            "compare",
            "-b",
            bundle_path,
            "--relation",
            "finer",
            "spaghetti-pasata",
            "spaghetti-one-pot",
        )
        assert code == 0
        assert report["data"]["holds"] is True
        assert set(report["data"]["witness"]) == {
            "a1", "a2", "a3", "a4", "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8",
        }

    def test_negative_answer_exits_one(self, capsys, bundle_path):
        code, report = run_json(
            capsys, "compare", "-b", bundle_path, "--relation", "equiv", "fry-onion", "fry-onion-timed"
        )
        assert code == 1
        assert report["status"] == "negative"
        assert report["data"]["holds"] is False

    def test_specificity_direction(self, bundle_path):
        assert (
            run(["compare", "-b", bundle_path, "--relation", "specific", "fry-onion-timed", "fry-onion"])
            == 0
        )
        assert (
            run(["compare", "-b", bundle_path, "--relation", "specific", "fry-onion", "fry-onion-timed"])
            == 1
        )

    def test_unknown_recipe_is_an_input_error(self, bundle_path):
        assert run(["compare", "-b", bundle_path, "--relation", "iso", "fry-onion", "nope"]) == 2

    @pytest.mark.parametrize(
        "relation, first, second, code, witness",
        [
            ("iso", "fry-onion", "fry-onion-alt", 0, {"a1": "a8", "c1": "c7", "c2": "c4"}),
            ("sub", "fry-onion", "fry-onion-alt", 1, None),
            ("equiv", "fry-onion", "fry-onion-alt", 0, {"a1": "a8", "c1": "c7", "c2": "c4"}),
            ("io", "fry-onion", "fry-onion-alt", 1, None),
            ("finer", "fry-onion", "fry-onion-alt", 1, None),
            ("specific", "fry-onion", "fry-onion-alt", 0, {"a1": "a8", "c1": "c7", "c2": "c4"}),
            ("sub", "hummus-canned-shortcut", "hummus-canned", 0, None),
            ("io", "hummus", "hummus-slow", 0, None),
        ],
    )
    def test_each_relation_reports_its_answer_and_witness(
        self, capsys, bundle_path, relation, first, second, code, witness
    ):
        got_code, human, report = run_both(
            capsys, "compare", "-b", bundle_path, "--relation", relation, first, second
        )
        holds = code == 0
        lines = [f"{relation}({first}, {second}) = {str(holds).lower()}"]
        data = {"relation": relation, "holds": holds}
        if witness is not None:
            lines += [f"  {n} -> {m}" for n, m in witness.items()]
            data["witness"] = witness
        assert got_code == code
        assert human == "".join(line + "\n" for line in lines)
        assert report["data"] == data
        assert report["diagnostics"] == []


class TestCompose:
    def test_failed_composition_names_the_condition(self, capsys, bundle_path):
        code, report = run_json(capsys, "compose", "-b", bundle_path, "chop-tomato", "tomato-loop")
        assert code == 1
        assert [v["condition"] for v in report["data"]["violations"]] == ["4"]
        assert "condition 4" in report["diagnostics"][0]

    def test_successful_composition_emits_the_recipe(self, capsys, bundle_path):
        code, report = run_json(capsys, "compose", "-b", bundle_path, "boil-chain", "drain-chain")
        assert code == 0
        assert report["data"]["recipe"]["comestibles"] == ["c1", "c2", "c3"]

    def test_closure_of_the_peas_family(self, capsys, bundle_path):
        code, report = run_json(
            capsys, "closure", "-b", bundle_path, "peas-freeze", "peas-thaw", "peas-refreeze"
        )
        assert code == 0
        assert report["data"]["size"] == 6
        assert report["data"]["truncated"] is False

    def test_failed_composition_report(self, capsys, bundle_path):
        code, human, report = run_both(capsys, "compose", "-b", bundle_path, "chop-tomato", "tomato-loop")
        message = "condition 4 violated: outputs of the second recipe feed inputs of the first"
        assert code == 1
        assert human == message + "\n"
        assert report["diagnostics"] == [message]
        assert report["data"] == {
            "composed": False,
            "violations": [
                {
                    "condition": "4",
                    "message": "outputs of the second recipe feed inputs of the first",
                    "nodes": ["c1"],
                    "arcs": [],
                    "types": [],
                }
            ],
        }

    def test_truncated_closure_does_not_depend_on_the_hash_seed(self, bundle_path):
        outcomes = under_hash_seeds(
            "closure", "-b", bundle_path,
            "peas-freeze", "peas-thaw", "peas-refreeze", "--max-recipes", "4", "--format", "json",
        )
        assert len(outcomes) == 1 and outcomes.pop()[0] == 3

    @pytest.mark.parametrize("option", ["--max-recipes", "--max-nodes"])
    def test_negative_closure_limit_is_an_input_error(self, capsys, bundle_path, option):
        code, report = run_json(
            capsys, "closure", "-b", bundle_path, "peas-freeze", "peas-thaw", option, "-1"
        )
        assert code == 2
        assert report["status"] == "error"
        assert report["diagnostics"] == [f"{option} must be a non-negative integer, got -1"]

    def test_closure_limit_exits_three(self, capsys, bundle_path):
        code, report = run_json(
            capsys,
            "closure",
            "-b",
            bundle_path,
            "peas-freeze",
            "peas-thaw",
            "peas-refreeze",
            "--max-recipes",
            "4",
        )
        assert code == 3
        assert report["status"] == "budget"
        assert report["data"]["truncated"] is True

    def test_decompose_counts_actions(self, capsys, bundle_path):
        code, report = run_json(capsys, "decompose", "-b", bundle_path, "spaghetti-pasata")
        assert code == 0
        assert report["data"]["count"] == 4


class TestAcceptAndPlan:
    def test_acceptable_recipe(self, bundle_path):
        assert run(["accept", "-b", bundle_path, "spaghetti-pasata"]) == 0

    def test_unacceptable_recipe_lists_triples(self, capsys, bundle_path):
        code, report = run_json(capsys, "accept", "-b", bundle_path, "fry-onion")
        assert code == 1
        assert report["data"]["violations"]

    def test_accept_file_with_a_non_string_type_is_an_input_error(self, capsys, tmp_path):
        accept = tmp_path / "accept.json"
        accept.write_text(json.dumps([[["x"], "fry", "fried onion"]]))
        code, report = run_json(capsys, "accept", "fry-onion", "--accept-file", str(accept))
        assert code == 2
        assert report["diagnostics"][0].startswith(f"{accept}.tuples[0]: ")

    def test_an_unknown_type_in_an_accept_file_is_located_in_both_formats(
        self, capsys, tmp_path
    ):
        accept = tmp_path / "acc.json"
        accept.write_text(json.dumps([["nope", "fry", "fried onion"]]))
        code, human, report = run_both(capsys, "accept", "fry-onion", "--accept-file", str(accept))
        message = f"{accept}.tuples[0]: type 'nope' is not in the comestible hierarchy"
        assert code == 2
        assert human == message + "\n"
        assert report["diagnostics"] == [message]

    def test_an_unknown_type_in_the_bundle_acceptability_is_located_in_both_formats(
        self, capsys, tmp_path
    ):
        doc = json.loads(serialize_bundle(load_corpus()))
        doc["acceptability"]["tuples"][0][0] = "nope"
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, human, report = run_both(capsys, "accept", "-b", str(path), "fry-onion")
        message = "bundle.acceptability.tuples[0]: type 'nope' is not in the comestible hierarchy"
        assert code == 2
        assert human == message + "\n"
        assert report["diagnostics"] == [message]

    def test_plan_missing_an_unknown_type_is_an_input_error_in_both_formats(self, capsys):
        code, human, report = run_both(capsys, "plan", "spaghetti-pasata", "--missing", "nope")
        assert code == 2
        assert human == "unknown type 'nope'\n"
        assert report["status"] == "error"
        assert report["diagnostics"] == ["unknown type 'nope'"]

    def test_substitute_rewrites_typing(self, capsys, bundle_path):
        code, report = run_json(
            capsys, "substitute", "-b", bundle_path, "carrot-soup", "--bind", "c1=raw onion"
        )
        assert code == 0
        assert report["data"]["recipe"]["typing"]["c1"] == "raw onion"

    def test_substitute_on_an_unknown_node_is_an_input_error(self, capsys, bundle_path):
        code, report = run_json(
            capsys, "substitute", "-b", bundle_path, "carrot-soup", "--bind", "zz=raw onion"
        )
        assert code == 2
        assert report["diagnostics"] == ["unknown node 'zz'"]

    def test_substitute_conflicting_binding_is_an_input_error(self, bundle_path):
        assert (
            run(["substitute", "-b", bundle_path, "carrot-soup", "--bind", "c2=raw carrot"]) == 2
        )

    @pytest.mark.parametrize(
        "binds, message",
        [
            (["c1"], "--bind expects node=type, got 'c1'"),
            (["c1=raw onion", "c1=raw carrot"], "node 'c1' bound twice"),
        ],
    )
    def test_a_malformed_or_repeated_binding_is_an_input_error(self, capsys, binds, message):
        argv = ["substitute", "carrot-soup"]
        for bind in binds:
            argv += ["--bind", bind]
        code, human, report = run_both(capsys, *argv)
        assert code == 2
        assert human == message + "\n"
        assert report["status"] == "error"
        assert report["data"] == {}
        assert report["diagnostics"] == [message]

    def test_plan_picks_the_cheapest_pasta(self, capsys, bundle_path):
        code, report = run_json(
            capsys, "plan", "-b", bundle_path, "spaghetti-pasata", "--missing", "spaghetti"
        )
        assert code == 0
        assert report["data"]["primary"] == {"c1": "tagliatelle"}
        assert report["data"]["secondary"] == {}
        assert report["data"]["cost"] == pytest.approx(0.1)

    def test_plans_in_one_process_do_not_share_missing_values(self, capsys, bundle_path):
        # the parser is built once per process; a repeatable option's list
        # must start empty on every run
        assert build_parser() is build_parser()
        code, report = run_json(
            capsys, "plan", "-b", bundle_path, "spaghetti-pasata", "--missing", "tagliatelle"
        )
        assert code == 0
        assert report["data"]["primary"] == {}
        code, report = run_json(
            capsys, "plan", "-b", bundle_path, "spaghetti-pasata", "--missing", "spaghetti",
            "--budget", "1000",
        )
        assert code == 0
        assert report["data"]["primary"] == {"c1": "tagliatelle"}

    def test_plan_with_a_secondary_set_in_both_formats(self, capsys):
        code, human, report = run_both(capsys, "plan", "fresh-spaghetti", "--missing", "c1")
        assert code == 0
        assert human == (
            "cost: 0.25\n"
            "primary:   c1 -> dried spaghetti\n"
            "secondary: a1 -> boil spaghetti for 11 minutes\n"
        )
        assert report["data"] == {
            "found": True,
            "primary": {"c1": "dried spaghetti"},
            "secondary": {"a1": "boil spaghetti for 11 minutes"},
            "cost": 0.25,
        }

    def test_plan_without_candidates_is_negative(self, capsys, bundle_path, tmp_path):
        accept = tmp_path / "accept.json"
        accept.write_text(
            json.dumps(
                {"tuples": [["fresh spaghetti", "boil spaghetti for 3 minutes", "cooked spaghetti"]]}
            )
        )
        code, report = run_json(
            capsys,
            "plan",
            "-b",
            bundle_path,
            "fresh-spaghetti",
            "--missing",
            "c1",
            "--accept-file",
            str(accept),
        )
        assert code == 1
        assert report["data"] == {"found": False}

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "true"])
    def test_plan_with_a_non_finite_distance_is_an_input_error(
        self, capsys, bundle_path, tmp_path, value
    ):
        distances = tmp_path / "distances.json"
        distances.write_text(f'[["spaghetti", "tagliatelle", {value}]]')
        code, report = run_json(
            capsys, "plan", "-b", bundle_path, "spaghetti-pasata", "--missing", "spaghetti",
            "--distances-file", str(distances),
        )
        assert code == 2
        assert report["diagnostics"][0].startswith(f"{distances}.pairs[0]: ")

    def test_budget_exhaustion_exits_three(self, capsys, bundle_path):
        code, report = run_json(
            capsys,
            "plan",
            "-b",
            bundle_path,
            "vegetable-soup",
            "--missing",
            "barley",
            "--budget",
            "5",
        )
        assert code == 3
        assert report["status"] == "budget"

    def test_negative_budget_is_an_input_error(self, capsys, bundle_path):
        code, report = run_json(
            capsys, "plan", "-b", bundle_path, "vegetable-soup", "--missing", "barley",
            "--budget", "-5",
        )
        assert code == 2
        assert report["status"] == "error"
        assert "--budget" in report["diagnostics"][0]

    @pytest.mark.parametrize(
        "recipe, missing, code",
        [("fry-onion", "c1", 0), ("carrot-soup", "c1", 3), ("spaghetti-pasata", "c1", 0)],
        ids=["pair", "budget-out", "no-conflict"],
    )
    def test_plan_does_not_depend_on_the_hash_seed(self, recipe, missing, code):
        outcomes = under_hash_seeds(
            "plan", recipe, "--missing", missing, "--budget", "10000", "--format", "json"
        )
        assert len(outcomes) == 1 and outcomes.pop()[0] == code


class TestLongChains:
    def test_plan_on_an_1100_action_chain_exits_with_a_budget_out(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(fry_chain_doc(1100)))
        code, report = run_json(
            capsys, "plan", "-b", str(path), "long", "--missing", "fry", "--budget", "5000"
        )
        assert code == 3
        assert report["status"] == "budget"


class TestRewriteCommands:
    def test_rewrite_with_document_files(self, capsys, bundle_path, tmp_path, corpus, induced):
        from recipegraph.bundle import recipe_doc

        host = corpus.recipe("hummus")
        part = induced(host, {"c1", "a1", "c2", "a2", "c3"})
        part_path = tmp_path / "part.json"
        part_path.write_text(json.dumps(recipe_doc(part)))
        code, report = run_json(
            capsys,
            "rewrite",
            "-b",
            bundle_path,
            "hummus",
            "--remove",
            str(part_path),
            "--insert",
            "hummus-canned-shortcut",
        )
        assert code == 0
        assert report["data"]["recipe"]["actions"] == ["a3", "a9"]

    def test_rewrite_failure_is_negative(self, capsys, bundle_path):
        code, report = run_json(
            capsys,
            "rewrite",
            "-b",
            bundle_path,
            "hummus",
            "--remove",
            "fry-onion",
            "--insert",
            "fry-onion-alt",
        )
        assert code == 1
        assert report["data"]["violations"]

    def test_rewrite_failure_report(self, capsys, bundle_path):
        code, human, report = run_both(
            capsys, "rewrite", "-b", bundle_path, "hummus", "--remove", "fry-onion", "--insert", "fry-onion-alt"
        )
        messages = [
            "condition iii violated: the removed part is not an untrimmed subrecipe of the host",
            "condition iv violated: replacement reuses node ids of the kept part",
        ]
        assert code == 1
        assert human == "".join(m + "\n" for m in messages)
        assert report["diagnostics"] == messages
        assert report["data"] == {
            "applied": False,
            "violations": [
                {
                    "condition": "iii",
                    "message": "the removed part is not an untrimmed subrecipe of the host",
                    "nodes": [],
                    "arcs": [],
                    "types": [],
                },
                {
                    "condition": "iv",
                    "message": "replacement reuses node ids of the kept part",
                    "nodes": ["c4"],
                    "arcs": [],
                    "types": [],
                },
            ],
        }

    def test_rewrite_with_cost_report(self, capsys, bundle_path, tmp_path, corpus, induced):
        from recipegraph.bundle import canonical_json, recipe_doc

        part = induced(corpus.recipe("hummus"), {"c2", "a2", "c3"})
        part_path = tmp_path / "cook.json"
        part_path.write_text(json.dumps(recipe_doc(part)))
        code, human, report = run_both(
            capsys, "rewrite", "-b", bundle_path, "hummus",
            "--remove", str(part_path), "--insert", "hummus-pressure-cook", "--cost",
        )
        expected = recipe_doc(corpus.recipe("hummus-slow"))
        assert code == 0
        assert human == canonical_json(expected).decode("utf-8")
        assert report["diagnostics"] == []
        assert report["data"] == {
            "applied": True,
            "cost": {"normative": False, "value": 6.166666666666667},
            "recipe": expected,
        }

    def test_rewrite_cost_honours_the_budget(self, capsys, tmp_path, corpus, induced):
        from recipegraph.bundle import recipe_doc

        part = induced(corpus.recipe("hummus"), {"c2", "a2", "c3"})
        part_path = tmp_path / "cook.json"
        part_path.write_text(json.dumps(recipe_doc(part)))
        code, report = run_json(
            capsys, "rewrite", "hummus", "--remove", str(part_path),
            "--insert", "hummus-pressure-cook", "--cost", "--budget", "1",
        )
        assert code == 3
        assert report["status"] == "budget"
        assert report["data"] == {}
        assert report["diagnostics"] == ["search budget of 1 expansions exceeded"]

    def test_rewrite_seq_reads_the_accept_file_before_applying(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"primary": []}))
        missing = tmp_path / "nope.json"
        code, report = run_json(
            capsys, "rewrite-seq", "spaghetti-pasata", str(plan), "--accept-file", str(missing)
        )
        assert code == 2
        assert report["status"] == "error"
        assert report["data"] == {}
        (diagnostic,) = report["diagnostics"]
        assert str(missing) in diagnostic

    def test_rewrite_seq_plan_file(self, capsys, bundle_path, tmp_path, corpus, induced):
        from recipegraph.bundle import recipe_doc
        from recipegraph.rewrite import RewriteStep, apply_sequence

        host = corpus.recipe("spaghetti-pasata")
        prim_remove = induced(host, {"c3", "c4", "a2", "c5"})
        intermediate = apply_sequence(
            host,
            [RewriteStep(prim_remove, corpus.recipe("bolognese-sauce-prep"))],
            corpus.hierarchies,
        )
        sec_remove = induced(intermediate, {"c5", "c7", "a4", "c8"})
        paths = {}
        for name, recipe in [("prim.json", prim_remove), ("sec.json", sec_remove)]:
            p = tmp_path / name
            p.write_text(json.dumps(recipe_doc(recipe)))
            paths[name] = str(p)
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "primary": [
                        {"remove": paths["prim.json"], "insert": "bolognese-sauce-prep"}
                    ],
                    "secondary": [
                        {"remove": paths["sec.json"], "insert": "bolognese-assembly"}
                    ],
                    "check_acceptability": True,
                }
            )
        )
        code, report = run_json(
            capsys, "rewrite-seq", "-b", bundle_path, "spaghetti-pasata", str(plan)
        )
        assert code == 0
        assert report["data"]["acceptable"] is True
        assert report["data"]["recipe"]["typing"]["c8"] == "spaghetti bolognese"

    def test_rewrite_seq_with_a_failing_step_is_negative(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"primary": [{"remove": "fry-onion", "insert": "fry-onion-alt"}]}))
        code, human, report = run_both(capsys, "rewrite-seq", "hummus", str(plan))
        message = (
            "structural substitution failed at step 0: condition iii: the removed part is not"
            " an untrimmed subrecipe of the host; condition iv: replacement reuses node ids"
            " of the kept part | nodes c4"
        )
        assert code == 1
        assert human == message + "\n"
        assert report["status"] == "negative"
        assert report["diagnostics"] == [message]
        assert report["data"]["applied"] is False
        assert report["data"]["failed_step"] == 0
        assert [v["condition"] for v in report["data"]["violations"]] == ["iii", "iv"]

    def test_rewrite_seq_with_an_unacceptable_result_is_negative(self, capsys, tmp_path, corpus):
        from recipegraph.bundle import recipe_doc

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"primary": [], "check_acceptability": True}))
        code, human, report = run_both(capsys, "rewrite-seq", "fry-onion", str(plan))
        message = "(c1, a1, c2) typed (raw onion, fry, fried onion) is not licensed"
        assert code == 1
        assert human == message + "\n"
        assert report["status"] == "negative"
        assert report["diagnostics"] == [message]
        assert report["data"] == {
            "applied": True,
            "acceptable": False,
            "recipe": recipe_doc(corpus.recipe("fry-onion")),
        }

    def test_rewrite_seq_check_acceptability_must_be_true_or_false(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        for value, want in [(False, 0), (True, 1), ("false", 2), (0, 2), (None, 2)]:
            plan.write_text(json.dumps({"primary": [], "check_acceptability": value}))
            code, human, report = run_both(capsys, "rewrite-seq", "fry-onion", str(plan))
            assert code == want, value
            if want == 2:
                message = f"{plan}.check_acceptability: expected true or false"
                assert human == message + "\n"
                assert report["status"] == "error"
                assert report["diagnostics"] == [message]
                assert report["data"] == {}
            else:
                assert report["data"]["applied"] is True
                assert ("acceptable" in report["data"]) == value

    def test_recipe_document_that_is_a_list_is_an_input_error(self, capsys, tmp_path):
        doc = tmp_path / "list.json"
        doc.write_text("[1, 2]")
        code, report = run_json(
            capsys, "rewrite", "hummus", "--remove", str(doc), "--insert", "hummus"
        )
        assert code == 2
        assert report["diagnostics"] == [f"{doc}: expected a recipe object"]

    def test_plan_step_without_insert_is_an_input_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"primary": [{"remove": "hummus"}]}))
        code, report = run_json(capsys, "rewrite-seq", "hummus", str(plan))
        assert code == 2
        assert report["diagnostics"][0].startswith(f"{plan}.primary[0]: ")

    def test_plan_that_is_a_list_is_an_input_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("[]")
        code, report = run_json(capsys, "rewrite-seq", "hummus", str(plan))
        assert code == 2
        assert report["diagnostics"] == [f"{plan}: expected a plan object"]


def _renamed(obj: dict, old: str, new: str) -> None:
    """Rename the key ``old`` of ``obj`` in place, keeping its place in document order."""
    items = [(new if k == old else k, v) for k, v in obj.items()]
    obj.clear()
    obj.update(items)


# (bundle edit, located message) per kind of object in a bundle
BUNDLE_KEY_FAULTS = {
    "bundle": (lambda d: _renamed(d, "distances", "distance"), "bundle: unknown key 'distance'"),
    "hierarchies": (
        lambda d: d["hierarchies"].update(actions={}),
        "bundle.hierarchies: unknown key 'actions'",
    ),
    "hierarchy": (
        lambda d: _renamed(d["hierarchies"]["comestible"], "root", "roots"),
        "bundle.hierarchies.comestible: unknown key 'roots'",
    ),
    "type-entry": (
        lambda d: _renamed(d["hierarchies"]["action"]["types"][1], "parents", "parent"),
        "bundle.hierarchies.action.types[1]: unknown key 'parent'",
    ),
    "recipe": (
        lambda d: _renamed(d["recipes"][0], "arcs", "arc"),
        "bundle.recipes[0]: unknown key 'arc'",
    ),
    "recipe-id": (
        lambda d: _renamed(d["recipes"][0], "id", "ID"),
        "bundle.recipes[0]: unknown key 'ID'",
    ),
    "acceptability": (
        lambda d: d["acceptability"].update(polcy="exact"),
        "bundle.acceptability: unknown key 'polcy'",
    ),
    "distances": (
        lambda d: d["distances"].update(step=1.0),
        "bundle.distances: unknown key 'step'",
    ),
}

# (argv with {file} for the side file, side document, message after the file name)
FILE_KEY_FAULTS = {
    "recipe": (
        ["roles", "{file}"],
        {"comestibles": ["c1"], "actions": [], "arc": [], "typing": {}},
        ": unknown key 'arc'",
    ),
    "accept-file": (
        ["accept", "fry-onion", "--accept-file", "{file}"],
        {"tuples": [], "polcy": "exact"},
        ": unknown key 'polcy'",
    ),
    "accept-file-first-of-two": (
        ["accept", "fry-onion", "--accept-file", "{file}"],
        {"zz": 1, "tuples": [], "aa": 2},
        ": unknown key 'zz'",
    ),
    "distances-file": (
        ["plan", "spaghetti-pasata", "--missing", "spaghetti", "--distances-file", "{file}"],
        {"tuples": []},
        ": unknown key 'tuples'",
    ),
    "plan": (
        ["rewrite-seq", "fry-onion", "{file}"],
        {"primary": [], "check_acceptibility": True},
        ": unknown key 'check_acceptibility'",
    ),
    "plan-step": (
        ["rewrite-seq", "hummus", "{file}"],
        {"primary": [{"remove": "fry-onion", "insrt": "fry-onion-alt"}]},
        ".primary[0]: unknown key 'insrt'",
    ),
}


class TestUnknownKeys:
    @pytest.mark.parametrize("kind", list(BUNDLE_KEY_FAULTS))
    def test_an_unknown_key_in_a_bundle_is_located(self, capsys, tmp_path, kind):
        edit, message = BUNDLE_KEY_FAULTS[kind]
        doc = json.loads(serialize_bundle(load_corpus()))
        edit(doc)
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        code, human, report = run_both(capsys, "validate", "-b", str(path))
        assert code == 2
        assert human == message + "\n"
        assert report["status"] == "error"
        assert report["diagnostics"] == [message]

    @pytest.mark.parametrize("kind", list(FILE_KEY_FAULTS))
    def test_an_unknown_key_in_a_side_file_is_located(self, capsys, tmp_path, kind):
        argv, doc, located = FILE_KEY_FAULTS[kind]
        side = tmp_path / "side.json"
        side.write_text(json.dumps(doc))
        argv = [str(side) if a == "{file}" else a for a in argv]
        code, human, report = run_both(capsys, *argv)
        assert code == 2
        assert human == f"{side}{located}\n"
        assert report["status"] == "error"
        assert report["data"] == {}
        assert report["diagnostics"] == [f"{side}{located}"]


class TestBundleRecipeEntries:
    @pytest.mark.parametrize(
        "entry, fault",
        [
            (["c1"], ": expected a recipe object"),
            # the entry's shape is checked before its id
            ({"id": 7, "comestibles": "c1"}, ".comestibles: expected a list of node ids"),
        ],
        ids=["not-an-object", "shape-before-id"],
    )
    def test_a_faulty_entry_is_reported_in_both_formats(self, capsys, tmp_path, entry, fault):
        path = bundle_with(tmp_path, entry)
        message = f"bundle.recipes[{len(load_corpus().recipe_ids())}]{fault}"
        code, human, report = run_both(capsys, "validate", "-b", path)
        assert code == 2
        assert human == message + "\n"
        assert report["status"] == "error"
        assert report["diagnostics"] == [message]


class TestOptionSpellings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["accept", "fry-onion", "--accept", "{file}"],
            ["plan", "spaghetti-pasata", "--missing", "spaghetti", "--distances", "{file}"],
        ],
        ids=["accept", "distances"],
    )
    def test_a_prefix_of_a_file_option_reads_as_the_option(self, capsys, tmp_path, argv):
        # an empty side document: no tuples, or the default distances
        side = tmp_path / "side.json"
        side.write_text("[]")
        full = [str(side) if a == "{file}" else a for a in argv]
        long = [a + "-file" if a in ("--accept", "--distances") else a for a in full]
        assert run_both(capsys, *full) == run_both(capsys, *long)
        parsed = build_parser().parse_args(full)
        assert (parsed.accept_file or parsed.distances_file) == str(side)


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["roles", "{folder}"],
            ["validate", "--bundle", "{folder}"],
            ["plan", "spaghetti-pasata", "--missing", "c0", "--distances-file", "{folder}"],
            ["validate", "--bundle", "{latin1}"],
            ["accept", "spaghetti-pasata", "--accept-file", "{latin1}"],
            ["rewrite-seq", "hummus", "{latin1}"],
            ["roles", "{malformed}"],
            ["validate", "--bundle", "{malformed}"],
            ["accept", "spaghetti-pasata", "--accept-file", "{malformed}"],
            ["plan", "spaghetti-pasata", "--missing", "c0", "--distances-file", "{malformed}"],
            ["rewrite-seq", "hummus", "{malformed}"],
        ],
        ids=["roles-folder", "bundle-folder", "distances-folder",
             "bundle-latin1", "accept-latin1", "plan-latin1",
             "roles-malformed", "bundle-malformed", "accept-malformed",
             "distances-malformed", "plan-malformed"],
    )
    def test_a_folder_or_non_utf8_file_is_an_input_error(self, capsys, tmp_path, argv):
        folder = tmp_path / "d.json"
        folder.mkdir()
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"primary": [], "note": "crème"}'.encode("latin-1"))
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"tuples": [', encoding="utf-8")
        code, report = run_json(
            capsys,
            *(a.format(folder=folder, latin1=latin1, malformed=malformed) for a in argv),
        )
        assert code == 2
        assert report["status"] == "error"

    @pytest.mark.parametrize(
        "content",
        [b'{"tuples": [', '{"note": "crème"}'.encode("latin-1")],
        ids=["malformed", "latin1"],
    )
    def test_each_side_file_reader_names_the_file(self, capsys, tmp_path, content):
        side = tmp_path / "side.json"
        side.write_bytes(content)
        for argv in (
            ["roles", str(side)],
            ["accept", "spaghetti-pasata", "--accept-file", str(side)],
            ["plan", "spaghetti-pasata", "--missing", "c0", "--distances-file", str(side)],
            ["rewrite-seq", "hummus", str(side)],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 2, argv
            assert report["status"] == "error"
            (diagnostic,) = report["diagnostics"]
            assert diagnostic.startswith(f"{side}: not valid UTF-8 JSON"), argv

    @pytest.mark.parametrize(
        "option, document, located",
        [
            ("--accept-file", {"tuples": "fry"}, ".tuples: expected a list"),
            ("--distances-file", {"step_cost": -1}, ".step_cost: expected a finite non-negative number"),
        ],
        ids=["accept", "distances"],
    )
    def test_a_side_file_fault_is_located_at_the_file(
        self, capsys, tmp_path, option, document, located
    ):
        side = tmp_path / "side.json"
        side.write_text(json.dumps(document))
        argv = ["plan", "spaghetti-pasata", "--missing", "spaghetti", option, str(side)]
        code, human, report = run_both(capsys, *argv)
        assert code == 2
        assert human == f"{side}{located}\n"
        assert report["diagnostics"] == [f"{side}{located}"]


class TestExportDot:
    def test_stdout_matches_the_library(self, capsys, bundle_path, corpus):
        from recipegraph.bundle import export_dot

        code = run(["export-dot", "-b", bundle_path, "boil-atomic"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == export_dot(corpus.recipe("boil-atomic"))

    def test_write_to_file(self, tmp_path, bundle_path):
        target = tmp_path / "out.dot"
        code = run(["export-dot", "-b", bundle_path, "hummus", "--out", str(target)])
        assert code == 0
        assert target.read_text().startswith("digraph recipe {")

    def test_graph_id_is_quoted_unless_plain(self, capsys, bundle_path):
        cases = (
            ("a-b", 'digraph "a-b" {'),
            ("graph", 'digraph "graph" {'),
            ("dish_2", "digraph dish_2 {"),
        )
        for name, header in cases:
            code = run(["export-dot", "-b", bundle_path, "boil-atomic", "--name", name])
            assert code == 0
            assert capsys.readouterr().out.startswith(header + "\n")


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import recipegraph

        src = str(Path(recipegraph.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "recipegraph.cli", "validate", "boil-atomic"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == "boil-atomic: ok\n"


class TestReportShape:
    def test_reports_parse_under_the_schema_for_every_status(self, capsys, bundle_path):
        cases = [
            (["roles", "-b", bundle_path, "spaghetti-pasata"], 0),
            (["compare", "-b", bundle_path, "--relation", "iso", "fry-onion", "boil-atomic"], 1),
            (["roles", "-b", bundle_path, "missing-recipe"], 2),
        ]
        for argv, expected in cases:
            code, report = run_json(capsys, *argv)
            assert code == expected
            assert report["status"] in {"ok", "negative", "error", "budget"}
            assert isinstance(report["diagnostics"], list)
