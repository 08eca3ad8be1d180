"""The input boundary: a malformed document fails only with a RecipeError.

Each property replaces one field of a well-formed document by a value of
another JSON type and loads the result. The loader may accept it or raise a
RecipeError (the CLI turns those into exit 2); any other exception would
leave the CLI as a traceback with exit 1, the code for a negative answer.
A ``rewrite-seq`` plan is run through ``cli.run`` from a file, which must
exit 0, 1 or 2.
Fields are drawn per field shape (list positions folded into ``[*]``), so
rare shapes such as type aliases are tried as often as recipe arcs.
Three text-level shapes that no value mutation can reach (nesting too deep
to decode, an integer past the digit limit, a lone surrogate escape) must
be SchemaErrors located at the document, and exit 2 through the CLI.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recipegraph.acceptability import load_acceptability
from recipegraph.bundle import (
    acceptability_doc,
    check_recipe_doc,
    distances_doc,
    load_corpus,
    parse_bundle,
    read_json,
    recipe_doc,
    serialize_bundle,
)
from recipegraph.cli import run
from recipegraph.core import build_recipe
from recipegraph.errors import RecipeError, SchemaError
from recipegraph.typekb import load_distances

BOUNDARY_SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WS = load_corpus()


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _fields(doc, path=()):
    """Every (path, value) below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


ID_MAPS = ("nodes", "typing")  # objects keyed by node ids


def _shape(path) -> str:
    """The path with list positions and node-id keys folded into ``*``."""
    return "".join(
        "[*]" if isinstance(k, int) else ".*" if parent in ID_MAPS else f".{k}"
        for parent, k in zip((None, *path), path)
    )


def mutations(doc):
    """A copy of ``doc`` with one field replaced by a value of another JSON type."""
    by_shape: dict[str, list] = {}
    for path, value in _fields(doc):
        by_shape.setdefault(_shape(path), []).append((path, value))
    shapes = sorted(by_shape)

    @st.composite
    def mutated(draw):
        path, old = draw(st.sampled_from(by_shape[draw(st.sampled_from(shapes))]))
        new = draw(json_values.filter(lambda v: _kind(v) != _kind(old)))
        out = copy.deepcopy(doc)
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = new
        return out

    return mutated()


def _load_recipe_doc(doc):
    build_recipe(*check_recipe_doc(doc, "recipe"), WS.hierarchies)


# applies cleanly to boil-atomic: exit 0 before any mutation
REWRITE_PLAN = {
    "primary": [{"remove": "boil-atomic", "insert": "boil-chain"}],
    "secondary": [{"remove": "boil-chain", "insert": "boil-atomic"}],
    "check_acceptability": True,
}


def _run_rewrite_plan(doc):
    """``recipegraph rewrite-seq`` on the plan: an answer or an input error."""
    with tempfile.TemporaryDirectory() as tmp:
        plan = Path(tmp, "plan.json")
        plan.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(["rewrite-seq", "boil-atomic", str(plan), "--format", "json"])
    assert code in (0, 1, 2)


BUNDLE = json.loads(serialize_bundle(WS))

DOCUMENTS = {
    "bundle": (BUNDLE, lambda doc: parse_bundle(json.dumps(doc))),
    "acceptability": (
        acceptability_doc(WS.acceptability),
        lambda doc: load_acceptability(doc, WS.hierarchies),
    ),
    "distances": (distances_doc(WS.distances), lambda doc: load_distances(doc, WS.hierarchies)),
    "recipe": (recipe_doc(WS.recipe("hummus")), _load_recipe_doc),
    "rewrite-plan": (REWRITE_PLAN, _run_rewrite_plan),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_one_wrong_field_type_raises_only_recipe_errors(name):
    doc, load = DOCUMENTS[name]

    @BOUNDARY_SETTINGS
    @given(mutations(doc))
    def check(mutated):
        try:
            load(mutated)
        except RecipeError:
            pass

    check()


# Text-level shapes that the value mutations above cannot reach: json.dumps
# cannot write the first two, and the third loads as a string that no UTF-8
# file can hold.
TEXT_SHAPES = {
    "deep": lambda doc: "[" * 100_000,
    "long-number": lambda doc: json.dumps({**doc, "note": 0})[:-2] + "9" * 5000 + "}",
    "lone-surrogate": lambda doc: json.dumps({**doc, "note": "\ud800"}),
}

# a request that makes the CLI read each document kind from the file {f}
CLI_READS = {
    "bundle": ["validate", "--bundle", "{f}"],
    "acceptability": ["accept", "boil-atomic", "--accept-file", "{f}"],
    "distances": ["plan", "boil-atomic", "--missing", "c1", "--distances-file", "{f}"],
    "recipe": ["roles", "{f}"],
    "rewrite-plan": ["rewrite-seq", "boil-atomic", "{f}"],
}


@pytest.mark.parametrize("shape", sorted(TEXT_SHAPES))
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_json_limits_and_lone_surrogates_are_located_schema_errors(name, shape):
    text = TEXT_SHAPES[shape](DOCUMENTS[name][0]).encode()
    with pytest.raises(SchemaError) as err:
        parse_bundle(text) if name == "bundle" else read_json(text, name)
    assert err.value.path == name


@pytest.mark.parametrize("shape", sorted(TEXT_SHAPES))
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_json_limits_and_lone_surrogates_exit_two_at_the_file(capsys, tmp_path, name, shape):
    path = tmp_path / "doc.json"
    path.write_text(TEXT_SHAPES[shape](DOCUMENTS[name][0]), encoding="utf-8")
    argv = [a.format(f=path) for a in CLI_READS[name]]
    where = "bundle" if name == "bundle" else str(path)
    assert run(argv) == 2
    assert capsys.readouterr().out.startswith(f"{where}: not valid UTF-8 JSON")
    assert run([*argv, "--format", "json"]) == 2
    (diagnostic,) = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostic.startswith(f"{where}: not valid UTF-8 JSON")
