"""Workspace bundles: one JSON document holding hierarchies, recipes, and tables.

Serialization is canonical and byte-stable: all sets are sorted, keys are
sorted, and the same bundle always produces the same bytes, so golden files
and diffs stay meaningful. Parsing validates the schema and cross-references
(registry membership, declared types) but leaves recipe-graph validation to
the core module so that tools can inspect broken graphs.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources

from .acceptability import AcceptabilitySet, load_acceptability
from .core import Arc, Recipe, RecipeGraph, checked_recipe, recipe_graph
from .errors import SchemaError, UnknownReferenceError
from .typekb import (
    DistanceModel,
    Hierarchies,
    KINDS,
    TypeHierarchy,
    check_keys,
    load_distances,
    load_hierarchy,
)

_BUNDLE_KEYS = frozenset({"hierarchies", "nodes", "recipes", "acceptability", "distances"})
_HIERARCHIES_KEYS = frozenset(KINDS)
_RECIPE_KEYS = frozenset({"id", "comestibles", "actions", "arcs", "typing"})


@dataclass
class RawRecipe:
    """A recipe as stored: parsed and reference-checked but not yet validated."""

    id: str
    graph: RecipeGraph
    typing: dict[str, str]


@dataclass
class WorkspaceBundle:
    """Everything a workspace needs: hierarchies, node registry, recipes, tables."""

    hierarchies: Hierarchies
    registry: dict[str, str]
    raw_recipes: dict[str, RawRecipe]
    acceptability: AcceptabilitySet
    distances: DistanceModel

    def recipe_ids(self) -> list[str]:
        return sorted(self.raw_recipes)

    def recipe(self, recipe_id: str) -> Recipe:
        """Build the fully validated recipe; raises InvalidRecipeError if broken."""
        raw = self.raw(recipe_id)
        return checked_recipe(raw.graph, raw.typing, self.hierarchies)

    def raw(self, recipe_id: str) -> RawRecipe:
        try:
            return self.raw_recipes[recipe_id]
        except KeyError:
            raise UnknownReferenceError(f"no recipe named {recipe_id!r} in the bundle") from None


def _check(cond: bool, path: str, reason: str):
    if not cond:
        raise SchemaError(path, reason)


def read_json(data: bytes | str, where: str):
    """Decode one JSON document; a malformed one is a SchemaError located at ``where``.

    ``ValueError`` covers bad syntax, bytes that are not UTF-8, integers past
    the interpreter's digit limit, and keys or strings that cannot be
    encoded as UTF-8 (a lone surrogate); nesting too deep for the decoder
    raises ``RecursionError``.
    """
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
        doc = json.loads(text)
        # UTF-8 bytes decode to no surrogate, so there only an escape can spell
        # one; a lone one survives decoding but not encoding
        if isinstance(data, str) or "\\" in text:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise SchemaError(where, f"not valid UTF-8 JSON: {exc}") from exc
    return doc


def parse_bundle(data: bytes | str) -> WorkspaceBundle:
    """Parse and cross-check a bundle document."""
    doc = read_json(data, "bundle")
    _check(isinstance(doc, Mapping), "bundle", "expected an object")
    check_keys(doc, _BUNDLE_KEYS, "bundle")

    hdoc = doc.get("hierarchies")
    _check(isinstance(hdoc, Mapping), "bundle.hierarchies", "expected an object")
    check_keys(hdoc, _HIERARCHIES_KEYS, "bundle.hierarchies")
    _check("action" in hdoc and "comestible" in hdoc, "bundle.hierarchies", "must hold both kinds")
    for kind in ("action", "comestible"):
        _check(isinstance(hdoc[kind], Mapping), f"bundle.hierarchies.{kind}", "expected an object")
    loaded = {}
    for kind in ("action", "comestible"):
        path = f"bundle.hierarchies.{kind}"
        loaded[kind] = load_hierarchy({"kind": kind, **hdoc[kind]}, path)
        _check(loaded[kind].kind == kind, path, "kind mismatch")
    hierarchies = Hierarchies(**loaded)

    registry_doc = doc.get("nodes", {})
    _check(isinstance(registry_doc, Mapping), "bundle.nodes", "expected an object")
    registry: dict[str, str] = {}
    for node, kind in registry_doc.items():
        _check(isinstance(node, str) and node, "bundle.nodes", "node ids are non-empty strings")
        _check(kind in ("action", "comestible"), f"bundle.nodes.{node}", "kind must be action or comestible")
        registry[node] = kind

    raw_recipes: dict[str, RawRecipe] = {}
    recipes_doc = doc.get("recipes", [])
    _check(isinstance(recipes_doc, list), "bundle.recipes", "expected a list")
    for i, rdoc in enumerate(recipes_doc):
        path = f"bundle.recipes[{i}]"
        parts = check_recipe_doc(rdoc, path)
        rid = rdoc.get("id")
        _check(isinstance(rid, str) and rid, f"{path}.id", "expected a non-empty string")
        _check(rid not in raw_recipes, f"{path}.id", f"duplicate recipe id {rid!r}")
        raw_recipes[rid] = _parse_recipe_doc(rid, parts, path, registry, hierarchies)

    accept_doc = doc.get("acceptability", {"tuples": []})
    acceptability = load_acceptability(accept_doc, hierarchies, "bundle.acceptability")
    dist_doc = doc.get("distances", {"pairs": []})
    distances = load_distances(dist_doc, hierarchies, "bundle.distances")

    return WorkspaceBundle(
        hierarchies=hierarchies,
        registry=registry,
        raw_recipes=raw_recipes,
        acceptability=acceptability,
        distances=distances,
    )


def check_recipe_doc(rdoc, path: str) -> tuple[list[str], list[str], list[Arc], Mapping[str, str]]:
    """Check the shape of a recipe document and return its parts.

    A recipe document is a bundle recipe entry whose ``id`` is optional:
    ``{"comestibles": [...], "actions": [...], "arcs": [[from, to], ...],
    "typing": {node: type}}``. Returns the comestibles, actions, arcs (as
    pairs) and typing; raises SchemaError located under ``path``. Node ids
    and type names are not looked up here.
    """
    _check(isinstance(rdoc, Mapping), path, "expected a recipe object")
    check_keys(rdoc, _RECIPE_KEYS, path)
    coms = rdoc.get("comestibles", [])
    acts = rdoc.get("actions", [])
    arcs = rdoc.get("arcs", [])
    typing = rdoc.get("typing", {})
    _check(isinstance(coms, list) and all(isinstance(c, str) for c in coms), f"{path}.comestibles", "expected a list of node ids")
    _check(isinstance(acts, list) and all(isinstance(a, str) for a in acts), f"{path}.actions", "expected a list of node ids")
    _check(isinstance(arcs, list), f"{path}.arcs", "expected a list")
    _check(isinstance(typing, Mapping) and all(isinstance(t, str) for t in typing.values()), f"{path}.typing", "expected an object mapping node ids to type names")
    for j, arc in enumerate(arcs):
        _check(
            isinstance(arc, list) and len(arc) == 2 and all(isinstance(x, str) for x in arc),
            f"{path}.arcs[{j}]",
            "expected a [from, to] pair",
        )
    return coms, acts, [(s, t) for s, t in arcs], typing


def _parse_recipe_doc(
    rid: str, parts: tuple, path: str, registry: Mapping[str, str], hierarchies: Hierarchies
) -> RawRecipe:
    coms, acts, arcs, typing = parts
    for kind, ids in (("comestible", coms), ("action", acts)):
        for n in ids:
            if n not in registry:
                raise UnknownReferenceError(f"{path}: node {n!r} is not in the bundle registry")
            if registry[n] != kind:
                raise UnknownReferenceError(
                    f"{path}: node {n!r} is registered as {registry[n]}, used as {kind}"
                )
    node_set = set(coms) | set(acts)
    for j, (s, t) in enumerate(arcs):
        if s not in node_set or t not in node_set:
            raise UnknownReferenceError(f"{path}.arcs[{j}]: endpoint outside the recipe's nodes")

    canonical_typing: dict[str, str] = {}
    where = f"{path}.typing"
    for n, t in typing.items():
        if n not in node_set:
            raise UnknownReferenceError(f"{where}: node {n!r} is not in the recipe")
        canonical_typing[n] = hierarchies.for_kind(registry[n]).resolve_at(t, where)

    return RawRecipe(id=rid, graph=recipe_graph(coms, acts, arcs), typing=canonical_typing)


def hierarchy_doc(h: TypeHierarchy) -> dict:
    alias_map: dict[str, list[str]] = {}
    for alias, target in h.aliases.items():
        alias_map.setdefault(target, []).append(alias)
    return {
        "kind": h.kind,
        "root": h.root,
        "types": [
            {
                "id": t,
                "parents": sorted(h.parents(t)),
                **({"aliases": sorted(alias_map[t])} if t in alias_map else {}),
            }
            for t in sorted(h.types)
        ],
    }


def recipe_doc(recipe: Recipe | RawRecipe) -> dict:
    """Canonical document form of a recipe (or raw recipe, led by its id)."""
    doc = {
        "comestibles": sorted(recipe.graph.comestibles),
        "actions": sorted(recipe.graph.actions),
        "arcs": [[s, t] for s, t in sorted(recipe.graph.arcs)],
        "typing": {n: recipe.typing[n] for n in sorted(recipe.typing)},
    }
    if isinstance(recipe, RawRecipe):
        doc = {"id": recipe.id, **doc}
    return doc


def acceptability_doc(accepts: AcceptabilitySet) -> dict:
    return {
        "tuples": sorted(t.as_list() for t in accepts.tuples),
        "policy": accepts.policy,
        "depth_limit": accepts.depth_limit,
    }


def distances_doc(model: DistanceModel) -> dict:
    return {
        "pairs": sorted([t1, t2, d] for (t1, t2), d in model.table.items()),
        "generalization_penalty": model.generalization_penalty,
        "step_cost": model.step_cost,
    }


def bundle_doc(ws: WorkspaceBundle) -> dict:
    return {
        "hierarchies": {
            "action": hierarchy_doc(ws.hierarchies.action),
            "comestible": hierarchy_doc(ws.hierarchies.comestible),
        },
        "nodes": {n: ws.registry[n] for n in sorted(ws.registry)},
        "recipes": [recipe_doc(ws.raw_recipes[rid]) for rid in sorted(ws.raw_recipes)],
        "acceptability": acceptability_doc(ws.acceptability),
        "distances": distances_doc(ws.distances),
    }


def serialize_bundle(ws: WorkspaceBundle) -> bytes:
    """Canonical byte form: sorted keys, two-space indent, trailing newline."""
    return canonical_json(bundle_doc(ws))


def canonical_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def export_dot(recipe: Recipe, name: str = "recipe") -> str:
    """Render a recipe in DOT: rounded boxes for comestibles, plain boxes for actions.

    Node labels are "<id>: <type>"; nodes and arcs appear in sorted order so
    output is deterministic. The graph id is quoted unless it is a plain DOT
    identifier.
    """

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    plain = _DOT_ID.fullmatch(name) and name.lower() not in _DOT_KEYWORDS
    graph_id = name if plain else f'"{esc(name)}"'
    lines = [f"digraph {graph_id} {{"]
    lines.append("  rankdir=TB;")
    for c in sorted(recipe.graph.comestibles):
        lines.append(
            f'  "{esc(c)}" [shape=box, style=rounded, label="{esc(c)}: {esc(recipe.type_of(c))}"];'
        )
    for a in sorted(recipe.graph.actions):
        lines.append(f'  "{esc(a)}" [shape=box, label="{esc(a)}: {esc(recipe.type_of(a))}"];')
    for s, t in sorted(recipe.graph.arcs):
        lines.append(f'  "{esc(s)}" -> "{esc(t)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def corpus_path():
    """Path-like handle to the fixture corpus shipped with the package."""
    return resources.files("recipegraph").joinpath("data/corpus.json")


def load_corpus() -> WorkspaceBundle:
    """Parse the shipped fixture corpus."""
    return parse_bundle(corpus_path().read_bytes())
