"""The benchmark's three workloads.

Each ``setup_*`` function receives the freshly imported package and returns
the operations of one pass. An operation has a ``prepare`` step, run outside
the timed region, that builds fresh inputs (so that no operation inherits a
cache warmed by another) and returns the call to time, and a ``judge`` that
classifies the outcome and raises ``WrongAnswer`` when the answer is wrong.

Outcomes: a verdict (the operation answered), undecided (a search budget or
closure limit ran out, both documented outcomes) or failed (anything else
escaped, e.g. ``RecursionError``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import largegen
from cli_table import BUDGET_OR_PAIR, REQUESTS, WORK_FILES, CorpusRecipe, Golden
from oracles import (
    RawCorpus,
    WrongAnswer,
    check_bijection,
    check_order_map,
    check_substitution_pair,
    expect,
    pair_cost,
)
from sweep_table import PLAN_PAIRS, STRUCTURAL_COSTS

VERDICT, UNDECIDED, FAILED = "verdict", "undecided", "failed"

# Expansion budgets. decided_ratio is defined at these fixed budgets.
SWEEP_PLAN_BUDGET = 10_000
COMPARE_BUDGET = 5_000
FINER_BUDGET = 1_000_000
ROUND_TRIPS_PER_PASS = 4


@dataclass
class Op:
    name: str
    prepare: Callable[[], Callable[[], Any]]
    judge: Callable[[Any, BaseException | None], str]


@dataclass
class Context:
    root: Path
    workdir: Path

    @property
    def corpus_file(self) -> Path:
        return self.root / "src" / "recipegraph" / "data" / "corpus.json"

    def raw_corpus(self) -> RawCorpus:
        return RawCorpus(json.loads(self.corpus_file.read_bytes()))


def _error_outcome(rg, exc: BaseException, where: str) -> str:
    """Budget-outs and closure limits are undecided; other package errors are wrong."""
    if isinstance(exc, (rg.errors.BudgetExceededError, rg.errors.ClosureLimitError)):
        return UNDECIDED
    if isinstance(exc, rg.errors.RecipeError):
        raise WrongAnswer(f"{where}: unexpected {type(exc).__name__}: {exc}")
    return FAILED


def _fresh(rg, recipe):
    """A copy of a recipe with empty caches."""
    return rg.Recipe(recipe.graph, recipe.typing)


# -- corpus-cli -----------------------------------------------------------


def setup_corpus_cli(rg, seed: int, ctx: Context) -> list[Op]:
    """Every CLI subcommand through ``cli.run`` plus bundle round trips.

    The requests and their answers are fixed (``cli_table``); the seed only
    orders them within each pass.
    """
    rg.load_corpus()  # every workload's set-up parses the bundle once
    raw = ctx.raw_corpus()
    corpus_bytes = ctx.corpus_file.read_bytes()
    ctx.workdir.mkdir(parents=True, exist_ok=True)

    def resolve(value):
        if isinstance(value, str) and value.startswith("@"):
            return str(ctx.workdir / f"{value[1:]}.json")
        if isinstance(value, list):
            return [resolve(v) for v in value]
        if isinstance(value, dict):
            return {k: resolve(v) for k, v in value.items()}
        return value

    for name, doc in WORK_FILES.items():
        (ctx.workdir / f"{name}.json").write_text(json.dumps(resolve(doc)), encoding="utf-8")

    golden = ctx.root / "tests" / "golden"

    def expected_value(value):
        if isinstance(value, CorpusRecipe):
            return raw.recipe_doc(value.rid)
        if isinstance(value, Golden):
            return (golden / value.name).read_text(encoding="utf-8")
        return value

    def cli_op(argv: list[str], code: int | str, fields: dict) -> Op:
        argv = resolve(argv) + ["--format", "json"]
        fields = {path: expected_value(v) for path, v in fields.items()}
        where = "recipegraph " + " ".join(argv)

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = rg.cli.run(argv)
            return status, out.getvalue()

        def judge(result, exc):
            if exc is not None:  # the CLI must turn every error into an exit code
                return FAILED
            status, text = result
            if code == BUDGET_OR_PAIR:
                expect(status in (0, 3), f"{where}: exit {status}, expected 3 or 0")
                if status == 3:
                    return UNDECIDED
                data = json.loads(text)["data"]
                mark = argv[argv.index("--missing") + 1]
                check_substitution_pair(raw, argv[1], mark, data["primary"], data["secondary"])
                return VERDICT
            expect(status == code, f"{where}: exit {status}, expected {code}")
            data = json.loads(text)["data"]
            for path, want in fields.items():
                got = data
                for key in path.split("."):
                    got = got[int(key)] if isinstance(got, list) else got[key]
                same = (
                    math.isclose(got, want, rel_tol=1e-9)
                    if isinstance(want, float)
                    else got == want
                )
                expect(same, f"{where}: {path} = {got!r}, expected {want!r}")
            return UNDECIDED if status == 3 else VERDICT

        return Op(f"cli.{argv[0]}", lambda: call, judge)

    def round_trip_judge(result, exc):
        if exc is not None:
            return _error_outcome(rg, exc, "bundle round trip")
        expect(result == corpus_bytes, "bundle round trip is not byte-identical")
        return VERDICT

    round_trip = Op(
        "bundle.round_trip",
        lambda: lambda: rg.serialize_bundle(rg.parse_bundle(corpus_bytes)),
        round_trip_judge,
    )
    return [cli_op(*request) for request in REQUESTS] + [round_trip] * ROUND_TRIPS_PER_PASS


# -- search-sweep ---------------------------------------------------------


def setup_search_sweep(rg, seed: int, ctx: Context) -> list[Op]:
    """The planner sweep plus ``structural_cost`` on every pair of multi-action recipes.

    Planner sweep: every corpus recipe once per input, with that input
    missing. The query set is fixed; the seed only orders each pass. The
    expected answers are in ``sweep_table``.
    """
    ws = rg.load_corpus()
    hierarchies = ws.hierarchies
    model = rg.CostModel(distances=ws.distances)
    cost_model = rg.StructuralCostModel(distances=ws.distances)
    recipes = {rid: ws.recipe(rid) for rid in ws.recipe_ids()}
    raw = ctx.raw_corpus()

    def dist(kind, t1, t2):
        return ws.distances.distance(hierarchies.for_kind(kind), t1, t2)

    def plan_op(rid: str, missing: str) -> Op:
        where = f"preferred_pair({rid}, missing {missing})"
        known = PLAN_PAIRS.get((rid, missing))

        def prepare():
            recipe = _fresh(rg, recipes[rid])
            return lambda: rg.preferred_pair(
                recipe, [missing], ws.acceptability, model, hierarchies,
                budget=SWEEP_PLAN_BUDGET,
            )

        def judge(pair, exc):
            if exc is not None:
                return _error_outcome(rg, exc, where)
            if pair is None:
                # "no pair" is a verdict only where none is known: the table has
                # every query that found a pair at this budget
                expect(known is None, f"{where}: no pair, expected {known}")
                return VERDICT
            primary, secondary = dict(pair.primary), dict(pair.secondary)
            check_substitution_pair(raw, rid, missing, primary, secondary)
            if known is not None:
                got = pair_cost(raw, rid, primary | secondary, dist)
                expect(
                    got <= known[2] + 1e-9,
                    f"{where}: pair {primary} + {secondary} costs {got}, expected {known}",
                )
            return VERDICT

        return Op("typesubst.preferred_pair", prepare, judge)

    def cost_op(a: str, b: str) -> Op:
        where = f"structural_cost({a}, {b})"
        want = STRUCTURAL_COSTS[a, b]

        def prepare():
            r1, r2 = _fresh(rg, recipes[a]), _fresh(rg, recipes[b])
            return lambda: rg.structural_cost(r1, r2, hierarchies, cost_model)

        def judge(value, exc):
            if exc is not None:
                return _error_outcome(rg, exc, where)
            expect(math.isclose(value, want, rel_tol=1e-9), f"{where} = {value}, expected {want}")
            return VERDICT

        return Op("rewrite.structural_cost", prepare, judge)

    queries, multi_action = [], []
    for rid in sorted(raw.recipes):
        doc = raw.recipes[rid]
        produced = {t for _, t in doc["arcs"]}
        queries += [(rid, c) for c in sorted(doc["comestibles"]) if c not in produced]
        if len(doc["actions"]) >= 2:
            multi_action.append(rid)
    pairs = list(itertools.combinations(multi_action, 2))
    # the tables describe the shipped corpus; a changed corpus needs new ones
    if not set(PLAN_PAIRS) <= set(queries) or set(pairs) != set(STRUCTURAL_COSTS):
        raise RuntimeError("the corpus no longer matches perfbench/sweep_table.py")
    return [plan_op(*q) for q in queries] + [cost_op(a, b) for a, b in pairs]


# -- large-recipes --------------------------------------------------------


def setup_large_recipes(rg, seed: int, ctx: Context) -> list[Op]:
    """Seeded chains and merge trees, each queried by every read operation."""
    rg.load_corpus()  # every workload's set-up parses the bundle once
    act_doc, com_doc = largegen.hierarchy_docs()
    hierarchies = rg.Hierarchies(
        action=rg.load_hierarchy(act_doc), comestible=rg.load_hierarchy(com_doc)
    )
    ops = []
    for inst in largegen.generate(seed):
        ops += _instance_ops(rg, inst, hierarchies)
    return ops


def _instance_ops(rg, inst: largegen.Instance, hierarchies) -> list[Op]:
    parts = inst.parts

    def as_recipe(p: largegen.Parts):
        return rg.Recipe(rg.recipe_graph(p.comestibles, p.actions, p.arcs), p.typing)

    base = as_recipe(parts)
    graph = base.graph
    accepts = rg.accept_set(inst.tuples)
    arcs = set(parts.arcs)

    def op(name: str, prepare, check) -> Op:
        where = f"{name} on {inst.name}"

        def judge(result, exc):
            if exc is not None:
                return _error_outcome(rg, exc, where)
            check(result, where)
            return VERDICT

        return Op(name, prepare, judge)

    def on_fresh(call):
        """A prepare step that binds ``call`` to a cache-free copy of the recipe."""
        def prepare():
            recipe = _fresh(rg, base)
            return lambda: call(recipe)
        return prepare

    def check_valid(violations, where):
        expect(violations == [], f"{where}: reports {len(violations)} violations")

    def check_made(recipe, where):
        expect(set(recipe.graph.arcs) == arcs, f"{where}: arcs changed")
        expect(recipe.typing == parts.typing, f"{where}: typing changed")

    def roles_and_leq(recipe):
        return rg.roles(recipe), [rg.leq(recipe, n, m) for n, m, _ in inst.leq_probes]

    def check_roles(result, where):
        rs, answers = result
        expect(rs.inputs == inst.inputs, f"{where}: wrong inputs")
        expect(rs.outputs == inst.outputs, f"{where}: wrong outputs")
        expect(
            rs.mids == set(parts.comestibles) - inst.inputs - inst.outputs, f"{where}: wrong mids"
        )
        expect(answers == [want for _, _, want in inst.leq_probes], f"{where}: wrong leq")

    def check_accept(violations, where):
        got = {(v.input, v.action, v.output) for v in violations}
        expect(got == inst.unlicensed, f"{where}: violations {sorted(got)}")

    ops = [
        op(
            "core.validate_recipe_graph",
            lambda: lambda: rg.validate_recipe_graph(graph),
            check_valid,
        ),
        op(
            "core.make_recipe",
            lambda: lambda: rg.make_recipe(graph, parts.typing, hierarchies),
            check_made,
        ),
        op("core.roles_leq", on_fresh(roles_and_leq), check_roles),
        op(
            "acceptability.check_acceptable",
            on_fresh(lambda r: rg.check_acceptable(r, accepts, hierarchies)),
            check_accept,
        ),
    ]
    if inst.deep:
        return ops

    relabelled = as_recipe(inst.relabelled)
    permuted = as_recipe(inst.interior_permuted)

    def search(fn, other, budget):
        def prepare():
            r1, r2 = _fresh(rg, base), _fresh(rg, other)
            return lambda: fn(r1, r2, budget=budget)
        return prepare

    def check_bijection_to_copy(same_types: bool):
        def check(witness, where):
            expect(witness is not None, f"{where}: no bijection to a relabelled copy")
            check_bijection(parts, inst.relabelled, dict(witness.forward), same_types, where)
        return check

    def check_refinement(witness, where):
        expect(witness is not None, f"{where}: no order map to a permuted copy")
        check_order_map(parts, inst.interior_permuted, dict(witness.forward), where)

    ops += [
        op("compare.equivalent", search(rg.equivalent, relabelled, COMPARE_BUDGET),
           check_bijection_to_copy(same_types=True)),
        op("compare.isomorphic", search(rg.isomorphic, relabelled, COMPARE_BUDGET),
           check_bijection_to_copy(same_types=False)),
        op("compare.finer_grained", search(rg.finer_grained, permuted, FINER_BUDGET),
           check_refinement),
    ]
    return ops


SETUPS = {
    "corpus-cli": setup_corpus_cli,
    "search-sweep": setup_search_sweep,
    "large-recipes": setup_large_recipes,
}
