"""Command-line surface over the whole engine.

Exit codes partition outcomes so shell pipelines can branch on them:

  0  success, or the relation/composition/check holds
  1  a well-formed negative answer (not equivalent, failed composition, ...)
  2  an input error (bad bundle, invalid recipe, unknown id)
  3  a search budget or closure limit was exceeded

``--format json`` emits one machine-readable report object per run:
``{"command", "status", "data", "diagnostics"}`` where status is one of
"ok", "negative", "error", "budget".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import compare as cmp_mod
from .acceptability import check_acceptable, load_acceptability
from .bundle import (
    WorkspaceBundle,
    _check,
    canonical_json,
    check_recipe_doc,
    export_dot,
    load_corpus,
    parse_bundle,
    read_json,
    recipe_doc,
)
from .compose import compose, compose_closure, decompose
from .core import OperationFailure, Recipe, build_recipe, roles
from .errors import (
    BudgetExceededError,
    ClosureLimitError,
    InvalidRecipeError,
    RecipeError,
    UnknownNodeError,
)
from .rewrite import (
    RewriteStep,
    apply_sequence,
    structural_cost,
    structural_substitute,
    StructuralCostModel,
)
from .typekb import check_keys, load_distances
from .typesubst import CostModel, apply_substitution, cost, preferred_pair

OK, NEGATIVE, INPUT_ERROR, BUDGET = 0, 1, 2, 3
_PLAN_KEYS = frozenset({"primary", "secondary", "check_acceptability"})
_STEP_KEYS = frozenset({"remove", "insert"})
_STATUS = {OK: "ok", NEGATIVE: "negative", INPUT_ERROR: "error", BUDGET: "budget"}


class _Report:
    def __init__(self, command: str, fmt: str):
        self.command = command
        self.fmt = fmt
        self.data: dict = {}
        self.diagnostics: list[str] = []
        self.lines: list[str] = []

    def say(self, line: str):
        self.lines.append(line)

    def diagnose(self, message: str):
        self.diagnostics.append(message)

    def emit(self, exit_code: int) -> int:
        if self.fmt == "json":
            doc = {
                "command": self.command,
                "status": _STATUS[exit_code],
                "data": self.data,
                "diagnostics": self.diagnostics,
            }
            sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        else:
            for line in self.lines:
                print(line)
            for message in self.diagnostics:
                print(message)
        return exit_code


def _load_bundle(args) -> WorkspaceBundle:
    if args.bundle == "corpus":
        return load_corpus()
    return parse_bundle(Path(args.bundle).read_bytes())


def _say_recipe(report: _Report, recipe: Recipe):
    report.say(canonical_json(recipe_doc(recipe)).decode("utf-8").rstrip("\n"))


def _read_json(path: str):
    """Parse a JSON side file; a malformed one is a SchemaError at its path."""
    return read_json(Path(path).read_bytes(), path)


def _recipe_ref(ws: WorkspaceBundle, ref: str) -> Recipe:
    """Resolve a recipe reference: a bundle id, or a path to a recipe document."""
    if ref in ws.raw_recipes:
        return ws.recipe(ref)
    path = Path(ref)
    if path.suffix == ".json" and path.exists():
        return build_recipe(*check_recipe_doc(_read_json(ref), ref), ws.hierarchies)
    raise RecipeError(f"no recipe named {ref!r} in the bundle and no such file")


def _accepts(ws: WorkspaceBundle, args):
    if args.accept_file:
        return load_acceptability(_read_json(args.accept_file), ws.hierarchies, args.accept_file)
    return ws.acceptability


def _distances(ws: WorkspaceBundle, args):
    if args.distances_file:
        return load_distances(_read_json(args.distances_file), ws.hierarchies, args.distances_file)
    return ws.distances


def cmd_validate(args, ws: WorkspaceBundle, report: _Report) -> int:
    ids = args.ids or ws.recipe_ids()
    invalid: dict[str, list[dict]] = {}
    for rid in ids:
        try:
            ws.recipe(rid)
        except InvalidRecipeError as exc:
            invalid[rid] = [asdict(v) for v in exc.violations]
            report.say(f"{rid}: INVALID")
            for v in exc.violations:
                report.diagnose(f"{rid}: {v}")
        else:
            report.say(f"{rid}: ok")
    report.data = {"checked": list(ids), "invalid": invalid}
    return report.emit(INPUT_ERROR if invalid else OK)


def cmd_roles(args, ws: WorkspaceBundle, report: _Report) -> int:
    recipe = _recipe_ref(ws, args.recipe)
    rs = roles(recipe)
    report.data = {
        "inputs": sorted(rs.inputs),
        "outputs": sorted(rs.outputs),
        "mids": sorted(rs.mids),
        "input_types": sorted(recipe.type_of(n) for n in rs.inputs),
        "output_types": sorted(recipe.type_of(n) for n in rs.outputs),
    }
    report.say(f"inputs:  {', '.join(sorted(rs.inputs))}")
    report.say(f"outputs: {', '.join(sorted(rs.outputs))}")
    report.say(f"mids:    {', '.join(sorted(rs.mids))}")
    return report.emit(OK)


# Each relation's call: sub and io answer a bool, the others a witness or None.
_RELATIONS = {
    "iso": lambda r1, r2, args, ws: cmp_mod.isomorphic(r1, r2, budget=args.budget),
    "sub": lambda r1, r2, args, ws: cmp_mod.is_subrecipe(r1, r2),
    "equiv": lambda r1, r2, args, ws: cmp_mod.equivalent(r1, r2, budget=args.budget),
    "io": lambda r1, r2, args, ws: cmp_mod.in_out_aligned(r1, r2),
    "finer": lambda r1, r2, args, ws: cmp_mod.finer_grained(
        r1, r2, budget=args.budget, fix_io=args.fix_io
    ),
    "specific": lambda r1, r2, args, ws: cmp_mod.more_specific(
        r1, r2, ws.hierarchies, budget=args.budget
    ),
}


def cmd_compare(args, ws: WorkspaceBundle, report: _Report) -> int:
    r1 = _recipe_ref(ws, args.first)
    r2 = _recipe_ref(ws, args.second)
    relation = args.relation
    answer = _RELATIONS[relation](r1, r2, args, ws)
    witness = None if isinstance(answer, bool) else answer
    holds = answer is True or witness is not None
    report.data = {"relation": relation, "holds": holds}
    report.say(f"{relation}({args.first}, {args.second}) = {str(holds).lower()}")
    if witness is not None:
        report.data["witness"] = dict(witness.forward)
        for n, m in witness.forward:
            report.say(f"  {n} -> {m}")
    return report.emit(OK if holds else NEGATIVE)


def _report_failure(report: _Report, flag: str, failure: OperationFailure) -> int:
    """Report a failed composition or rewrite: ``{flag: false}`` plus each violation."""
    report.data = {flag: False, "violations": [asdict(v) for v in failure.violations]}
    for v in failure.violations:
        report.diagnose(f"condition {v.condition} violated: {v.message}")
    return report.emit(NEGATIVE)


def cmd_compose(args, ws: WorkspaceBundle, report: _Report) -> int:
    r1 = _recipe_ref(ws, args.first)
    r2 = _recipe_ref(ws, args.second)
    result = compose(r1, r2, ws.hierarchies)
    if isinstance(result, OperationFailure):
        return _report_failure(report, "composed", result)
    report.data = {"composed": True, "recipe": recipe_doc(result)}
    _say_recipe(report, result)
    return report.emit(OK)


def cmd_closure(args, ws: WorkspaceBundle, report: _Report) -> int:
    ids = args.ids or ws.recipe_ids()
    seeds = [_recipe_ref(ws, rid) for rid in ids]
    limit = None
    try:
        closed = compose_closure(
            seeds, ws.hierarchies, max_recipes=args.max_recipes, max_nodes=args.max_nodes
        )
    except ClosureLimitError as exc:
        limit, closed = exc, exc.partial
    report.data = {
        "truncated": limit is not None,
        "size": len(closed),
        "recipes": sorted((recipe_doc(r) for r in closed), key=canonical_json),
    }
    if limit is not None:
        report.diagnose(str(limit))
        return report.emit(BUDGET)
    report.say(f"closure size: {len(closed)}")
    return report.emit(OK)


def cmd_decompose(args, ws: WorkspaceBundle, report: _Report) -> int:
    recipe = _recipe_ref(ws, args.recipe)
    pieces = decompose(recipe, ws.hierarchies)
    report.data = {"count": len(pieces), "recipes": [recipe_doc(p) for p in pieces]}
    report.say(f"{len(pieces)} atomic piece(s)")
    for piece in pieces:
        _say_recipe(report, piece)
    return report.emit(OK)


def cmd_accept(args, ws: WorkspaceBundle, report: _Report) -> int:
    recipe = _recipe_ref(ws, args.recipe)
    accepts = _accepts(ws, args)
    violations = check_acceptable(recipe, accepts, ws.hierarchies)
    report.data = {
        "acceptable": not violations,
        "violations": [
            {
                "input": v.input,
                "action": v.action,
                "output": v.output,
                "triple": v.triple.as_list(),
            }
            for v in violations
        ],
    }
    report.say("acceptable" if not violations else "not acceptable")
    for v in violations:
        report.diagnose(str(v))
    return report.emit(OK if not violations else NEGATIVE)


def cmd_substitute(args, ws: WorkspaceBundle, report: _Report) -> int:
    recipe = _recipe_ref(ws, args.recipe)
    bindings: dict[str, str] = {}
    for item in args.bind:
        if "=" not in item:
            raise RecipeError(f"--bind expects node=type, got {item!r}")
        node, type_text = item.split("=", 1)
        if node not in recipe.graph.nodes:
            raise UnknownNodeError(node)
        if node in bindings:
            raise RecipeError(f"node {node!r} bound twice")
        bindings[node] = type_text
    result = apply_substitution(recipe, bindings, ws.hierarchies)
    report.data = {"recipe": recipe_doc(result)}
    _say_recipe(report, result)
    return report.emit(OK)


def cmd_plan(args, ws: WorkspaceBundle, report: _Report) -> int:
    recipe = _recipe_ref(ws, args.recipe)
    accepts = _accepts(ws, args)
    model = CostModel(distances=_distances(ws, args), aggregation=args.aggregation)
    pair = preferred_pair(
        recipe,
        args.missing,
        accepts,
        model,
        ws.hierarchies,
        budget=args.budget,
    )
    if pair is None:
        report.say("no acceptable substitution pair in the candidate space")
        report.data = {"found": False}
        return report.emit(NEGATIVE)
    pair_cost = cost(pair, recipe, model, ws.hierarchies)
    report.data = {
        "found": True,
        "primary": dict(pair.primary),
        "secondary": dict(pair.secondary),
        "cost": pair_cost,
    }
    report.say(f"cost: {pair_cost}")
    for n, t in pair.primary:
        report.say(f"primary:   {n} -> {t}")
    for n, t in pair.secondary:
        report.say(f"secondary: {n} -> {t}")
    return report.emit(OK)


def cmd_rewrite(args, ws: WorkspaceBundle, report: _Report) -> int:
    host = _recipe_ref(ws, args.recipe)
    part = _recipe_ref(ws, args.remove)
    replacement = _recipe_ref(ws, args.insert)
    result = structural_substitute(host, part, replacement, ws.hierarchies)
    if isinstance(result, OperationFailure):
        return _report_failure(report, "applied", result)
    data = {"applied": True, "recipe": recipe_doc(result)}
    if args.cost:
        cost_model = StructuralCostModel(distances=_distances(ws, args))
        data["cost"] = {
            "value": structural_cost(
                part, replacement, ws.hierarchies, cost_model, budget=args.budget
            ),
            "normative": False,
        }
    report.data = data
    _say_recipe(report, result)
    return report.emit(OK)


def cmd_rewrite_seq(args, ws: WorkspaceBundle, report: _Report) -> int:
    host = _recipe_ref(ws, args.recipe)
    plan = _read_json(args.plan)
    _check(isinstance(plan, dict), args.plan, "expected a plan object")
    check_keys(plan, _PLAN_KEYS, args.plan)
    steps = []
    for phase in ("primary", "secondary"):
        sdocs = plan.get(phase, [])
        _check(isinstance(sdocs, list), f"{args.plan}.{phase}", "expected a list of steps")
        for i, sdoc in enumerate(sdocs):
            where = f"{args.plan}.{phase}[{i}]"
            shape = 'expected {"remove": recipe, "insert": recipe}'
            _check(isinstance(sdoc, dict), where, shape)
            check_keys(sdoc, _STEP_KEYS, where)
            _check(all(isinstance(sdoc.get(k), str) for k in _STEP_KEYS), where, shape)
            steps.append(
                RewriteStep(
                    remove=_recipe_ref(ws, sdoc["remove"]),
                    insert=_recipe_ref(ws, sdoc["insert"]),
                )
            )
    check = plan.get("check_acceptability", False)
    _check(isinstance(check, bool), f"{args.plan}.check_acceptability", "expected true or false")
    # read every input before applying, so that an input error reports no result
    accepts = _accepts(ws, args) if args.accept_file or check else None
    result = apply_sequence(host, steps, ws.hierarchies)
    if isinstance(result, OperationFailure):
        report.data = {
            "applied": False,
            "failed_step": result.step,
            "violations": [asdict(v) for v in result.violations],
        }
        report.diagnose(str(result))
        return report.emit(NEGATIVE)
    report.data = {"applied": True, "recipe": recipe_doc(result)}
    if accepts is not None:
        violations = check_acceptable(result, accepts, ws.hierarchies)
        report.data["acceptable"] = not violations
        if violations:
            for v in violations:
                report.diagnose(str(v))
            return report.emit(NEGATIVE)
    _say_recipe(report, result)
    return report.emit(OK)


def cmd_export_dot(args, ws: WorkspaceBundle, report: _Report) -> int:
    recipe = _recipe_ref(ws, args.recipe)
    dot = export_dot(recipe, name=args.name)
    if args.out:
        Path(args.out).write_text(dot, encoding="utf-8")
        report.say(f"wrote {args.out}")
        report.data = {"path": args.out}
    else:
        report.data = {"dot": dot}
        report.say(dot.rstrip("\n"))
    return report.emit(OK)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and reused by every run."""
    parser = argparse.ArgumentParser(
        prog="recipegraph",
        description="Validate, compare, compose, and rewrite recipes stored in a workspace bundle.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--bundle",
        "-b",
        default="corpus",
        help="path to a workspace bundle, or 'corpus' for the built-in fixture corpus",
    )
    common.add_argument("--format", choices=("human", "json"), default="human")
    common.add_argument(
        "--budget",
        type=int,
        default=cmp_mod.DEFAULT_BUDGET,
        help="max search expansions before giving up (exit 3)",
    )
    common.set_defaults(accept_file=None, distances_file=None)
    accept_file = argparse.ArgumentParser(add_help=False)
    accept_file.add_argument(
        "--accept-file", dest="accept_file",
        help="acceptability document overriding the bundle's",
    )
    distances_file = argparse.ArgumentParser(add_help=False)
    distances_file.add_argument("--distances-file", dest="distances_file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check recipes against the graph and typing rules")
    p.add_argument("ids", nargs="*", help="recipe ids (default: all in the bundle)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("roles", parents=[common], help="show input/output/intermediate nodes")
    p.add_argument("recipe")
    p.set_defaults(func=cmd_roles)

    p = sub.add_parser("compare", parents=[common], help="test one of the comparison relations")
    p.add_argument("--relation", required=True, choices=tuple(_RELATIONS))
    p.add_argument("--fix-io", action="store_true", help="require the finer-grained map to fix in/out nodes")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("compose", parents=[common], help="compose two recipes")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("closure", parents=[common], help="closure of a seed set under composition")
    p.add_argument("ids", nargs="*", help="seed recipe ids (default: all)")
    p.add_argument("--max-recipes", type=int, default=10_000)
    p.add_argument("--max-nodes", type=int, default=1_000)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("decompose", parents=[common], help="split a recipe into one atomic piece per action")
    p.add_argument("recipe")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "accept", parents=[common, accept_file], help="check a recipe against acceptability tuples"
    )
    p.add_argument("recipe")
    p.set_defaults(func=cmd_accept)

    p = sub.add_parser("substitute", parents=[common], help="rebind node types")
    p.add_argument("recipe")
    p.add_argument("--bind", action="append", default=[], metavar="NODE=TYPE", required=True)
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser(
        "plan", parents=[common, accept_file, distances_file], help="find the cheapest substitution pair"
    )
    p.add_argument("recipe")
    p.add_argument("--missing", action="append", default=[], required=True,
                   help="an unavailable node id or type (repeatable)")
    p.add_argument("--aggregation", choices=("sum", "max"), default="sum")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("rewrite", parents=[common, distances_file], help="replace one subrecipe by another")
    p.add_argument("recipe")
    p.add_argument("--remove", required=True, help="recipe id or recipe-document path")
    p.add_argument("--insert", required=True, help="recipe id or recipe-document path")
    p.add_argument("--cost", action="store_true", help="also report the heuristic edit cost")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("rewrite-seq", parents=[common, accept_file], help="apply a rewrite plan file")
    p.add_argument("recipe")
    p.add_argument(
        "plan",
        help="JSON plan with primary/secondary step lists; the result is checked for "
        "acceptability when the plan's check_acceptability (true or false) is true or "
        "--accept-file is given",
    )
    p.set_defaults(func=cmd_rewrite_seq)

    p = sub.add_parser("export-dot", parents=[common], help="render a recipe as DOT")
    p.add_argument("recipe")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.add_argument("--name", default="recipe")
    p.set_defaults(func=cmd_export_dot)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = _Report(args.command, args.format)
    try:
        for option in ("budget", "max_recipes", "max_nodes"):
            value = getattr(args, option, 0)
            if value < 0:
                flag = "--" + option.replace("_", "-")
                raise RecipeError(f"{flag} must be a non-negative integer, got {value}")
        return args.func(args, _load_bundle(args), report)
    except (BudgetExceededError, ClosureLimitError) as exc:
        report.diagnose(str(exc))
        return report.emit(BUDGET)
    except (RecipeError, OSError) as exc:
        report.diagnose(str(exc))
        return report.emit(INPUT_ERROR)


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
