"""Paired benchmark runs of two versions of the repository, written to BENCH_<label>.json.

Exports a base revision and the working tree (or a second revision) into
fresh directories with plain ``git``, then alternates ``perfbench`` runs
between them: on odd seeds the base runs first, on even seeds the change
does. Run from anywhere inside the checkout:

    python scripts/bench_pairs.py --base HEAD --pairs 10 --seconds 30 \\
        --workload search-sweep --seed-start 101 --label search-sweep

The benchmark command and the end-to-end metrics with their bounds come from
the change's ``BENCHMARK.json``. The report holds every raw run, each side's
median and quartiles per metric, in how many pairs the change was better,
and one verdict per metric:

* ``improved``: over at least ten pairs, the change is better in at least
  nine tenths of them, and the medians differ by more than the base's
  interquartile range;
* ``regressed``: the change's median is worse than the base's by more than
  the metric's bound, relative to the base's median;
* ``unresolved``: the base's own runs spread wider than the bound, and not
  every run of the change is better than every run of the base;
* ``within bound``: none of these.

A workload also regresses when the change fails a larger share of its
operations, or answers wrongly in any run. ``--trace`` adds one traced run of
each side on the first seed, with its per-layer metrics. The script reads
``perfbench/`` and ``BENCHMARK.json`` and writes only the exported copies
and the report; it times only its own child processes.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

SIDES = ("base", "change")
# fewer pairs than this never claim a gain
MIN_PAIRS_FOR_GAIN = 10


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True
    ).stdout


def export_revision(root: Path, rev: str, dest: Path):
    """The committed files of ``rev``, as ``git archive`` writes them."""
    archive = git(root, "archive", "--format=tar", rev)
    # the safe extraction filter exists from Python 3.11.4 and 3.10.12 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def export_working_tree(root: Path, dest: Path):
    """Tracked and untracked files of the working tree, minus ignored ones."""
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode("utf-8").split("\0"):
        source = root / name
        if name and source.is_file():  # a tracked file may be deleted
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    report.update(seed=seed, exit_code=done.returncode)
    if done.returncode:
        report["stderr"] = done.stderr[-2000:]
    return report


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge_metric(spec: dict, pairs: list[dict[str, float | None]]) -> dict:
    """Medians, base quartiles, wins and verdict of one end-to-end metric."""
    higher = spec["better"] == "higher"
    # a missing value (a failed run, or no finite latency) is the worst reading
    worst = -math.inf if higher else math.inf

    def value(pair, side):
        v = pair[side]
        return worst if v is None else v

    base = [value(p, "base") for p in pairs]
    change = [value(p, "change") for p in pairs]
    sign = 1 if higher else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    med_b, med_c = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    scale = abs(med_b) if med_b not in (0, math.inf, -math.inf) else 1.0
    worse_by = sign * (med_b - med_c) / scale  # > 0: the change is worse
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if math.isinf(med_b) or math.isinf(med_c):
        # most runs of a side failed: only the direction can be judged
        verdict = "regressed" if sign * (med_c - med_b) < 0 else "within bound"
    elif worse_by > spec["bound"]:
        verdict = "regressed"
    elif (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
          and sign * (med_c - med_b) > spread):
        verdict = "improved"
    elif spread / scale > spec["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"

    def finite(v):
        return v if math.isfinite(v) else None

    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "median": {"base": finite(med_b), "change": finite(med_c)},
        "base_quartiles": [finite(q1), finite(q3)],
        "change_quartiles": [finite(v) for v in quartiles(change)],
        "ratio_of_medians": finite(med_c / med_b) if med_b else None,
        "better_in": f"{wins} of {len(pairs)}",
        "worse_in": f"{losses} of {len(pairs)}",
        "verdict": verdict,
    }


def judge_workload(specs: list[dict], runs: list[dict]) -> dict:
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    complete = [sides for sides in by_seed.values() if set(sides) == set(SIDES)]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        pairs = [
            {side: sides[side]["metrics"].get(name, {}).get("value") for side in SIDES}
            for sides in complete
        ]
        metrics[name] = judge_metric(spec, pairs)

    def failed_share(side):
        attempted = sum(s[side]["attempted"] for s in complete)
        return sum(s[side]["failed"] for s in complete) / attempted if attempted else None

    shares = {side: failed_share(side) for side in SIDES}
    wrong = {side: sum(1 for s in complete if not s[side]["correct"]) for side in SIDES}
    regressed = (
        any(m["verdict"] == "regressed" for m in metrics.values())
        or wrong["change"] > 0
        or (shares["change"] or 0) > (shares["base"] or 0)
    )
    return {
        "pairs": len(complete),
        "failed_share": shares,
        "wrong_answer_runs": wrong,
        "metrics": metrics,
        "regressed": regressed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--change", help="git revision to measure (default: the working tree)")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to run (repeatable; default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="seconds per run (default: run_seconds)")
    parser.add_argument("--seed-start", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--label", required=True, help="the report is BENCH_<label>.json")
    parser.add_argument("--out", type=Path, help="directory of the report (default: repository root)")
    parser.add_argument("--workdir", type=Path,
                        help="where the copies are exported (default: .bench_build/pairs)")
    parser.add_argument("--trace", action="store_true",
                        help="also run each side once traced on the first seed")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    workdir = args.workdir or root / ".bench_build" / "pairs"
    checkouts = {side: workdir / side for side in SIDES}
    for path in checkouts.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    export_revision(root, args.base, checkouts["base"])
    if args.change:
        export_revision(root, args.change, checkouts["change"])
    else:
        export_working_tree(root, checkouts["change"])

    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    # perfbench names its interpreter "python3"; run it on this one
    command = [sys.executable if a in ("python", "python3") else a for a in bench["command"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    report = {
        "base": git(root, "rev-parse", args.base).decode().strip(),
        "change": (git(root, "rev-parse", args.change).decode().strip()
                   if args.change else "working tree"),
        "command": bench["command"],
        "seconds": seconds,
        "seeds": list(range(args.seed_start, args.seed_start + args.pairs)),
        "order": "base first on odd seeds, change first on even seeds",
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in report["seeds"]:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                run = run_once(checkouts[side], command, workload, seed, seconds, 0)
                run["side"] = side
                runs.append(run)
                ops = run["metrics"].get("ops_per_s", {}).get("value")
                print(f"# {workload} seed {seed} {side}: ops_per_s {ops}", file=sys.stderr)
        summary = judge_workload(bench["end_to_end"], runs)
        summary["runs"] = runs
        if args.trace:
            summary["trace"] = {
                side: run_once(checkouts[side], command, workload, args.seed_start, seconds, 1)
                for side in SIDES
            }
        report["workloads"][workload] = summary
        verdicts = {k: m["verdict"] for k, m in summary["metrics"].items()}
        print(f"# {workload}: {verdicts}", file=sys.stderr)

    out = (args.out or root) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(out)
    return 1 if any(w["regressed"] for w in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
