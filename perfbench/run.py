"""Seeded benchmark for recipegraph: one workload per process, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``corpus-cli``,
``search-sweep`` and ``large-recipes``. Each is a closed loop with one
client: the next operation starts when the previous one has returned. A run
repeats whole passes over the workload's operations, each pass in a seeded
order, until at least ``--seconds`` of operations have been timed. Every
answer is checked; a wrong one stops the run with exit code 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one pass
untraced, then installs the tracer, sets up again and runs the same pass
traced; it reports the per-layer metrics of the traced set-up and pass
(counts repeat exactly for a seed) and writes the spans to
``.bench_build/perfbench/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from random import Random

from oracles import WrongAnswer
from tracer import Tracer, per_layer_metrics
from workloads import FAILED, SETUPS, VERDICT, Context

ROOT = Path(__file__).resolve().parent.parent
# set-ups per run at least: one before each pass, the rest before the first
SETUP_REPEATS = 9
HASH_SEED = "0"
# The percentile behind op_tail_ms: the highest one that leaves at least ten
# samples above it in the fewest passes a 30-second run makes today (about
# 5000 requests for corpus-cli, 2 passes of 69 for search-sweep but still
# one if a pass ever outlasts the run, 6 passes of 46 for large-recipes).
TAIL_PERCENTILE = {"corpus-cli": 99, "search-sweep": 85, "large-recipes": 90}


def import_package():
    """Import recipegraph from scratch, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "recipegraph" or n.startswith("recipegraph.")]:
        del sys.modules[name]
    rg = importlib.import_module("recipegraph")
    importlib.import_module("recipegraph.cli")
    return rg


class Run:
    def __init__(self, workload: str, seed: int, ctx: Context):
        self.workload = workload
        self.seed = seed
        self.ctx = ctx
        self.rng = Random(seed)
        # (seconds, outcome) per attempted operation
        self.samples: list[tuple[float, str]] = []

    def setup(self, rg):
        return SETUPS[self.workload](rg, self.seed, self.ctx)

    def shuffled(self, items) -> list:
        order = list(items)
        self.rng.shuffle(order)
        return order

    def run_pass(self, ops, tracer: Tracer | None = None) -> float:
        """Run ``ops`` in order; return the timed seconds."""
        clock = time.perf_counter
        timed = 0.0
        for op_id, op in enumerate(ops):
            call = op.prepare()
            if tracer is not None:
                tracer.op_id = op_id
                tracer.enabled = True
            exc = result = None
            start = clock()
            try:
                result = call()
            except Exception as err:  # classified by the judge
                exc = err
            elapsed = clock() - start
            # the call holds the operation's inputs and their caches; free them
            # so that peak_rss_mb does not add them to the judge's memory
            del call
            if tracer is not None:
                tracer.enabled = False
            outcome = op.judge(result, exc)
            if outcome == FAILED:
                print(f"# {op.name} failed: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)
            self.samples.append((elapsed, outcome))
            timed += elapsed
        return timed

    @property
    def failed(self) -> int:
        return sum(1 for _, outcome in self.samples if outcome == FAILED)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def untraced_run(run: Run, seconds: float) -> dict:
    """Set up afresh before every pass, so set-up is sampled across the run."""
    setup_times = []

    def set_up():
        start = time.perf_counter()
        ops = run.setup(import_package())
        setup_times.append(time.perf_counter() - start)
        # drop the previous pass's garbage before timing starts
        gc.collect()
        return ops

    for _ in range(SETUP_REPEATS - 1):
        set_up()
    timed = 0.0
    while timed < seconds:
        timed += run.run_pass(run.shuffled(set_up()))
    return end_to_end(run, timed, statistics.median(setup_times))


def end_to_end(run: Run, timed: float, setup_s: float) -> dict:
    attempted = len(run.samples)
    verdicts = sum(1 for _, outcome in run.samples if outcome == VERDICT)
    failed = run.failed
    # a failed operation never answers: it counts as infinitely slow
    latencies = [math.inf if o == FAILED else s * 1000 for s, o in run.samples]
    tail_p = TAIL_PERCENTILE[run.workload]
    beyond = attempted - math.ceil(tail_p / 100 * attempted)
    print(
        f"# {run.workload} seed {run.seed}: {attempted} operations in {timed:.2f} s timed; "
        f"op_tail_ms is p{tail_p} over {attempted} samples ({beyond} beyond it); "
        f"{verdicts} verdicts, {attempted - verdicts - failed} undecided, {failed} failed"
    )
    if beyond < 10:
        print(f"# warning: only {beyond} samples beyond p{tail_p}", file=sys.stderr)

    def finite(v: float) -> float | None:
        return v if math.isfinite(v) else None

    values = {
        "ops_per_s": ("1/s", (attempted - failed) / timed),
        "op_p50_ms": ("ms", finite(percentile(latencies, 50))),
        "op_tail_ms": ("ms", finite(percentile(latencies, tail_p))),
        "decided_ratio": ("ratio", verdicts / attempted),
        "completed_ratio": ("ratio", (attempted - failed) / attempted),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "setup_s": ("s", setup_s),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}


def traced_run(run: Run) -> dict:
    rg = import_package()
    ops = run.setup(rg)
    order = run.shuffled(range(len(ops)))
    gc.collect()
    plain = run.run_pass([ops[i] for i in order])

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    ops = run.setup(rg)
    tracer.enabled = False
    gc.collect()
    traced = run.run_pass([ops[i] for i in order], tracer)

    run.ctx.workdir.mkdir(parents=True, exist_ok=True)
    path = run.ctx.workdir / f"trace-{run.workload}-seed{run.seed}.json"
    tracer.dump(path, {"workload": run.workload, "seed": run.seed})
    print(f"# spans written to {path}")
    return per_layer_metrics(tracer, 100 * (traced / plain - 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Set and string iteration order follows the interpreter's hash seed; fix
    # it so that every run of a seed makes exactly the same calls.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )

    src = ROOT / "src"
    if not (src / "recipegraph" / "__init__.py").is_file():
        print(f"recipegraph sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    run = Run(args.workload, args.seed, Context(ROOT, ROOT / ".bench_build" / "perfbench"))
    try:
        metrics = traced_run(run) if args.trace else untraced_run(run, args.seconds)
    except WrongAnswer as err:
        print(f"wrong answer: {err}", file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": len(run.samples), "failed": run.failed, "metrics": {},
        }))
        return 1
    print(json.dumps({
        "correct": True, "attempted": len(run.samples), "failed": run.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
