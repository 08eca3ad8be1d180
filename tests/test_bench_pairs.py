"""The verdicts of ``scripts/bench_pairs.py``, on hand-made runs: no git, no benchmark."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
BASE = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25 and 106.75


def pairs(base, change):
    return [{"base": b, "change": c} for b, c in zip(base, change)]


class TestJudgeMetric:
    def test_ten_pairs_all_better_by_more_than_the_base_spread_improve(self, script):
        verdict = script.judge_metric(HIGHER, pairs(BASE, [b + 10 for b in BASE]))
        assert verdict["verdict"] == "improved"
        assert verdict["better_in"] == "10 of 10"
        assert verdict["base_quartiles"] == [102.25, 106.75]
        lower = script.judge_metric(LOWER, pairs(BASE, [b - 10 for b in BASE]))
        assert lower["verdict"] == "improved"

    def test_nine_pairs_never_claim_a_gain(self, script):
        verdict = script.judge_metric(HIGHER, pairs(BASE[:9], [b + 10 for b in BASE[:9]]))
        assert verdict["better_in"] == "9 of 9"
        assert verdict["verdict"] == "within bound"

    def test_a_gain_inside_the_base_spread_is_not_an_improvement(self, script):
        verdict = script.judge_metric(HIGHER, pairs(BASE, [b + 1 for b in BASE]))
        assert verdict["better_in"] == "10 of 10"
        assert verdict["verdict"] == "within bound"

    def test_a_median_worse_by_more_than_the_bound_regresses(self, script):
        assert script.judge_metric(HIGHER, pairs(BASE, [b * 0.7 for b in BASE]))["verdict"] == (
            "regressed"
        )
        assert script.judge_metric(LOWER, pairs(BASE, [b * 1.3 for b in BASE]))["verdict"] == (
            "regressed"
        )

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self, script):
        base = [50.0, 150.0] * 5
        verdict = script.judge_metric(HIGHER, pairs(base, list(base)))
        assert verdict["base_quartiles"] == [50.0, 150.0]
        assert verdict["verdict"] == "unresolved"

    def test_a_small_move_is_within_bound(self, script):
        verdict = script.judge_metric(HIGHER, pairs(BASE, [b - 1 for b in BASE]))
        assert verdict["worse_in"] == "10 of 10"
        assert verdict["verdict"] == "within bound"

    @pytest.mark.parametrize("spec", [HIGHER, LOWER])
    def test_missing_values_read_as_the_worst_and_regress(self, spec, script):
        change = [None] * 6 + BASE[6:]
        verdict = script.judge_metric(spec, pairs(BASE, change))
        assert verdict["median"]["change"] is None
        assert verdict["verdict"] == "regressed"


def run(seed, side, value, failed=0, attempted=100, correct=True):
    return {
        "seed": seed, "side": side, "attempted": attempted, "failed": failed,
        "correct": correct, "metrics": {"ops_per_s": {"value": value}},
    }


class TestJudgeWorkload:
    def runs(self, failed_change=0):
        return [
            r
            for seed, value in enumerate(BASE)
            for r in (run(seed, "base", value), run(seed, "change", value, failed=failed_change))
        ]

    def test_equal_runs_do_not_regress(self, script):
        summary = script.judge_workload([HIGHER], self.runs())
        assert summary["pairs"] == 10
        assert summary["failed_share"] == {"base": 0.0, "change": 0.0}
        assert summary["regressed"] is False

    def test_a_larger_failed_share_on_the_change_side_regresses(self, script):
        summary = script.judge_workload([HIGHER], self.runs(failed_change=1))
        assert summary["metrics"]["ops_per_s"]["verdict"] == "within bound"
        assert summary["failed_share"] == {"base": 0.0, "change": 0.01}
        assert summary["regressed"] is True

    def test_a_wrong_answer_on_the_change_side_regresses(self, script):
        runs = self.runs()
        runs[-1]["correct"] = False
        summary = script.judge_workload([HIGHER], runs)
        assert summary["wrong_answer_runs"] == {"base": 0, "change": 1}
        assert summary["regressed"] is True


def test_fewer_than_one_pair_is_refused_before_anything_is_exported(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_PAIRS), "--base", "HEAD", "--pairs", "0", "--label", "x",
         "--out", str(tmp_path), "--workdir", str(tmp_path / "pairs")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "--pairs" in done.stderr
    assert not (tmp_path / "pairs").exists()
    assert list(tmp_path.iterdir()) == []
