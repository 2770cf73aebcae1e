"""Unit tests for the perf gate's comparison logic (no benchmarks run)."""

from __future__ import annotations

import json

from benchmarks.harness import available_cpus
from benchmarks.perf_gate import (
    check,
    check_relative,
    load_baseline,
    merge_baseline,
    store_baseline,
)

THRESHOLDS = {
    "metrics": {
        "sweep_s": {"max": 2.0},
        "speedup": {"min": 4.0},
    }
}


class TestAbsoluteCheck:
    def test_passes_within_bounds(self):
        assert check({"sweep_s": 1.0, "speedup": 5.0}, THRESHOLDS, 1.5) == []

    def test_tolerance_scales_max_but_not_min(self):
        # 2.9 < 2.0 * 1.5 passes; a ratio below its floor fails regardless.
        assert check({"sweep_s": 2.9, "speedup": 5.0}, THRESHOLDS, 1.5) == []
        failures = check({"sweep_s": 1.0, "speedup": 3.9}, THRESHOLDS, 1.5)
        assert len(failures) == 1 and "speedup" in failures[0]

    def test_missing_metric_fails(self):
        failures = check({"sweep_s": 1.0}, THRESHOLDS, 1.5)
        assert len(failures) == 1 and "missing" in failures[0]


class TestRelativeCheck:
    BASELINE = {"sweep_s": 1.0, "speedup": 6.0}

    def test_passes_within_relative_tolerance(self):
        metrics = {"sweep_s": 1.4, "speedup": 4.5}
        assert check_relative(metrics, self.BASELINE, THRESHOLDS, 1.6) == []

    def test_wall_clock_growth_beyond_tolerance_fails(self):
        failures = check_relative(
            {"sweep_s": 1.7, "speedup": 6.0}, self.BASELINE, THRESHOLDS, 1.6
        )
        assert len(failures) == 1 and "sweep_s" in failures[0]

    def test_ratio_shrink_beyond_tolerance_fails(self):
        failures = check_relative(
            {"sweep_s": 1.0, "speedup": 3.0}, self.BASELINE, THRESHOLDS, 1.6
        )
        assert len(failures) == 1 and "speedup" in failures[0]

    def test_metric_absent_from_baseline_is_skipped(self):
        # A newly added benchmark has no baseline yet: the absolute bounds
        # cover it, the relative pass must not fail it.
        assert check_relative(
            {"sweep_s": 1.0, "speedup": 6.0, "new_metric": 9.9},
            {"speedup": 6.0},
            {"metrics": {**THRESHOLDS["metrics"], "new_metric": {"max": 1.0}}},
            1.6,
        ) == []


class TestMergeBaseline:
    def test_keeps_best_per_direction(self):
        # Slower wall-clock and worse ratio: the stored best must not loosen.
        merged = merge_baseline(
            {"sweep_s": 1.3, "speedup": 5.0}, {"sweep_s": 1.0, "speedup": 6.0}, THRESHOLDS
        )
        assert merged == {"sweep_s": 1.0, "speedup": 6.0}

    def test_improvements_ratchet_in(self):
        merged = merge_baseline(
            {"sweep_s": 0.8, "speedup": 7.0}, {"sweep_s": 1.0, "speedup": 6.0}, THRESHOLDS
        )
        assert merged == {"sweep_s": 0.8, "speedup": 7.0}

    def test_slow_drift_accumulates_against_rolling_best(self):
        # The scenario the rolling best exists for: +50% per run passes a
        # 1.6x per-run check forever if the baseline follows along; against
        # the rolling best the second step already fails.
        baseline = {"sweep_s": 1.0, "speedup": 6.0}
        step_one = {"sweep_s": 1.5, "speedup": 6.0}
        assert check_relative(step_one, baseline, THRESHOLDS, 1.6) == []
        baseline = merge_baseline(step_one, baseline, THRESHOLDS)
        step_two = {"sweep_s": 2.25, "speedup": 6.0}
        assert check_relative(step_two, baseline, THRESHOLDS, 1.6) != []

    def test_new_metrics_pass_through(self):
        merged = merge_baseline(
            {"sweep_s": 1.2, "speedup": 6.5, "fresh": 3.0},
            {"sweep_s": 1.0},
            THRESHOLDS,
        )
        assert merged["fresh"] == 3.0 and merged["speedup"] == 6.5
        assert merged["sweep_s"] == 1.0


class TestLoadBaseline:
    def test_reads_metrics_from_result_file(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"metrics": {"sweep_s": 1.25}}))
        assert load_baseline(path) == {"sweep_s": 1.25}

    def test_missing_file_yields_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_corrupt_file_yields_empty(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{ truncated")
        assert load_baseline(path) == {}

    def test_wrong_shape_yields_empty(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"metrics": [1, 2, 3]}))
        assert load_baseline(path) == {}


class TestCpuKeyedBaseline:
    TWO_CPU_BEST = {"sweep_s": 1.0, "speedup": 6.0}

    def test_other_cpu_count_is_neither_read_nor_overwritten(self, tmp_path):
        path = tmp_path / "baseline.json"
        store_baseline(path, self.TWO_CPU_BEST, 2, {})
        # A 1-CPU run has no baseline of its own: the 2-CPU best must not
        # fail it, and its passing result must not replace the 2-CPU best.
        assert load_baseline(path, 1) == {}
        one_cpu = {"sweep_s": 3.0, "speedup": 2.0}
        assert check_relative(one_cpu, load_baseline(path, 1), THRESHOLDS, 1.6) == []
        store_baseline(path, merge_baseline(one_cpu, load_baseline(path, 1), THRESHOLDS), 1, {})
        assert load_baseline(path, 1) == one_cpu
        assert load_baseline(path, 2) == self.TWO_CPU_BEST

    def test_legacy_flat_file_is_enforced(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"metrics": self.TWO_CPU_BEST}))
        for cpus in (1, 2):
            baseline = load_baseline(path, cpus)
            assert baseline == self.TWO_CPU_BEST
            failures = check_relative(
                {"sweep_s": 1.7, "speedup": 6.0}, baseline, THRESHOLDS, 1.6
            )
            assert len(failures) == 1 and "sweep_s" in failures[0]

    def test_legacy_flat_file_is_rekeyed_to_the_run_that_merged_it(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"metrics": self.TWO_CPU_BEST}))
        run = {"sweep_s": 1.2, "speedup": 7.0}
        store_baseline(path, merge_baseline(run, load_baseline(path, 1), THRESHOLDS), 1, {})
        assert set(json.loads(path.read_text())["metrics_by_cpus"]) == {"1"}
        assert load_baseline(path, 1) == {"sweep_s": 1.0, "speedup": 7.0}
        assert load_baseline(path, 2) == {}

    def test_defaults_to_this_hosts_cpu_count(self, tmp_path):
        path = tmp_path / "baseline.json"
        store_baseline(path, self.TWO_CPU_BEST, available_cpus(), {})
        assert load_baseline(path) == self.TWO_CPU_BEST
