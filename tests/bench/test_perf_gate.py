"""Tests for the CI perf gate (repro.bench.perf's gates and bounds table)
and for the ``repro perf`` run that records what the gate compares."""

import json
import os
import shutil

from repro.bench.perf import (
    PERF_BOUNDS,
    SCHEMA_VERSION,
    SUITE_RATE_KEYS,
    SUITES,
    check_bound,
    gate_cache_hit_rate,
    gate_fanin_wall_growth,
    gate_regressions,
)
from repro.cli import main

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def write_trajectory(path, suite, entries):
    data = {"schema": SCHEMA_VERSION, "suite": suite, "history": entries}
    path.write_text(json.dumps(data))


def entry(label, rate, scale="tiny", rate_key="events_per_sec",
          workload="w1"):
    return {
        "label": label,
        "scale": scale,
        "results": {workload: {rate_key: rate, "wall_seconds": 1.0}},
    }


class TestGateRegressions:
    def test_within_tolerance_passes(self, tmp_path):
        p = tmp_path / "BENCH_kernel.json"
        write_trajectory(p, "kernel",
                         [entry("base", 1000.0), entry("new", 800.0)])
        assert gate_regressions(str(p), "kernel", "base", "new",
                                max_regression=0.25) == []

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        p = tmp_path / "BENCH_kernel.json"
        write_trajectory(p, "kernel",
                         [entry("base", 1000.0), entry("new", 700.0)])
        failures = gate_regressions(str(p), "kernel", "base", "new",
                                    max_regression=0.25)
        assert len(failures) == 1
        assert "kernel/w1" in failures[0]

    def test_improvement_passes(self, tmp_path):
        p = tmp_path / "BENCH_kernel.json"
        write_trajectory(p, "kernel",
                         [entry("base", 1000.0), entry("new", 2000.0)])
        assert gate_regressions(str(p), "kernel", "base", "new") == []

    def test_missing_baseline_skips(self, tmp_path):
        p = tmp_path / "BENCH_kernel.json"
        write_trajectory(p, "kernel", [entry("new", 1000.0)])
        assert gate_regressions(str(p), "kernel", "base", "new") is None

    def test_missing_file_skips(self, tmp_path):
        missing = tmp_path / "BENCH_kernel.json"
        assert gate_regressions(str(missing), "kernel", "base", "new") is None

    def test_scale_mismatch_skips(self, tmp_path):
        p = tmp_path / "BENCH_kernel.json"
        write_trajectory(p, "kernel",
                         [entry("base", 1000.0, scale="full"),
                          entry("new", 100.0, scale="tiny")])
        assert gate_regressions(str(p), "kernel", "base", "new") is None

    def test_new_workload_without_baseline_is_ignored(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        base = entry("base", 1000.0, rate_key="wall_ops_per_sec")
        new = entry("new", 900.0, rate_key="wall_ops_per_sec")
        new["results"]["brand_new_point"] = {"wall_ops_per_sec": 1.0}
        write_trajectory(p, "e2e", [base, new])
        assert gate_regressions(str(p), "e2e", "base", "new") == []

    def test_every_suite_has_a_rate_key(self):
        assert set(SUITE_RATE_KEYS) == {"kernel", "rpc", "store", "e2e"}

    def test_committed_baselines_exist_at_tiny_scale(self):
        """The CI gate only bites if these stay committed."""
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        for suite in ("kernel", "rpc", "store", "e2e"):
            path = os.path.join(root, f"BENCH_{suite}.json")
            with open(path) as f:
                history = json.load(f)["history"]
            assert any(
                e["label"] == "ci-baseline" and e["scale"] == "tiny"
                for e in history
            ), f"BENCH_{suite}.json lost its committed ci-baseline entry"


def fanin_entry(label, small_wall, large_wall, scale="tiny"):
    return {
        "label": label,
        "scale": scale,
        "results": {
            "fanin_10k_users": {"wall_seconds": small_wall,
                                "wall_ops_per_sec": 1000.0},
            "fanin_100k_users": {"wall_seconds": large_wall,
                                 "wall_ops_per_sec": 1000.0},
        },
    }


class TestGateFaninWallGrowth:
    def test_flat_wall_passes(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [fanin_entry("new", 0.10, 0.12)])
        assert gate_fanin_wall_growth(str(p), "new") == []

    def test_wall_growth_beyond_limit_fails(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [fanin_entry("new", 0.10, 0.20)])
        failures = gate_fanin_wall_growth(str(p), "new", max_growth=1.5)
        assert len(failures) == 1
        assert "fanin_100k_users" in failures[0]
        assert "O(load)" in failures[0]

    def test_boundary_ratio_passes(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [fanin_entry("new", 0.10, 0.15)])
        assert gate_fanin_wall_growth(str(p), "new", max_growth=1.5) == []

    def test_missing_label_skips(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [fanin_entry("other", 0.1, 0.1)])
        assert gate_fanin_wall_growth(str(p), "new") is None

    def test_missing_arm_skips(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        e = fanin_entry("new", 0.1, 0.1)
        del e["results"]["fanin_100k_users"]
        write_trajectory(p, "e2e", [e])
        assert gate_fanin_wall_growth(str(p), "new") is None

    def test_missing_file_skips(self, tmp_path):
        assert gate_fanin_wall_growth(str(tmp_path / "nope.json"), "new") is None


def cache_entry(label, hit_rate, workload="switch_cache_hotspot_stat_large"):
    return {
        "label": label,
        "scale": "tiny",
        "results": {workload: {"cache_hit_rate": hit_rate,
                               "wall_ops_per_sec": 1000.0,
                               "wall_seconds": 1.0}},
    }


class TestGateCacheHitRate:
    def test_hit_rate_above_floor_passes(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [cache_entry("new", 0.79)])
        assert gate_cache_hit_rate(str(p), "new", min_hit_rate=0.5) == []

    def test_hit_rate_below_floor_fails(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [cache_entry("new", 0.3)])
        failures = gate_cache_hit_rate(str(p), "new", min_hit_rate=0.5)
        assert len(failures) == 1
        assert "switch_cache_hotspot_stat_large" in failures[0]

    def test_missing_file_skips(self, tmp_path):
        assert gate_cache_hit_rate(str(tmp_path / "nope.json"), "new") is None

    def test_missing_label_skips(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [cache_entry("other", 0.79)])
        assert gate_cache_hit_rate(str(p), "new") is None

    def test_missing_workload_skips(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        write_trajectory(p, "e2e", [cache_entry("new", 0.79, workload="other")])
        assert gate_cache_hit_rate(str(p), "new") is None

    def test_missing_hit_rate_key_skips(self, tmp_path):
        p = tmp_path / "BENCH_e2e.json"
        e = cache_entry("new", 0.79)
        del e["results"]["switch_cache_hotspot_stat_large"]["cache_hit_rate"]
        write_trajectory(p, "e2e", [e])
        assert gate_cache_hit_rate(str(p), "new") is None


class TestUnifiedPerfRun:
    """``repro perf --tiny`` records every point the CI gate compares.

    Wall-clock ratios are host noise, so nothing here asserts a pass or
    a failure of the gate — only that it has something to compare.
    """

    def test_records_the_gated_points(self, tmp_path, capsys):
        for suite in SUITES.values():
            shutil.copy(os.path.join(REPO_ROOT, suite.filename), tmp_path)
        assert main(["perf", "--tiny", "--label", "t",
                     "--out-dir", str(tmp_path)]) == 0
        for suite in SUITES.values():
            with open(tmp_path / suite.filename) as f:
                history = json.load(f)["history"]
            by_label = {e["label"]: e for e in history}
            base = by_label["ci-baseline"]["results"]
            new = by_label["t"]["results"]
            assert list(new) == list(base), suite.name
            for name in base:
                assert set(new[name]) == set(base[name]), (suite.name, name)
        for bound in PERF_BOUNDS:
            assert check_bound(bound, str(tmp_path), "ci-baseline", "t") \
                is not None, bound.name

    def test_bounds_table_keeps_the_ci_thresholds(self):
        limits = {(b.check, b.suite): b.limit for b in PERF_BOUNDS}
        assert limits == {
            **{("wall_drop", s): 0.25 for s in ("kernel", "rpc", "store", "e2e")},
            ("hit_rate_floor", "e2e"): 0.5,
            ("wall_growth", "e2e"): 1.5,
        }

    def test_best_of_counts(self):
        assert {w.best_of for s in ("kernel", "rpc", "store")
                for w in SUITES[s].workloads} == {3}
        counts = {
            name: w.best_of
            for w in SUITES["e2e"].workloads
            for name in w.points(**w.tiny)
        }
        assert counts == {
            "fig11_hotspot_create": 2,
            **{f"switch_cache_{w}_{a}": 1
               for w in ("hotspot_stat", "dcs_mix")
               for a in ("off", "small", "large")},
            "elasticity_scale_up_down": 1,
            "fanin_10k_users": 2,
            "fanin_100k_users": 2,
            "fanin_scaleup": 2,
        }
