"""The benchmark scripts import both ways, and the shared harness helpers
behave (no benchmark runs here)."""

from __future__ import annotations

import importlib
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from benchmarks.harness import (
    assert_clean_teardown,
    available_cpus,
    best_of,
    drive_clients,
    percentiles_ms,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"
SCRIPT_MODULES = sorted(
    path.stem
    for path in BENCH_DIR.glob("*.py")
    if not path.stem.startswith("test_") and path.stem not in ("__init__", "conftest")
)


def test_script_modules_found():
    assert {"harness", "perf_gate", "bench_serving", "bench_cluster"} <= set(SCRIPT_MODULES)


@pytest.mark.parametrize("name", SCRIPT_MODULES)
def test_imports_as_package_module(name):
    importlib.import_module(f"benchmarks.{name}")


@pytest.mark.parametrize("name", SCRIPT_MODULES)
def test_imports_in_script_mode(name, tmp_path):
    # As CI runs ``python benchmarks/<name>.py``: benchmarks/ is sys.path[0]
    # and the repository root is not on the path.
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        f"importlib.import_module({name!r})\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


class TestBestOf:
    def test_returns_seconds_and_last_result(self):
        counter = itertools.count()
        seconds, result = best_of(3, lambda: next(counter))
        assert result == 2
        assert isinstance(seconds, float) and 0.0 <= seconds < 1.0


class TestDriveClients:
    def test_counts_every_request(self):
        seen = []
        lock = threading.Lock()

        def call(nodes):
            with lock:
                seen.append(tuple(nodes))

        node_lists = [[np.array([client, index]) for index in range(3)] for client in range(4)]
        result = drive_clients(node_lists, call)
        assert result["clients"] == 4 and result["requests"] == 12
        assert sorted(seen) == sorted((c, i) for c in range(4) for i in range(3))
        assert result["throughput_rps"] > 0
        assert result["p50_ms"] <= result["p99_ms"]

    def test_reraises_a_failing_call(self):
        class Boom(RuntimeError):
            pass

        def call(nodes):
            if nodes[0] == 2:
                raise Boom("client 2 failed")

        with pytest.raises(Boom, match="client 2 failed"):
            drive_clients([[np.array([client])] for client in range(4)], call)


class TestPercentiles:
    def test_milliseconds_of_seconds(self):
        stats = percentiles_ms([0.001, 0.002, 0.003])
        assert stats["p50_ms"] == pytest.approx(2.0)
        assert stats["mean_ms"] == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert percentiles_ms([]) == {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}


def test_available_cpus_follows_affinity():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    assert available_cpus() == len(os.sched_getaffinity(0))


def test_teardown_check_fails_on_a_live_dispatcher():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        with pytest.raises(AssertionError, match="dispatcher thread survived"):
            assert_clean_teardown([thread])
    finally:
        stop.set()
        thread.join()
    assert_clean_teardown([thread])
