"""Serving-layer benchmark: micro-batched vs per-request concurrent scoring.

The workload is the motivating serving scenario: many concurrent clients,
each asking for a handful of single-node verdicts, against one fitted
BSG4Bot.  Measured:

* **naive** — every client calls ``DetectionSession.score_nodes`` directly;
  each request pays its own collation + model forward (the session lock
  serializes them, as any correct shared-session deployment must).
* **micro-batched** — the same offered load through
  :class:`repro.serving.DetectionService`, whose batcher coalesces
  concurrent requests into collated waves.  A ladder over client counts
  gives throughput vs offered load plus p50/p99 latency and batch occupancy.
* **model forward** — per-wave eager vs inference-mode vs replayed model
  time over the exact waves the ladder ran.
* **tracing** — traced vs untraced serving throughput.

Writes ``benchmarks/results/BENCH_serving.json`` and enforces two floors:
micro-batched throughput at the largest client count must be at least
``REPRO_SERVE_BENCH_MIN_SPEEDUP`` (default 3.0) times the naive path, and
the steady-state replayed forward must beat the eager forward by
``REPRO_REPLAY_MIN_SPEEDUP`` (default 2.0).  Correctness always asserts:
every coalesced wave replays bit-identically through serial scoring, and
teardown leaves no dispatcher thread, shared pool, or shared-memory
segment behind.

Not collected by pytest (no ``test_`` prefix); run it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py [--clients 1,8,32]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

if not __package__:  # run as a script: make the ``benchmarks`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import (
    assert_clean_teardown,
    assert_waves_match_serial,
    available_cpus,
    drive_clients,
    forward_comparison,
    measure_tracing_overhead,
)
from repro import api
from repro.datasets import load_benchmark
from repro.serving import DetectionService

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_serving.json"
NODES_PER_REQUEST = 1


def run_serving_benchmark(
    num_users: int = 200,
    clients_ladder: Sequence[int] = (1, 8, 32),
    requests_per_client: int = 16,
    max_batch_size: int = 64,
    max_wait_ms: float = 2.0,
    seed: int = 0,
    min_speedup: float = 3.0,
    min_model_speedup: float = 2.0,
) -> Dict[str, object]:
    """Run the full serving benchmark; returns the JSON-ready result dict.

    Asserts that the micro-batched path reaches ``min_speedup`` times the
    naive throughput and the replayed forward ``min_model_speedup`` times
    the eager one.
    """
    clients_ladder = sorted(set(int(count) for count in clients_ladder))
    benchmark = load_benchmark("mgtab", num_users=num_users, tweets_per_user=8, seed=seed)
    graph = benchmark.graph
    detector = api.create_detector(
        {
            "name": "bsg4bot",
            "scale": None,
            "seed": seed,
            # Deliberately light: single-node serving cost is dominated by
            # per-call overhead (collation + the op-graph walk), which is
            # exactly what micro-batching amortizes; a heavier model shifts
            # cost into per-node numpy work that batches by itself and
            # understates the scheduling win this benchmark measures.
            "overrides": {
                "pretrain_epochs": 30,
                "pretrain_hidden_dim": 8,
                "hidden_dim": 8,
                "subgraph_k": 4,
                "max_epochs": 6,
                "min_epochs": 1,
                "patience": 3,
                "batch_size": max_batch_size,
            },
        }
    )
    train_started = time.perf_counter()
    detector.fit(graph)
    train_s = time.perf_counter() - train_started

    rng = np.random.default_rng(seed + 1)
    max_clients = clients_ladder[-1]
    workloads = {
        clients: [
            [
                rng.integers(0, graph.num_nodes, size=NODES_PER_REQUEST).astype(np.int64)
                for _ in range(requests_per_client)
            ]
            for _ in range(clients)
        ]
        for clients in clients_ladder
    }
    # Pre-build every requested center once so neither path pays subgraph
    # construction inside the timed window (the comparison is about request
    # handling, not cold-store build costs, which are identical either way).
    requested = np.unique(
        np.concatenate([nodes for lists in workloads.values() for per in lists for nodes in per])
    )
    detector.predict_proba_nodes(requested)

    # ---- naive: per-request score_nodes through a shared session ----
    session = api.DetectionSession(detector, graph)
    try:
        naive = drive_clients(workloads[max_clients], session.score_nodes)
    finally:
        session.close(release_pool=False)

    # ---- micro-batched ladder over offered load ----
    ladder: List[Dict[str, object]] = []
    bit_identical_waves = 0
    recorded_waves: List[np.ndarray] = []
    dispatchers = []
    for clients in clients_ladder:
        service = DetectionService(
            detector,
            graph,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            record_waves=True,
            release_pool_on_close=False,
        )
        dispatchers.append(service._thread)
        try:
            entry = drive_clients(workloads[clients], service.score)
            service.drain()
            snapshot = service.snapshot()
            entry.update(
                batch_occupancy=snapshot["batch_occupancy"],
                requests_per_wave=snapshot["requests_per_wave"],
                waves=snapshot["waves"],
                queue_wait_p99_ms=snapshot["queue_wait"]["p99_s"] * 1000.0,
                model_time=snapshot["model_time"],
                replay_hits=snapshot["replay_hits"],
                replay_misses=snapshot["replay_misses"],
            )
            ladder.append(entry)
            recorded_waves.extend(wave_nodes for wave_nodes, _, _ in service.wave_log)
            if clients == max_clients:
                bit_identical_waves = assert_waves_match_serial(
                    detector, graph, [service], "micro-batched wave"
                )
        finally:
            service.close()

    tracing = measure_tracing_overhead(
        detector, graph, max_batch_size=max_batch_size, seed=seed + 7
    )
    assert_clean_teardown(dispatchers)

    # Per-wave model time over the exact waves the whole ladder executed
    # (1-, 8- and 32-client occupancies), in steady state.
    model_forward = forward_comparison(
        detector.model,
        [detector.store.collate(np.asarray(nodes, dtype=np.int64)) for nodes in recorded_waves],
    )

    speedup = ladder[-1]["throughput_rps"] / naive["throughput_rps"]
    result: Dict[str, object] = {
        "scale": {
            "benchmark": "mgtab",
            "num_users": num_users,
            "num_nodes": int(graph.num_nodes),
            "requests_per_client": requests_per_client,
            "nodes_per_request": NODES_PER_REQUEST,
            "max_batch_size": max_batch_size,
            "max_wait_ms": max_wait_ms,
            "seed": seed,
        },
        "available_cpus": available_cpus(),
        "train_s": train_s,
        "naive": naive,
        "batched_ladder": ladder,
        "speedup_at_max_clients": speedup,
        "bit_identical_waves": bit_identical_waves,
        "model_forward": model_forward,
        "tracing": tracing,
    }
    assert speedup >= min_speedup, (
        f"micro-batched throughput at {max_clients} clients is only "
        f"{speedup:.2f}x the naive path (required >= {min_speedup:g}x)"
    )
    model_speedup = model_forward["model_replay_speedup"]
    assert model_speedup >= min_model_speedup, (
        f"replayed model forward is only {model_speedup:.2f}x the eager "
        f"path per wave (required >= {min_model_speedup:g}x)"
    )
    return result


def format_result(result: Dict[str, object]) -> str:
    """Human-readable summary."""
    scale = result["scale"]
    naive = result["naive"]
    forward = result["model_forward"]
    tracing = result["tracing"]
    lines = [
        f"graph: {scale['benchmark']} ({scale['num_nodes']} nodes), "
        f"{scale['nodes_per_request']} node(s)/request, "
        f"batch<={scale['max_batch_size']}, wait<={scale['max_wait_ms']}ms, "
        f"{result['available_cpus']} cpu(s)",
        f"naive   {naive['clients']:>3} clients: {naive['throughput_rps']:>8.1f} req/s   "
        f"p50 {naive['p50_ms']:>7.2f}ms  p99 {naive['p99_ms']:>7.2f}ms",
    ]
    for entry in result["batched_ladder"]:
        lines.append(
            f"batched {entry['clients']:>3} clients: {entry['throughput_rps']:>8.1f} req/s   "
            f"p50 {entry['p50_ms']:>7.2f}ms  p99 {entry['p99_ms']:>7.2f}ms   "
            f"occupancy {entry['batch_occupancy']:.1f} rows/wave "
            f"({entry['waves']} waves)"
        )
    lines += [
        f"speedup at {naive['clients']} clients: "
        f"{result['speedup_at_max_clients']:.2f}x "
        f"({result['bit_identical_waves']} waves replayed bit-identically)",
        f"model forward over {forward['waves']} waves: "
        f"eager {forward['model_eager_wave_s'] * 1e3:.3f}ms/wave, "
        f"inference {forward['model_inference_wave_s'] * 1e3:.3f}ms/wave, "
        f"replay {forward['model_replay_wave_s'] * 1e3:.3f}ms/wave "
        f"({forward['model_replay_speedup']:.2f}x vs eager)",
        f"tracing overhead: {tracing['serving_untraced_rps']:.1f} req/s off, "
        f"{tracing['serving_traced_rps']:.1f} req/s at sample=1.0 "
        f"(ratio {tracing['serving_trace_overhead_ratio']:.3f})",
    ]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument(
        "--clients",
        type=lambda text: [int(part) for part in text.split(",") if part.strip()],
        default=[1, 8, 32],
    )
    parser.add_argument("--requests", type=int, default=16)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args()

    result = run_serving_benchmark(
        num_users=args.users,
        clients_ladder=args.clients,
        requests_per_client=args.requests,
        max_batch_size=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        seed=args.seed,
        min_speedup=float(os.environ.get("REPRO_SERVE_BENCH_MIN_SPEEDUP", "3.0")),
        min_model_speedup=float(os.environ.get("REPRO_REPLAY_MIN_SPEEDUP", "2.0")),
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2, default=float)
    print(f"wrote {args.output}")
    print(format_result(result))


if __name__ == "__main__":
    main()
