"""Cluster-layer benchmark: scoring throughput vs shard count.

The workload is the horizontal-scaling scenario the cluster layer exists
for: many concurrent clients scoring small node lists against one fitted
BSG4Bot, served first by a single-shard router, then by progressively
wider shard ladders over the *same* artifact and the *same* offered load.

Traffic is **partition-local**: each client's nodes are drawn from one
shard's owned set (the greedy partition groups graph communities, and real
scoring traffic clusters by community — the accounts interacting with a
suspected botnet live in its neighborhood).  Requests route whole to their
shard, shards fill their own waves, and wave execution — whose cost is
dominated by numpy/BLAS kernels that release the GIL — overlaps across
shard dispatcher threads.  The headline ratio is

    cluster_throughput_scaling = throughput(max shards) / throughput(1 shard)

**This ratio can only exceed 1.0 on a multi-core host.**  Sharding one
process never reduces the total work per request (the shards compute
bit-identically what one session would); it buys the right to execute
waves concurrently.  The result records ``available_cpus`` and the floor
``REPRO_CLUSTER_MIN_SCALING`` defaults by host (:func:`default_min_scaling`):
≥2 CPUs must show real scaling (≥1.05x), one CPU must show bounded
sharding overhead (≥0.60x).

Correctness always asserts: every recorded wave on every shard replays
bit-identically through a serial full-graph ``score_nodes`` call (the
shard halo contract), one streaming update fans out with read-your-writes,
and teardown leaves no dispatcher thread, shared pool, or shared-memory
segment behind.

Writes ``benchmarks/results/BENCH_cluster.json``.  Not collected by pytest
(no ``test_`` prefix); run it directly::

    PYTHONPATH=src python benchmarks/bench_cluster.py [--shards 1,2,4]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

if not __package__:  # run as a script: make the ``benchmarks`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import (
    assert_clean_teardown,
    assert_waves_match_serial,
    available_cpus,
    drive_clients,
)
from repro import api
from repro.datasets import load_benchmark
from repro.datasets.adapters import SyntheticBotnetAdapter
from repro.serving.cluster import ShardRouter, plan_shards

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_cluster.json"
NODES_PER_REQUEST = 4

#: Deliberately light training schedule — the benchmark measures request
#: handling, not fitting — but a wide enough hidden layer that the per-wave
#: forward spends real time inside GIL-releasing BLAS kernels (that is the
#: overlap horizontal sharding buys on one process).
DEFAULT_OVERRIDES = {
    "pretrain_epochs": 20,
    "pretrain_hidden_dim": 32,
    "hidden_dim": 64,
    "subgraph_k": 8,
    "max_epochs": 4,
    "min_epochs": 1,
    "patience": 2,
    "batch_size": 64,
}


def _partition_local_workload(
    rng: np.random.Generator,
    ownership: np.ndarray,
    num_shards: int,
    clients: int,
    requests_per_client: int,
) -> List[List[np.ndarray]]:
    """Each client's requests stay inside one shard's owned node set.

    Clients round-robin over the shards of the *widest* rung, so every
    rung sees the same byte-identical request stream: the 1-shard rung
    serves it all from one dispatcher, wider rungs split it by ownership
    without fragmenting any single request.
    """
    owned_sets = [
        np.flatnonzero(ownership == shard_id) for shard_id in range(num_shards)
    ]
    return [
        [
            rng.choice(owned_sets[client % num_shards], size=NODES_PER_REQUEST)
            .astype(np.int64)
            for _ in range(requests_per_client)
        ]
        for client in range(clients)
    ]


def run_cluster_benchmark(
    num_users: int = 400,
    shard_ladder: Sequence[int] = (1, 2),
    clients: int = 16,
    requests_per_client: int = 16,
    max_batch_size: int = 64,
    max_wait_ms: float = 6.0,
    seed: int = 0,
    min_scaling: Optional[float] = None,
    overrides: Optional[Dict[str, object]] = None,
    dataset: str = "mgtab",
) -> Dict[str, object]:
    """Run the shard-scaling benchmark; returns the JSON-ready result dict.

    Each rung drives the workload once untimed (warming the replay
    engine's shape buckets and the OS scheduler) and then two timed
    passes, keeping the best — shared runners are noisy and the
    headline is a *ratio* of two wall-clock numbers.  ``min_scaling``
    (when given) turns that ratio into an assertion.
    """
    shard_ladder = sorted(set(int(count) for count in shard_ladder))
    if shard_ladder[0] != 1:
        raise ValueError("shard_ladder must include the 1-shard baseline rung")
    if dataset == "synthetic":
        # The adapter-backed generator reaches node counts the bundled
        # benchmarks can't, with ground-truth labels for free.
        graph = SyntheticBotnetAdapter(
            num_users=num_users, num_communities=max(4, num_users // 100),
            avg_degree=6.0, seed=seed,
        ).ingest()
    elif dataset == "mgtab":
        graph = load_benchmark(
            "mgtab", num_users=num_users, tweets_per_user=8, seed=seed
        ).graph
    else:
        raise ValueError(f"unknown benchmark dataset {dataset!r} (mgtab|synthetic)")
    detector = api.create_detector(
        {
            "name": "bsg4bot",
            "scale": None,
            "seed": seed,
            "overrides": dict(overrides if overrides is not None else DEFAULT_OVERRIDES),
        }
    )
    train_started = time.perf_counter()
    detector.fit(graph)
    train_s = time.perf_counter() - train_started

    # Partition-local workload, drawn against the widest rung's ownership
    # (plan_shards is deterministic in (graph, num_shards, seed), so the
    # widest rung's router recomputes the identical partition).
    rng = np.random.default_rng(seed + 1)
    ownership = plan_shards(graph, shard_ladder[-1], seed=seed, verify=False).ownership
    workload = _partition_local_workload(
        rng, ownership, shard_ladder[-1], clients, requests_per_client
    )
    # Pre-build every requested center before the artifact is written: the
    # saved store then warm-starts every shard on every rung, so no rung
    # pays cold subgraph construction inside its timed window.
    requested = np.unique(np.concatenate([n for per in workload for n in per]))
    detector.predict_proba_nodes(requested)

    ladder: List[Dict[str, object]] = []
    bit_identical_waves = 0
    dispatchers = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as scratch:
        artifact = api.save_detector(detector, Path(scratch) / "artifact")
        for num_shards in shard_ladder:
            router = ShardRouter.from_artifact(
                artifact,
                graph=graph,
                num_shards=num_shards,
                seed=seed,
                release_pool_on_close=False,
                max_batch_size=max_batch_size,
                max_wait_ms=max_wait_ms,
                record_waves=True,
            )
            dispatchers.extend(service._thread for service in router.services)
            try:
                call = lambda nodes: router.score(nodes, timeout=60.0)  # noqa: E731
                drive_clients(workload, call)  # warmup: replay buckets, caches
                entry = max(
                    (drive_clients(workload, call) for _ in range(2)),
                    key=lambda run: run["throughput_rps"],
                )
                # One streaming update mid-semantics check: the fan-out must
                # acknowledge on every shard it touches (read-your-writes).
                node = int(requested[0])
                sequences = router.submit_update(
                    features_changed={node: graph.features[node].copy()}
                )
                assert sequences, "feature delta fanned out to no shard"
                router.drain()
                snapshot = router.snapshot()
                totals = snapshot["cluster_totals"]
                entry.update(
                    num_shards=num_shards,
                    waves=totals["waves"],
                    batch_occupancy=totals["wave_nodes"] / max(totals["waves"], 1),
                    delta_shards_touched=len(sequences),
                    plan=snapshot["plan"],
                )
                ladder.append(entry)
                # Per-shard halo contract (the one delta above rewrote a
                # feature row with its current value, changing nothing — one
                # oracle covers the whole rung).
                bit_identical_waves += assert_waves_match_serial(
                    detector, graph, router.services,
                    f"sharded wave at {num_shards} shard(s)",
                )
            finally:
                router.close()
    assert_clean_teardown(dispatchers)

    scaling = ladder[-1]["throughput_rps"] / ladder[0]["throughput_rps"]
    result: Dict[str, object] = {
        "scale": {
            "benchmark": dataset,
            "num_users": num_users,
            "num_nodes": int(graph.num_nodes),
            "clients": clients,
            "requests_per_client": requests_per_client,
            "nodes_per_request": NODES_PER_REQUEST,
            "max_batch_size": max_batch_size,
            "max_wait_ms": max_wait_ms,
            "seed": seed,
            "partition_local": True,
        },
        "available_cpus": available_cpus(),
        "train_s": train_s,
        "shard_ladder": ladder,
        "cluster_throughput_scaling": scaling,
        "bit_identical_waves": bit_identical_waves,
    }
    if min_scaling is not None:
        assert scaling >= min_scaling, (
            f"{ladder[-1]['num_shards']}-shard throughput is only {scaling:.2f}x "
            f"the 1-shard baseline (required >= {min_scaling:g}x on "
            f"{result['available_cpus']} CPU(s))"
        )
    return result


def default_min_scaling(cpus: int) -> float:
    """Host-aware acceptance floor for the scaling ratio.

    On ≥2 CPUs shard dispatchers genuinely overlap, so the widest rung must
    *beat* the single-shard baseline.  On one CPU the ceiling is ~1.0 by
    conservation of work (same waves, one core), so the claim the floor can
    honestly enforce is *bounded sharding overhead*: fan-out, fan-in, and
    GIL handoff between dispatchers may not cost more than ~40% of baseline
    throughput.
    """
    return 1.05 if cpus >= 2 else 0.60


def format_result(result: Dict[str, object]) -> str:
    """Human-readable summary."""
    scale = result["scale"]
    lines = [
        f"graph: {scale['benchmark']} ({scale['num_nodes']} nodes), "
        f"{scale['clients']} clients x {scale['requests_per_client']} "
        f"partition-local requests, batch<={scale['max_batch_size']}, "
        f"wait<={scale['max_wait_ms']}ms, {result['available_cpus']} cpu(s)"
    ]
    for entry in result["shard_ladder"]:
        lines.append(
            f"{entry['num_shards']:>2} shard(s): {entry['throughput_rps']:>8.1f} req/s   "
            f"p50 {entry['p50_ms']:>7.2f}ms  p99 {entry['p99_ms']:>7.2f}ms   "
            f"occupancy {entry['batch_occupancy']:.1f} rows/wave "
            f"({entry['waves']} waves, halos {entry['plan']['halo_hops']})"
        )
    lines.append(
        f"scaling at {result['shard_ladder'][-1]['num_shards']} shards: "
        f"{result['cluster_throughput_scaling']:.2f}x the 1-shard baseline "
        f"({result['bit_identical_waves']} waves replayed bit-identically)"
    )
    if result["available_cpus"] < 2:
        lines.append(
            "note: single available CPU — shard dispatchers cannot overlap, "
            "so the ratio's ceiling here is ~1.0 (the floor checks bounded "
            "sharding overhead; run on >=2 cores to express real scaling)"
        )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=400)
    parser.add_argument(
        "--shards",
        type=lambda text: [int(part) for part in text.split(",") if part.strip()],
        default=[1, 2],
    )
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--requests", type=int, default=16)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dataset", choices=("mgtab", "synthetic"), default="mgtab",
        help="graph source: bundled mgtab, or the synthetic botnet adapter "
        "(reaches --users counts the bundled benchmarks cannot)",
    )
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args()

    min_scaling = float(
        os.environ.get("REPRO_CLUSTER_MIN_SCALING", default_min_scaling(available_cpus()))
    )
    result = run_cluster_benchmark(
        num_users=args.users,
        shard_ladder=args.shards,
        clients=args.clients,
        requests_per_client=args.requests,
        max_batch_size=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        seed=args.seed,
        min_scaling=min_scaling,
        dataset=args.dataset,
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2, default=float)
    print(f"wrote {args.output}")
    print(format_result(result))


if __name__ == "__main__":
    main()
