"""Million-node scale engine benchmark: memory, throughput, update latency.

Synthesizes a large sparse multi-relation graph (no dataset download, fixed
seed) and measures the three scale mechanisms this engine relies on:

* **PPR residual memory** — the PPR engine's peak residual+estimate block
  against one full-width ``2 * sources * num_nodes`` block across a
  node-count ladder at a fixed source count, each sweep checked bitwise
  against a full-width run.  Beyond the block budget the engine stores
  chunks compactly, so its peak follows the push's touched set and stays
  roughly flat while the full-width block grows linearly in ``num_nodes``.
* **Build throughput** — ``build_store`` subgraphs/second single-process vs
  the shared-memory worker pool, plus the bytes that actually travel to a
  worker per shard (segment names vs a full builder pickle).
* **Update latency** — the streaming-update hot cost: re-symmetrizing one
  touched relation (`refresh_relations`) vs rebuilding the whole builder.

Writes ``benchmarks/results/BENCH_scale.json``.  Not collected by pytest
(no ``test_`` prefix); run it directly::

    PYTHONPATH=src python benchmarks/bench_scale.py [--nodes 200000]
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

import numpy as np

if not __package__:  # run as a script: make the ``benchmarks`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import available_cpus
from repro.datasets.adapters import SyntheticBotnetAdapter
from repro.graph import HeteroGraph
from repro.ppr import multi_source_ppr
from repro.ppr.batch import _BLOCK_BUDGET
from repro.sampling import BiasedSubgraphBuilder
from repro.sampling.biased import shutdown_shared_pool

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_scale.json"

NUM_SOURCES = 64
PPR_EPSILON = 1e-3
FEATURE_DIM = 16
SUBGRAPH_K = 16


def synth_graph(num_nodes: int, avg_degree: int, num_relations: int, seed: int) -> HeteroGraph:
    """Synthetic botnet graph via the dataset adapter (ground-truth labels).

    Backed by :class:`repro.datasets.adapters.SyntheticBotnetAdapter`, so the
    scale bench exercises the same chunked-ingestion path users hit with
    ``repro ingest`` — and gets realistic homophily structure instead of the
    uniform random edges this helper used to draw.
    """
    adapter = SyntheticBotnetAdapter(
        num_users=num_nodes,
        avg_degree=float(avg_degree),
        num_relations=num_relations,
        num_communities=max(4, num_nodes // 50_000),
        feature_dim=FEATURE_DIM - 8,
        temporal_dim=8,
        seed=seed,
    )
    return adapter.ingest()


def measure_residual_memory(num_nodes: int, avg_degree: int) -> dict:
    """PPR engine peak block vs one full-width block over a node-count ladder.

    Each sweep is checked bitwise against a full-width run, forced with
    chunks small enough for their full-width block to fit the budget.
    """
    ladder = []
    for n in (num_nodes // 4, num_nodes // 2, num_nodes):
        graph = synth_graph(n, avg_degree, num_relations=1, seed=11)
        adjacency = graph.relation(graph.relation_names[0]).adjacency()
        adjacency = (adjacency + adjacency.T).tocsr()
        sources = np.arange(NUM_SOURCES)
        stats: dict = {}
        start = time.process_time()
        scores = multi_source_ppr(adjacency, sources, epsilon=PPR_EPSILON, stats=stats)
        sweep_s = time.process_time() - start
        full_width = multi_source_ppr(
            adjacency,
            sources,
            epsilon=PPR_EPSILON,
            chunk_rows=max(1, _BLOCK_BUDGET // (2 * n)),
        )
        assert (scores != full_width).nnz == 0, "PPR sweep diverged from the full-width run"
        assert scores.data.tobytes() == full_width.data.tobytes(), "PPR sweep bits diverged"
        full_width_floats = 2 * NUM_SOURCES * n
        ladder.append(
            {
                "num_nodes": n,
                "sweep_s": sweep_s,
                "chunk_rows": stats["chunk_rows"],
                "peak_block_floats": int(stats["peak_block_floats"]),
                "full_width_block_floats": full_width_floats,
                "peak_ratio": full_width_floats / stats["peak_block_floats"],
                "touched_nnz": int(scores.nnz),
            }
        )
    first, last = ladder[0], ladder[-1]
    return {
        "num_sources": NUM_SOURCES,
        "epsilon": PPR_EPSILON,
        "block_budget_floats": _BLOCK_BUDGET,
        "ladder": ladder,
        # Peak-memory growth across a 4x node-count increase: a full-width
        # block grows 4x; the engine's compact chunks follow the touched set.
        "peak_growth": last["peak_block_floats"] / first["peak_block_floats"],
    }


def measure_build_throughput(graph: HeteroGraph, centers: int, workers: int) -> dict:
    rng = np.random.default_rng(3)
    embeddings = rng.standard_normal((graph.num_nodes, FEATURE_DIM))
    frontier = rng.choice(graph.num_nodes, size=centers, replace=False)

    builder = BiasedSubgraphBuilder(graph, embeddings, k=SUBGRAPH_K, epsilon=PPR_EPSILON)
    start = time.perf_counter()
    store = builder.build_store(frontier)
    serial_s = time.perf_counter() - start

    pooled_builder = BiasedSubgraphBuilder(graph, embeddings, k=SUBGRAPH_K, epsilon=PPR_EPSILON)
    start = time.perf_counter()
    pooled_store = pooled_builder.build_store(frontier, workers=workers)
    pooled_s = time.perf_counter() - start
    assert sorted(store.nodes()) == sorted(pooled_store.nodes())

    payload_bytes = len(pickle.dumps(pooled_builder.share_memory()))
    builder_bytes = len(pickle.dumps(builder))
    shutdown_shared_pool()
    return {
        "centers": centers,
        "workers": workers,
        # Pooling only wins wall-clock with real cores to spread over; the
        # payload shrink (what actually travels to a worker) is the
        # machine-independent part of this section.
        "available_cpus": available_cpus(),
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "serial_subgraphs_per_s": centers / serial_s,
        "pooled_subgraphs_per_s": centers / pooled_s,
        "shard_payload_bytes_shared": payload_bytes,
        "shard_payload_bytes_pickled": builder_bytes,
        "payload_shrink_factor": builder_bytes / payload_bytes,
    }


def measure_update_latency(num_nodes: int, avg_degree: int) -> dict:
    """Streaming-update hot path: one-relation refresh vs full rebuild.

    A social graph carries several relations; a streaming edge touches one.
    Both variants are timed *after* the mutation (so both pay the touched
    relation's CSR rebuild) and include re-preparing the push operators the
    next PPR sweep needs — that is the real serving-path cost of an update.
    """
    graph = synth_graph(num_nodes, avg_degree, num_relations=6, seed=21)
    rng = np.random.default_rng(5)
    embeddings = rng.standard_normal((graph.num_nodes, FEATURE_DIM))
    relation = graph.relation_names[0]

    builder = BiasedSubgraphBuilder(graph, embeddings, k=SUBGRAPH_K, epsilon=PPR_EPSILON)
    for name in graph.relation_names:
        builder._push_operator(name)  # warm, as a serving session would be

    def ready(active_builder: BiasedSubgraphBuilder) -> None:
        for name in graph.relation_names:
            active_builder._push_operator(name)

    graph.add_edges(relation, np.array([0]), np.array([1]))
    start = time.perf_counter()
    builder.refresh_relations([relation])
    ready(builder)
    refresh_s = time.perf_counter() - start

    graph.add_edges(relation, np.array([2]), np.array([3]))
    start = time.perf_counter()
    rebuilt = BiasedSubgraphBuilder(graph, embeddings, k=SUBGRAPH_K, epsilon=PPR_EPSILON)
    ready(rebuilt)
    full_s = time.perf_counter() - start
    return {
        "num_relations": graph.num_relations,
        "full_builder_rebuild_s": full_s,
        "single_relation_refresh_s": refresh_s,
        "speedup": full_s / refresh_s,
    }


def run(
    num_nodes: int = 200_000,
    avg_degree: int = 4,
    centers: int = 256,
    workers: int = 2,
    output_path: Path = RESULTS_PATH,
) -> dict:
    graph = synth_graph(num_nodes, avg_degree, num_relations=2, seed=0)
    result = {
        "scale": {
            "num_nodes": num_nodes,
            "avg_degree": avg_degree,
            "num_relations": graph.num_relations,
            "num_edges": int(graph.num_edges),
        },
        "residual_memory": measure_residual_memory(num_nodes, avg_degree),
        "build": measure_build_throughput(graph, centers, workers),
        "update": measure_update_latency(num_nodes, avg_degree),
    }
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w") as handle:
        json.dump(result, handle, indent=2)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=200_000)
    parser.add_argument("--degree", type=int, default=4)
    parser.add_argument("--centers", type=int, default=256)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    args = parser.parse_args()
    result = run(args.nodes, args.degree, args.centers, args.workers, args.output)

    memory = result["residual_memory"]
    print(f"wrote {args.output}")
    for entry in memory["ladder"]:
        print(
            f"ppr n={entry['num_nodes']:>8,}: peak {entry['peak_block_floats']:>12,} floats "
            f"vs full width {entry['full_width_block_floats']:>12,} "
            f"({entry['peak_ratio']:.1f}x smaller)"
        )
    print(f"peak growth over 4x nodes: {memory['peak_growth']:.2f}x")
    build = result["build"]
    print(
        f"build {build['centers']} centers: serial {build['serial_s']:.2f}s "
        f"({build['serial_subgraphs_per_s']:.0f}/s), pooled x{build['workers']} "
        f"{build['pooled_s']:.2f}s ({build['pooled_subgraphs_per_s']:.0f}/s); "
        f"shard payload {build['shard_payload_bytes_shared']:,} B shared vs "
        f"{build['shard_payload_bytes_pickled']:,} B pickled "
        f"({build['payload_shrink_factor']:.0f}x smaller)"
    )
    update = result["update"]
    print(
        f"update: full builder rebuild {update['full_builder_rebuild_s'] * 1e3:.0f} ms, "
        f"single-relation refresh {update['single_relation_refresh_s'] * 1e3:.0f} ms "
        f"({update['speedup']:.1f}x faster)"
    )


if __name__ == "__main__":
    main()
