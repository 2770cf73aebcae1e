"""Training-epoch engine benchmark: collation and epoch timings.

Runs the same workload three ways — the reference per-subgraph collation
loop (``collate_subgraphs``), the flat vectorized path (``collate_many``)
and the cross-epoch batch cache (``SubgraphStore.collate``) — and writes
the timings to
``benchmarks/results/BENCH_training.json`` so later PRs have a perf
trajectory to compare against.

Not collected by pytest (no ``test_`` prefix); run it directly::

    PYTHONPATH=src python benchmarks/bench_training.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

if not __package__:  # run as a script: make the ``benchmarks`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import available_cpus, best_of, collation_timings, epoch_chunks
from repro.core.model import BSG4BotModel
from repro.datasets import load_benchmark
from repro.sampling import BiasedSubgraphBuilder, collate_subgraphs
from repro.tensor import Adam, cross_entropy

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_training.json"

#: Matches the benchmark suite's "bench" scale (see ``benchmarks/conftest.py``).
NUM_USERS = 400
TWEETS_PER_USER = 12
SUBGRAPH_K = 8
BATCH_SIZE = 64
HIDDEN_DIM = 32
TIMED_EPOCHS = 3


def run(output_path: Path = RESULTS_PATH) -> dict:
    graph = load_benchmark(
        "mgtab", num_users=NUM_USERS, tweets_per_user=TWEETS_PER_USER, seed=0
    ).graph
    builder = BiasedSubgraphBuilder(graph, graph.features, k=SUBGRAPH_K)

    construction_s, store = best_of(1, lambda: builder.build_store(range(graph.num_nodes)))

    chunks = epoch_chunks(graph.num_nodes, BATCH_SIZE)
    collation = collation_timings(graph, store, chunks)

    # Full training epochs (forward + backward + optimizer step) through the
    # reference collation vs the cached epoch engine.
    def make_model():
        return BSG4BotModel(
            in_features=graph.num_features,
            hidden_dim=HIDDEN_DIM,
            relation_names=graph.relation_names,
            rng=np.random.default_rng(1),
        )

    def timed_epochs(collate):
        model = make_model()
        model.train()
        optimizer = Adam(model.parameters(), lr=0.01)
        start = time.process_time()
        for _ in range(TIMED_EPOCHS):
            for chunk in chunks:
                optimizer.zero_grad()
                loss = cross_entropy(model(collate(chunk)), graph.labels[np.sort(chunk)])
                loss.backward()
                optimizer.step()
        return (time.process_time() - start) / TIMED_EPOCHS

    epoch_reference_s = timed_epochs(
        lambda c: collate_subgraphs(store.subgraphs(np.sort(c)), graph)
    )
    epoch_engine_s = timed_epochs(lambda c: store.collate(c))

    result = {
        "scale": {
            "benchmark": "mgtab",
            "num_users": NUM_USERS,
            "num_nodes": int(graph.num_nodes),
            "subgraph_k": SUBGRAPH_K,
            "batch_size": BATCH_SIZE,
            "batches_per_epoch": len(chunks),
        },
        "available_cpus": available_cpus(),
        "construction": {"build_store_s": construction_s},
        "collation": collation,
        "epoch": {
            "reference_epoch_s": epoch_reference_s,
            "engine_epoch_s": epoch_engine_s,
            "speedup": epoch_reference_s / epoch_engine_s,
        },
        "cache": {
            "hits": int(store.cache_hits),
            "misses": int(store.cache_misses),
        },
    }
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w") as handle:
        json.dump(result, handle, indent=2)
    return result


def main() -> None:
    result = run()
    collation = result["collation"]
    epoch = result["epoch"]
    print(f"wrote {RESULTS_PATH}")
    print(
        f"collation: reference {collation['reference_epoch_s'] * 1e3:.2f} ms/epoch, "
        f"flat {collation['flat_epoch_s'] * 1e3:.2f} ms "
        f"({collation['flat_speedup']:.1f}x), "
        f"cached {collation['cached_epoch_s'] * 1e3:.3f} ms "
        f"({collation['cached_speedup']:.0f}x)"
    )
    print(
        f"epoch: reference {epoch['reference_epoch_s']:.3f} s, "
        f"engine {epoch['engine_epoch_s']:.3f} s ({epoch['speedup']:.2f}x)"
    )


if __name__ == "__main__":
    main()
