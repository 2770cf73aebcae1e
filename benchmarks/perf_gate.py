"""CI perf-regression gate: fixed-seed micro-benchmarks vs stored baselines.

Runs small, deterministic micro-benchmarks over the engine's hot paths —
flat collation, the cold collation-pack build, the PPR sweep (the fit's
call shape and a 20k-node graph), a verified 2-shard plan, a batched
subgraph build, the capture-and-replay model forward, the compiled
training step, dataset adapter ingestion (chunked throughput + cache warm
start), and the sharded cluster router's throughput scaling — then gates
two ways:

* **Absolute bounds** (always): compare against ``benchmarks/thresholds.json``.
  Wall-clock thresholds carry a tolerance multiplier (CI runners are slower
  and noisier than dev machines; override with ``PERF_GATE_TOLERANCE``);
  speedup *ratios* are machine-normalized and are compared directly.
* **Relative store-and-compare** (when a baseline exists): compare against
  the stored baseline — the file named by ``PERF_GATE_BASELINE`` (default
  ``benchmarks/results/BENCH_perfgate_baseline.json``; CI restores it from
  the actions cache), which keeps one entry per available CPU count so
  a run is never judged against a host with more or fewer cores.
  Wall-clock metrics may grow at most
  ``relative_tolerance``x (override: ``PERF_GATE_RELATIVE_TOLERANCE``) over
  the baseline, ratios may shrink at most that factor — which catches the
  slow drift the generous absolute bounds cannot.  On success the baseline
  is updated as a **rolling best** per metric (improvements ratchet in,
  regressions-within-tolerance do not loosen it), so a sequence of small
  regressions accumulates against the best recorded run instead of sliding
  through one tolerance window at a time.

The gate also re-checks the bit-identity contracts, so a "fast but wrong"
optimization fails CI too.

Writes ``benchmarks/results/BENCH_perfgate.json``.  Run it directly::

    PYTHONPATH=src python benchmarks/perf_gate.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

if not __package__:  # run as a script: make the ``benchmarks`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.bench_cluster import run_cluster_benchmark
from benchmarks.bench_ingest import gate_metrics as ingest_gate_metrics
from benchmarks.harness import (
    available_cpus,
    best_of,
    collation_timings,
    epoch_chunks,
    forward_comparison,
    measure_tracing_overhead,
)
from repro.core.config import BSG4BotConfig
from repro.core.model import BSG4BotModel
from repro.core.pipeline import BSG4Bot
from repro.datasets import load_benchmark
from repro.graph import HeteroGraph
from repro.ppr import multi_source_ppr
from repro.ppr.batch import _BLOCK_BUDGET
from repro.sampling import BiasedSubgraphBuilder, Subgraph, collate_subgraphs
from repro.sampling.subgraph import _CollationPack
from repro.serving.cluster import plan_shards
from repro.tensor import Adam
from repro.tensor.train_replay import TrainReplayEngine, eager_train_step

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_perfgate.json"
THRESHOLDS_PATH = Path(__file__).parent / "thresholds.json"
DEFAULT_BASELINE_PATH = Path(__file__).parent / "results" / "BENCH_perfgate_baseline.json"

NUM_USERS = 200
BATCH_SIZE = 64
SUBGRAPH_K = 8
PPR_NODES = 20_000
PPR_SOURCES = 128
PPR_SMALL_NODES = 800
PPR_SMALL_SOURCES = 640
PPR_REFERENCE_ROWS = 16


def bench_collation(graph, store) -> dict:
    timings = collation_timings(graph, store, epoch_chunks(graph.num_nodes, BATCH_SIZE))
    return {f"collation_{name}": value for name, value in timings.items()}


def bench_pack_build(graph, store) -> dict:
    """Cold collation-pack build of the whole store: the vectorized
    ``_CollationPack.build`` against the per-subgraph reference
    (``collate_subgraphs`` over fresh subgraph copies, so no cached
    normalization is reused).  The pack must be byte-identical to the
    reference blocks."""
    subgraphs = store.subgraphs()
    build_s, pack = best_of(
        3, lambda: _CollationPack.build(subgraphs, graph.relation_names, True)
    )

    def reference():
        fresh = [Subgraph(sg.center, sg.nodes, sg.relation_edges) for sg in subgraphs]
        return collate_subgraphs(fresh, graph)

    reference_s, batch = best_of(3, reference)
    for name, block in batch.relation_adjacencies.items():
        rowcounts, indices, data, nnz_offsets = pack.relations[name]
        shift = np.repeat(pack.node_offsets[:-1], np.diff(nnz_offsets))
        assert np.array_equal(rowcounts, np.diff(block.indptr)), "pack rowcounts diverged"
        assert np.array_equal(nnz_offsets, block.indptr[pack.node_offsets]), "pack nnz diverged"
        assert np.array_equal(indices + shift, block.indices), "pack indices diverged"
        assert data.tobytes() == block.data.tobytes(), "pack data diverged"
    return {
        "collation_pack_build_s": build_s,
        "collation_pack_speedup": reference_s / build_s,
    }


def _ppr_graph(num_nodes: int, edges_per_node: int, symmetric: bool) -> sp.csr_matrix:
    rng = np.random.default_rng(7)
    src = rng.integers(0, num_nodes, num_nodes * edges_per_node)
    dst = rng.integers(0, num_nodes, num_nodes * edges_per_node)
    keep = src != dst
    adjacency = sp.coo_matrix(
        (np.ones(int(keep.sum())), (src[keep], dst[keep])), shape=(num_nodes, num_nodes)
    ).tocsr()
    if symmetric:
        adjacency = (adjacency + adjacency.T).tocsr()
    adjacency.data[:] = 1.0
    return adjacency


def _ppr_sweep(adjacency: sp.csr_matrix, sources: np.ndarray) -> tuple:
    """Best-of-2 default sweep, checked bitwise against a full-width run.

    ``PPR_REFERENCE_ROWS``-source chunks fit the block budget on every gate
    graph, so the reference keeps every chunk full width and chunks the
    sources differently from the engine's own policy.
    """
    assert 2 * PPR_REFERENCE_ROWS * adjacency.shape[0] <= _BLOCK_BUDGET
    stats: dict = {}
    sweep_s, scores = best_of(
        2, lambda: multi_source_ppr(adjacency, sources, stats=stats)
    )
    reference = multi_source_ppr(adjacency, sources, chunk_rows=PPR_REFERENCE_ROWS)
    # Correctness is part of the gate: a sweep that got faster by diverging
    # from the full-width reference must fail CI.
    assert (scores != reference).nnz == 0, "PPR sweep diverged from the full-width run"
    assert scores.data.tobytes() == reference.data.tobytes(), "PPR sweep bits diverged"
    return sweep_s, stats


def bench_ppr() -> dict:
    """The PPR engine on the fit's call shape (800 nodes, degree ~8, 640
    sources) and on a 20k-node, 128-source graph."""
    small_s, _ = _ppr_sweep(_ppr_graph(PPR_SMALL_NODES, 4, True), np.arange(PPR_SMALL_SOURCES))
    sweep_s, stats = _ppr_sweep(_ppr_graph(PPR_NODES, 5, False), np.arange(PPR_SOURCES))
    return {
        "ppr_small_sweep_s": small_s,
        "ppr_frontier_sweep_s": sweep_s,
        "ppr_frontier_peak_fraction": stats["peak_block_floats"]
        / (2 * PPR_SOURCES * PPR_NODES),
    }


def bench_shard_plan() -> dict:
    """A verified 2-shard ``plan_shards`` on the small PPR sweep's graph
    (800 nodes, one relation), best of 3."""
    adjacency = _ppr_graph(PPR_SMALL_NODES, 4, True).tocoo()
    graph = HeteroGraph(
        PPR_SMALL_NODES,
        np.zeros((PPR_SMALL_NODES, 1)),
        np.zeros(PPR_SMALL_NODES, dtype=np.int64),
        {"r": (adjacency.row.astype(np.int64), adjacency.col.astype(np.int64))},
    )
    plan_s, plan = best_of(3, lambda: plan_shards(graph, 2, seed=0))
    assert plan.verified
    return {"shard_plan_s": plan_s, "shard_plan_sweeps": plan.verify_sweeps}


def bench_model_forward(graph, store) -> dict:
    """Capture-and-replay inference vs the autograd eager forward.

    A random-initialized model (training time has no place in a perf gate)
    scored over a serving-shaped wave mix — mostly small waves with one
    batch-size-bound wave.  The shared comparison asserts bit identity on
    every wave, cold and steady.
    """
    model = BSG4BotModel(
        graph.num_features,
        hidden_dim=8,
        relation_names=graph.relation_names,
        rng=np.random.default_rng(3),
    )
    rng = np.random.default_rng(11)
    batches = [
        store.collate(rng.integers(0, graph.num_nodes, size=size))
        for size in (1, 8, 8, 32)
    ]
    forward = forward_comparison(model, batches)
    return {name: value for name, value in forward.items() if name.startswith("model_")}


def bench_train_step(graph, store) -> dict:
    """Compiled training step vs the eager step (``repro.tensor.replay``).

    Two identically seeded models train over the same fixed epoch — full
    64-center batches plus a 32-center tail, so both training buckets
    compile — one through ``eager_train_step``, the other through a
    :class:`TrainReplayEngine`.  Both arms run the same number of passes in
    the same order, so after every pass their parameters, gradients, Adam
    moments and dropout generators must be bitwise equal; a step that got
    faster by diverging fails the gate.
    """
    rng = np.random.default_rng(13)
    nodes = rng.permutation(graph.num_nodes)
    batches = [
        store.collate(nodes[start : start + BATCH_SIZE])
        for start in range(0, 160, BATCH_SIZE)
    ]
    class_weight = np.array([0.8, 1.4])
    arms = []
    for _ in range(2):
        model = BSG4BotModel(
            graph.num_features,
            hidden_dim=32,
            relation_names=graph.relation_names,
            rng=np.random.default_rng(7),
        ).train()
        arms.append((model, Adam(model.parameters(), lr=0.01)))
    (eager_model, eager_opt), (replay_model, replay_opt) = arms
    engine = TrainReplayEngine(
        replay_model, replay_opt, class_weight=class_weight, weight_decay=5e-4, capture=True
    )

    def eager_pass():
        return [
            eager_train_step(eager_model, eager_opt, batch, class_weight, 5e-4).item()
            for batch in batches
        ]

    def replay_pass():
        return [engine.step(batch) for batch in batches]

    def assert_same():
        assert eager_pass() == replay_pass(), "compiled training loss diverged from eager"
        pairs = zip(eager_opt.parameters, replay_opt.parameters)
        assert all(a.data.tobytes() == b.data.tobytes() for a, b in pairs), (
            "compiled training step diverged from eager"
        )
        moments = zip(eager_opt._m + eager_opt._v, replay_opt._m + replay_opt._v)
        assert all(a.tobytes() == b.tobytes() for a, b in moments), (
            "compiled Adam moments diverged from eager"
        )
        assert repr(eager_model.dropout.rng.bit_generator.state) == repr(
            replay_model.dropout.rng.bit_generator.state
        ), "compiled dropout drew a different stream"

    assert_same()  # traces and compiles both buckets
    assert not engine.disabled, "training replay disabled itself during the gate"
    eager_s, _ = best_of(5, eager_pass)
    replay_s, _ = best_of(5, replay_pass)
    assert_same()
    assert engine.stats["replay_misses"] == 2, "training replay recompiled a bucket"
    count = len(batches)
    return {
        "train_step_eager_s": eager_s / count,
        "train_step_replay_s": replay_s / count,
        "train_step_replay_speedup": eager_s / replay_s,
    }


def bench_tracing(graph, store) -> dict:
    """Per-request tracing overhead on the serving path.

    A hand-assembled detector — random-initialized model over the already
    built store; training has no place in a perf gate — behind a
    :class:`DetectionService`, driven with a fixed request mix per arm
    (tracer off vs ``sample_rate=1.0``), interleaved so machine noise hits
    both arms equally.  The ratio's floor keeps always-on tracing cheap
    enough to actually leave on.
    """
    detector = BSG4Bot(BSG4BotConfig())
    detector.graph = graph
    detector.store = store
    detector.model = BSG4BotModel(
        graph.num_features,
        hidden_dim=8,
        relation_names=graph.relation_names,
        rng=np.random.default_rng(5),
    )
    return measure_tracing_overhead(detector, graph, max_batch_size=BATCH_SIZE)


def bench_cluster_scaling() -> dict:
    """Sharded-router throughput vs the single-shard baseline.

    A small partition-local run of the cluster benchmark (light training
    schedule, two rungs, best-of-two passes per rung).  The ratio's
    ceiling is ~1.0 on a single-CPU host — shard dispatchers cannot
    overlap there — so the absolute floor in ``thresholds.json`` only
    bounds sharding overhead, and the rolling-best relative ratchet holds
    multi-core runners at whatever scaling they have actually shown.  The
    run itself asserts every per-shard wave replays bit-identically
    through serial full-graph scoring and that teardown leaks nothing, so
    a "fast but wrong" shard plan fails the gate outright.
    """
    result = run_cluster_benchmark(
        num_users=200,
        shard_ladder=(1, 2),
        clients=8,
        requests_per_client=8,
        max_batch_size=32,
        max_wait_ms=6.0,
        seed=0,
        overrides={
            "pretrain_epochs": 10,
            "pretrain_hidden_dim": 32,
            "hidden_dim": 64,
            "subgraph_k": 8,
            "max_epochs": 2,
            "min_epochs": 1,
            "patience": 2,
            "batch_size": 64,
        },
    )
    return {
        "cluster_throughput_scaling": result["cluster_throughput_scaling"],
        "cluster_available_cpus": result["available_cpus"],
        "cluster_bit_identical_waves": result["bit_identical_waves"],
    }


def bench_build(graph):
    """Timed full-store build; returns (metrics, store) for reuse downstream."""
    builder = BiasedSubgraphBuilder(graph, graph.features, k=SUBGRAPH_K)
    build_s, store = best_of(1, lambda: builder.build_store(range(graph.num_nodes)))
    return {"build_store_s": build_s, "build_subgraphs": len(store)}, store


def run(output_path: Path = RESULTS_PATH) -> dict:
    graph = load_benchmark("mgtab", num_users=NUM_USERS, tweets_per_user=8, seed=0).graph
    build_metrics, store = bench_build(graph)
    metrics = {
        **build_metrics,
        **bench_collation(graph, store),
        **bench_pack_build(graph, store),
        **bench_model_forward(graph, store),
        **bench_train_step(graph, store),
        **bench_ppr(),
        **bench_shard_plan(),
        # Chunked ingestion throughput + content-addressed cache warm start
        # (asserts synthetic regeneration determinism internally).
        **ingest_gate_metrics(),
        # Traced-vs-untraced serving throughput (observability must stay
        # cheap enough to leave armed).
        **bench_tracing(graph, store),
        # Last: its teardown shuts the shared construction pool down.
        **bench_cluster_scaling(),
    }
    result = {
        "scale": {
            "num_users": NUM_USERS,
            "num_nodes": int(graph.num_nodes),
            "batch_size": BATCH_SIZE,
            "ppr_nodes": PPR_NODES,
            "ppr_sources": PPR_SOURCES,
            "ppr_small_nodes": PPR_SMALL_NODES,
            "ppr_small_sources": PPR_SMALL_SOURCES,
        },
        "available_cpus": available_cpus(),
        "metrics": metrics,
    }
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with open(output_path, "w") as handle:
        json.dump(result, handle, indent=2)
    return result


def check(metrics: dict, thresholds: dict, tolerance: float) -> list:
    """Return a list of human-readable regression descriptions (empty = pass)."""
    failures = []
    for name, bounds in thresholds["metrics"].items():
        if name not in metrics:
            failures.append(f"{name}: thresholded metric missing from benchmark output")
            continue
        value = metrics[name]
        if "max" in bounds and value > bounds["max"] * tolerance:
            failures.append(
                f"{name}: {value:.4f} > {bounds['max']:.4f} * tolerance {tolerance:g}"
            )
        if "min" in bounds and value < bounds["min"]:
            failures.append(f"{name}: {value:.4f} < required minimum {bounds['min']:.4f}")
    return failures


def check_relative(
    metrics: dict, baseline: dict, thresholds: dict, tolerance: float
) -> list:
    """Compare against a previous run's metrics (empty list = pass).

    Direction comes from the thresholds entry: ``max``-bounded metrics
    (wall-clock, memory fractions) must not grow beyond ``baseline *
    tolerance``; ``min``-bounded metrics (speedup ratios) must not shrink
    below ``baseline / tolerance``.  Metrics absent from the baseline (e.g.
    newly added benchmarks) are skipped — the absolute bounds still cover
    them.
    """
    failures = []
    for name, bounds in thresholds["metrics"].items():
        if name not in metrics or name not in baseline:
            continue
        value, reference = metrics[name], baseline[name]
        if "max" in bounds and value > reference * tolerance:
            failures.append(
                f"{name}: {value:.4f} > baseline {reference:.4f} * "
                f"relative tolerance {tolerance:g}"
            )
        if "min" in bounds and value < reference / tolerance:
            failures.append(
                f"{name}: {value:.4f} < baseline {reference:.4f} / "
                f"relative tolerance {tolerance:g}"
            )
    return failures


def merge_baseline(metrics: dict, baseline: dict, thresholds: dict) -> dict:
    """Rolling-best baseline update after a passing run.

    Thresholded metrics keep their best recorded value (lowest for
    ``max``-bounded wall-clock/memory, highest for ``min``-bounded ratios);
    everything else takes the current run's value.  Without this, each run
    overwriting the baseline would let a slow drift pass one
    relative-tolerance window at a time.
    """
    merged = dict(metrics)
    for name, bounds in thresholds["metrics"].items():
        if name not in metrics or name not in baseline:
            continue
        if "max" in bounds:
            merged[name] = min(metrics[name], baseline[name])
        elif "min" in bounds:
            merged[name] = max(metrics[name], baseline[name])
    return merged


def _read_json(path: Path) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def load_baseline(path: Path, cpus: int | None = None) -> dict:
    """Rolling-best metrics recorded on ``cpus``-CPU hosts (default: this
    host's count), or an empty dict when absent/unreadable.

    Cluster scaling and the build pool behave differently on one CPU and
    on several, so the file keeps one metrics dict per CPU count and a run
    is only compared against runs with its own count.  A legacy flat file
    (one ``metrics`` dict) counts as this run's, so no run is compared
    against less than before.  A corrupt or truncated baseline (an
    interrupted cache upload) must never block CI — the gate falls back
    to the absolute bounds.
    """
    payload = _read_json(path)
    by_cpus = payload.get("metrics_by_cpus")
    if isinstance(by_cpus, dict):
        metrics = by_cpus.get(str(available_cpus() if cpus is None else cpus), {})
    else:
        metrics = payload.get("metrics", {})
    return metrics if isinstance(metrics, dict) else {}


def store_baseline(path: Path, metrics: dict, cpus: int, scale: dict) -> None:
    """Record ``metrics`` as the ``cpus``-CPU baseline, keeping every other
    CPU count's entry.  A legacy flat file is replaced: :func:`load_baseline`
    handed its metrics to this run, so they are already merged in."""
    by_cpus = _read_json(path).get("metrics_by_cpus")
    by_cpus = dict(by_cpus) if isinstance(by_cpus, dict) else {}
    by_cpus[str(cpus)] = metrics
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"scale": scale, "metrics_by_cpus": by_cpus}, handle, indent=2)


def main() -> int:
    result = run()
    metrics = result["metrics"]
    with open(THRESHOLDS_PATH) as handle:
        thresholds = json.load(handle)
    tolerance = float(
        os.environ.get("PERF_GATE_TOLERANCE", thresholds.get("tolerance", 1.5))
    )
    relative_tolerance = float(
        os.environ.get(
            "PERF_GATE_RELATIVE_TOLERANCE", thresholds.get("relative_tolerance", 1.6)
        )
    )
    baseline_path = Path(
        os.environ.get("PERF_GATE_BASELINE", DEFAULT_BASELINE_PATH)
    )
    cpus = result["available_cpus"]
    baseline = load_baseline(baseline_path, cpus)
    print(f"wrote {RESULTS_PATH} ({cpus} available CPU(s))")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<34} {value:.4f}")
    failures = check(metrics, thresholds, tolerance)
    if baseline:
        print(
            f"comparing against the {cpus}-CPU baseline in {baseline_path} "
            f"(relative tolerance {relative_tolerance:g})"
        )
        failures += check_relative(metrics, baseline, thresholds, relative_tolerance)
    else:
        print(f"no {cpus}-CPU baseline in {baseline_path}; absolute thresholds only")
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    # Store-and-compare: merge this passing run into this CPU count's
    # rolling-best baseline (CI persists the file through the actions cache).
    store_baseline(
        baseline_path, merge_baseline(metrics, baseline, thresholds), cpus, result["scale"]
    )
    print(
        f"\nperf gate OK (tolerance {tolerance:g}); "
        f"{cpus}-CPU rolling-best baseline updated"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
