"""Measurement helpers shared by every script under ``benchmarks/``.

One copy of each: the best-of-N CPU timer, the threaded client driver and
its latency percentiles, the affinity-aware CPU count, collation timings,
the eager-vs-replay model-forward comparison, the traced-vs-untraced
serving throughput, the replay of recorded waves through serial scoring,
and the teardown leak checks.  Every comparison asserts bit identity, so a
path that got faster by diverging fails whichever bench or gate runs it.

Scripts import it as ``benchmarks.harness``; run as files they first put
the repository root on ``sys.path`` (see the top of ``perf_gate.py``).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro import api
from repro.obs import Tracer
from repro.sampling import biased, collate_many, collate_subgraphs
from repro.serving import DetectionService
from repro.tensor import softmax
from repro.tensor.replay import ReplayEngine, eager_forward_proba


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-linux
        return os.cpu_count() or 1


def best_of(repeats: int, func: Callable[[], object]) -> Tuple[float, object]:
    """Best-of-N CPU time of ``func()`` and its last result.

    CPU time, not wall-clock: it is stable on shared runners.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.process_time()
        result = func()
        best = min(best, time.process_time() - started)
    return best, result


def percentiles_ms(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99/mean in milliseconds of latencies given in seconds."""
    values = np.asarray(list(latencies), dtype=np.float64) * 1000.0
    if values.size == 0:
        return {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
    return {
        "p50_ms": float(np.percentile(values, 50)),
        "p90_ms": float(np.percentile(values, 90)),
        "p99_ms": float(np.percentile(values, 99)),
        "mean_ms": float(values.mean()),
    }


def drive_clients(
    node_lists: List[List[np.ndarray]],
    call: Callable[[np.ndarray], object],
) -> Dict[str, object]:
    """Fire every client's request list concurrently; return wall + latencies.

    One thread per client, released together by a barrier.  A client stops
    at its first failing call, and the first failure is re-raised once
    every thread has joined.
    """
    clients = len(node_lists)
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []
    gate = threading.Barrier(clients + 1)

    def worker(index: int) -> None:
        gate.wait()
        for nodes in node_lists[index]:
            started = time.perf_counter()
            try:
                call(nodes)
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)
                return
            latencies[index].append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    if errors:
        raise errors[0]
    flat = [value for per_client in latencies for value in per_client]
    return {
        "clients": clients,
        "requests": len(flat),
        "wall_s": wall_s,
        "throughput_rps": len(flat) / wall_s if wall_s > 0 else 0.0,
        **percentiles_ms(flat),
    }


def epoch_chunks(num_nodes: int, batch_size: int) -> List[np.ndarray]:
    """One fixed-seed shuffled epoch of ``batch_size``-node chunks."""
    order = np.random.default_rng(0).permutation(num_nodes)
    return [order[start : start + batch_size] for start in range(0, num_nodes, batch_size)]


def collation_timings(graph, store, chunks: Sequence[np.ndarray]) -> Dict[str, float]:
    """Best-of-3 CPU time of one epoch of collation, three ways.

    The per-subgraph reference loop (``collate_subgraphs``), the flat
    vectorized path (``collate_many``) and the cross-epoch batch cache
    (``SubgraphStore.collate``), each warmed first.
    """
    [collate_subgraphs(store.subgraphs(chunk), graph) for chunk in chunks]
    [collate_many(store, chunk) for chunk in chunks]
    reference_s, _ = best_of(
        3, lambda: [collate_subgraphs(store.subgraphs(c), graph) for c in chunks]
    )
    flat_s, _ = best_of(3, lambda: [collate_many(store, c) for c in chunks])
    cached_s, _ = best_of(3, lambda: [store.collate(c) for c in chunks])
    return {
        "reference_epoch_s": reference_s,
        "flat_epoch_s": flat_s,
        "cached_epoch_s": cached_s,
        "flat_speedup": reference_s / flat_s,
        "cached_speedup": reference_s / cached_s,
    }


def forward_comparison(model, batches: Sequence) -> Dict[str, object]:
    """Per-batch model-forward time over fixed collated batches, three ways.

    * **eager** — the plain autograd forward (``softmax(model(batch))``);
    * **inference** — the eager fallback under ``inference_mode`` (no
      autograd graph, still per-op Tensor dispatch);
    * **replay** — the capture-and-replay engine in steady state (every
      shape bucket already traced and compiled).

    All three must agree bit-identically on every batch, cold and steady;
    the cold pass may compile at most one bucket per batch and the steady
    pass none.  Timings are best-of-5 CPU time for a full pass.
    """
    def eager_pass():
        model.eval()
        return [softmax(model(batch), axis=-1).numpy() for batch in batches]

    def inference_pass():
        return [eager_forward_proba(model, batch) for batch in batches]

    engine = ReplayEngine()

    def replay_pass():
        return [engine.forward_proba(model, batch) for batch in batches]

    reference = eager_pass()
    for left, right in zip(reference, inference_pass()):
        assert np.array_equal(left, right), "inference-mode forward diverged from eager"
    for left, right in zip(reference, replay_pass()):  # traces cold buckets
        assert np.array_equal(left, right), "replayed forward diverged from eager"
    cold = engine.consume_stats()
    for left, right in zip(reference, replay_pass()):  # steady state
        assert np.array_equal(left, right), "steady-state replay diverged from eager"
    steady = engine.consume_stats()
    assert not engine.disabled, "replay engine disabled itself during the benchmark"
    assert cold["replay_misses"] <= len(batches), "replay cache thrashed"
    assert steady["replay_misses"] == 0, "steady-state pass still missed buckets"

    eager_s, _ = best_of(5, eager_pass)
    inference_s, _ = best_of(5, inference_pass)
    replay_s, _ = best_of(5, replay_pass)
    count = len(batches)
    return {
        "waves": count,
        "model_eager_wave_s": eager_s / count,
        "model_inference_wave_s": inference_s / count,
        "model_replay_wave_s": replay_s / count,
        "model_replay_speedup": eager_s / replay_s,
        "model_inference_speedup": eager_s / inference_s,
        "replay_misses_cold": cold["replay_misses"],
        "replay_hits_steady": steady["replay_hits"],
    }


def measure_tracing_overhead(
    detector, graph, *, max_batch_size: int = 64, seed: int = 7
) -> Dict[str, float]:
    """Traced-vs-untraced serving throughput (interleaved best-of-2).

    The same fixed mix of 100 requests is driven sequentially through a fresh
    :class:`DetectionService` per arm — one with tracing disabled
    (``Tracer(0.0)``, env-independent), one tracing every request at
    ``sample_rate=1.0`` — alternating arms each repeat so machine noise
    hits both equally.  ``serving_trace_overhead_ratio`` is traced/untraced
    throughput.
    """
    num_requests = 100
    rng = np.random.default_rng(seed)
    requests = [
        rng.integers(0, graph.num_nodes, size=int(size))
        for size in rng.integers(1, 5, size=num_requests)
    ]
    # Pre-build every requested center: the comparison is about request
    # handling + span recording, not cold-store construction.
    detector.predict_proba_nodes(np.unique(np.concatenate(requests)))

    def run_arm(tracer: Tracer) -> float:
        service = DetectionService(
            detector,
            graph,
            max_batch_size=max_batch_size,
            max_wait_ms=0.0,
            release_pool_on_close=False,
            tracer=tracer,
            register_metrics=False,
        )
        try:
            for nodes in requests[:8]:  # warm the collation/replay caches
                service.score(nodes)
            started = time.perf_counter()
            for nodes in requests:
                service.score(nodes)
            return time.perf_counter() - started
        finally:
            service.close()

    best = {"untraced": float("inf"), "traced": float("inf")}
    for _ in range(2):
        best["untraced"] = min(best["untraced"], run_arm(Tracer(0.0)))
        best["traced"] = min(
            best["traced"], run_arm(Tracer(1.0, capacity=num_requests))
        )
    return {
        "serving_untraced_rps": num_requests / best["untraced"],
        "serving_traced_rps": num_requests / best["traced"],
        "serving_trace_overhead_ratio": best["untraced"] / best["traced"],
    }


def assert_waves_match_serial(detector, graph, services: Iterable, label: str) -> int:
    """Replay every recorded wave through a serial full-graph ``score_nodes``.

    The serving contract: coalescing (and sharding) must never change what
    a wave computes, so each wave's probabilities must match a serial call
    bit-identically.  Returns the number of waves checked.
    """
    checked = 0
    oracle = api.DetectionSession(detector, graph)
    try:
        for service in services:
            for wave_nodes, wave_probabilities, _ in service.wave_log:
                reference = oracle.score_nodes(wave_nodes)
                assert np.array_equal(reference, wave_probabilities), (
                    f"{label} diverged from serial scoring"
                )
                checked += 1
    finally:
        oracle.close(release_pool=False)
    return checked


def assert_clean_teardown(dispatchers: Iterable[threading.Thread]) -> None:
    """No closed service's dispatcher survives, and once the shared
    construction pool shuts down no worker process or shared-memory
    segment lingers.

    The benches share one detector across services built with
    ``release_pool_on_close=False`` (the worker pool is process-global),
    so the pool is shut down here, after the last service has closed.
    """
    for thread in dispatchers:
        assert not thread.is_alive(), "dispatcher thread survived close()"
    biased.shutdown_shared_pool()
    assert biased._shared_pool is None, "shared pool survived shutdown"
    assert not biased._shared_payload_registry, "shared segments survived shutdown"
