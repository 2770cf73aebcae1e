"""In-process calls into the program's public API.

Two jobs, both run after the server has stopped so they never share the
CPUs with a timed window:

* :func:`reference_rows` — the oracle for the probe check: one
  ``DetectionSession`` on the artifact, with every acknowledged update of
  the run applied, scoring each probe request one shard slice per call (the
  server batches each slice on its own, and rows depend on batch
  composition).
* :func:`layer_timings` — wall time of single calls to the layers that set
  up serving and build subgraphs: ``resolve_dataset_graph``,
  ``plan_shards`` (verify on), ``load_detector`` per shard,
  ``BiasedSubgraphBuilder.build_store`` and ``multi_source_ppr`` on the
  fit's train+val centers.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np


def _import_repro(root: Path) -> None:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def reference_rows(root: Path, artifact: Path, num_shards: int,
                   updates: Sequence[dict], requests: Sequence[List[int]]) -> List[np.ndarray]:
    _import_repro(root)
    from repro.api import DetectionSession, load_detector, read_manifest
    from repro.datasets import resolve_dataset_graph
    from repro.serving.cluster import plan_shards

    graph = resolve_dataset_graph(read_manifest(artifact)["dataset"])
    # Ownership only depends on the partitioner seed (the server's default
    # 0), not on halo verification, so the cheap structural plan suffices.
    ownership = plan_shards(graph, num_shards, seed=0, verify=False).ownership
    edges: Dict[str, List[List[int]]] = {}
    for update in updates:
        for relation, (src, dst) in update["edges_added"].items():
            pair = edges.setdefault(relation, [[], []])
            pair[0].extend(src)
            pair[1].extend(dst)
    detector = load_detector(artifact, graph=graph)
    rows: List[np.ndarray] = []
    with DetectionSession(detector, graph) as session:
        if edges:
            session.apply_delta(edges_added={r: (s, d) for r, (s, d) in edges.items()})
        for nodes in requests:
            array = np.asarray(nodes, dtype=np.int64)
            owners = ownership[array]
            out = np.empty((array.size, 2))
            for shard in np.unique(owners):
                positions = np.flatnonzero(owners == shard)
                out[positions] = session.score_nodes(array[positions])
            rows.append(out)
    return rows


def layer_timings(root: Path, artifact: Path, num_shards: int) -> Dict[str, float]:
    _import_repro(root)
    from repro.api import load_detector, read_manifest
    from repro.datasets import resolve_dataset_graph
    from repro.ppr import multi_source_ppr
    from repro.sampling.biased import BiasedSubgraphBuilder
    from repro.serving.cluster import plan_shards

    manifest = read_manifest(artifact)
    config = manifest["config"]
    alpha, epsilon = float(config["ppr_alpha"]), float(config["ppr_epsilon"])
    out: Dict[str, float] = {}

    started = time.perf_counter()
    graph = resolve_dataset_graph(manifest["dataset"])
    out["setup.graph_s"] = time.perf_counter() - started

    started = time.perf_counter()
    plan = plan_shards(graph, num_shards, ppr_alpha=alpha, ppr_epsilon=epsilon,
                       seed=0, verify=True)
    out["setup.plan_s"] = time.perf_counter() - started

    started = time.perf_counter()
    for spec in plan.shards:
        load_detector(artifact, graph=spec.graph)
    out["setup.load_s"] = time.perf_counter() - started

    detector = load_detector(artifact, graph=graph)
    embeddings = detector.preclassifier.hidden_representations(graph.features)
    sources = np.concatenate([graph.train_indices(), graph.val_indices()])
    builder = BiasedSubgraphBuilder(
        graph, embeddings, k=int(config["subgraph_k"]), alpha=alpha,
        epsilon=epsilon, mix_lambda=float(config["mix_lambda"]),
    )
    started = time.perf_counter()
    builder.build_store(sources)
    out["sampling.build_store_s"] = time.perf_counter() - started

    symmetric = []
    for name in graph.relation_names:
        adjacency = graph.relation(name).adjacency()
        symmetric.append((adjacency + adjacency.T).tocsr())
    started = time.perf_counter()
    for adjacency in symmetric:
        multi_source_ppr(adjacency, sources, alpha=alpha, epsilon=epsilon)
    out["ppr.sweep_s"] = time.perf_counter() - started
    out["ppr.share_of_build"] = out["ppr.sweep_s"] / out["sampling.build_store_s"]
    return out
