"""Serving smoke check: fit a tiny detector, score from 16 concurrent
clients through one ``DetectionService``, apply one streaming update, and
require a close that leaves no thread, process pool or shared-memory
segment behind.

Run from the repository root::

    PYTHONPATH=src python ci/serving_smoke.py
"""

import threading

from repro import api
from repro.datasets import load_benchmark
from repro.sampling import biased
from repro.serving import DetectionService

before = set(threading.enumerate())
graph = load_benchmark("mgtab", num_users=120, tweets_per_user=6, seed=0).graph
detector = api.create_detector({"name": "bsg4bot", "scale": None, "seed": 0,
    "overrides": {"pretrain_epochs": 15, "pretrain_hidden_dim": 8, "hidden_dim": 8,
                  "subgraph_k": 3, "max_epochs": 2, "min_epochs": 1, "patience": 2,
                  "batch_size": 16}})
detector.fit(graph)
service = DetectionService(detector, graph, max_batch_size=16, max_wait_ms=2.0)
results = {}


def client(i):
    results[i] = service.score([i % graph.num_nodes], timeout=60.0)


threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
service.submit_update(edges_added={graph.relation_names[0]: ([0], [1])})
service.drain()
snap = service.snapshot()
service.close()
assert len(results) == 16 and all(r.shape == (1, 2) for r in results.values())
assert snap["deltas_enqueued"] == 1 and snap["deltas_applied"] == 1
assert not service._thread.is_alive(), "dispatcher thread survived close()"
assert biased._shared_pool is None, "process pool survived close()"
assert not biased._shared_payload_registry, "shm segments survived close()"
leftover = set(threading.enumerate()) - before
assert not leftover, f"live threads after close: {leftover}"
print(f"serving smoke OK: {snap['requests']} requests in {snap['waves']} waves, "
      f"occupancy {snap['batch_occupancy']:.1f}, "
      f"{snap['deltas_applied']} delta(s) applied")
