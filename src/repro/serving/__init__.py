"""``repro.serving`` — the online scoring service layer.

Built on :mod:`repro.api`: a :class:`DetectionService` accepts concurrent
score requests and streaming graph updates, coalesces the requests into
collated micro-batches (:class:`MicroBatcher`), sequences the updates
through an ordered :class:`DeltaLog` with read-your-writes guarantees, and
exposes serving telemetry (:class:`ServingMetrics`).

.. code-block:: python

    from repro.serving import DetectionService

    with DetectionService(detector, graph) as service:
        probabilities = service.score([17, 42, 108])       # any thread
        service.submit_update(edges_added={"followers": ([17], [42])})
        probabilities = service.score([17])                # sees the edge
        print(service.snapshot()["request_latency"]["p99_s"])
"""

from repro.serving.batcher import BatcherClosed, MicroBatcher, ScoreRequest
from repro.serving.cluster import (
    ClusterHTTPServer,
    ClusterRequest,
    ShardPlan,
    ShardPlanError,
    ShardRouter,
    ShardSpec,
    plan_shards,
)
from repro.serving.ingest import DeltaLog, GraphDelta
from repro.serving.metrics import LatencyHistogram, ServingMetrics
from repro.serving.service import DetectionService, ServiceClosed

__all__ = [
    "BatcherClosed",
    "ClusterHTTPServer",
    "ClusterRequest",
    "DeltaLog",
    "DetectionService",
    "GraphDelta",
    "LatencyHistogram",
    "MicroBatcher",
    "ScoreRequest",
    "ServiceClosed",
    "ServingMetrics",
    "ShardPlan",
    "ShardPlanError",
    "ShardRouter",
    "ShardSpec",
    "plan_shards",
]
