"""``repro.serving.cluster`` — horizontally sharded serving.

Three layers on top of :class:`repro.serving.DetectionService`:

* :func:`plan_shards` / :class:`ShardPlan` — partition the graph by center
  ownership (:func:`repro.sampling.clustering.greedy_partition`) with a
  verified halo of boundary neighbors per shard, so every owned center's
  subgraph construction is fully local and bit-identical to the full graph.
* :class:`ShardRouter` — N per-shard services behind one ``score`` /
  ``submit_update`` API: fan-out by ownership, fan-in in caller order,
  delta routing by closure incidence with per-shard read-your-writes.
* :class:`ClusterHTTPServer` / :func:`run_server` — the asyncio HTTP/JSON
  front door (``/score``, ``/update``, ``/healthz``, ``/metrics``) with
  bounded admission, wired to the ``repro serve`` CLI.

.. code-block:: python

    from repro.serving.cluster import ShardRouter

    with ShardRouter.from_artifact("artifacts/bsg4bot-mgtab", num_shards=4) as router:
        probabilities = router.score([17, 42, 108])   # fans out by ownership
        router.submit_update(edges_added={"followers": ([17], [42])})
        probabilities = router.score([17])            # sees the new edge
"""

from repro.serving.cluster.http import ClusterHTTPServer, run_server
from repro.serving.cluster.planner import (
    ShardPlan,
    ShardPlanError,
    ShardSpec,
    plan_shards,
)
from repro.serving.cluster.router import ClusterRequest, ShardRouter

__all__ = [
    "ClusterHTTPServer",
    "ClusterRequest",
    "ShardPlan",
    "ShardPlanError",
    "ShardRouter",
    "ShardSpec",
    "plan_shards",
    "run_server",
]
