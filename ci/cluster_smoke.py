"""End-to-end cluster smoke check against a real ``repro serve`` process.

Launches ``repro serve`` on a fitted artifact as a subprocess (2 shards,
verified halos, every request traced), drives concurrent HTTP scores and
one streaming update with read-your-writes, fetches one request's trace
across its shard legs and the Prometheus exposition, then sends SIGINT
and requires a clean rc-0 exit.

Usage (the artifact comes from ``repro fit``)::

    PYTHONPATH=src python ci/cluster_smoke.py /tmp/cluster-smoke
"""

import json
import signal
import subprocess
import sys
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro.obs import validate_exposition

artifact = sys.argv[1]
proc = subprocess.Popen(
    [sys.executable, "-u", "-m", "repro", "serve", artifact,
     "--port", "0", "--num-shards", "2", "--max-wait-ms", "2",
     "--trace-sample", "1.0"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
)
try:
    url = None
    for line in proc.stdout:
        print(f"[serve] {line}", end="")
        if line.startswith("repro serve: listening on "):
            url = line.split()[4]
            break
    assert url, "server exited before announcing readiness"

    def request(path, body=None):
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            url + path, data=data,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=60.0) as response:
            return json.loads(response.read())

    health = request("/healthz")
    assert health["status"] == "ok" and health["num_shards"] == 2, health
    with ThreadPoolExecutor(max_workers=8) as pool:
        scored = list(pool.map(
            lambda n: request("/score", {"nodes": [n]}), range(16)
        ))
    assert all(len(r["probabilities"]) == 1 for r in scored)
    update = request("/update", {"edges_added": {"followers": [[0], [1]]}})
    assert update["shards"], update
    rescore = request("/score", {"nodes": [0]})
    common = set(update["shards"]) & set(rescore["delta_seqs"])
    assert common, (update, rescore)
    owner = min(common)
    assert int(rescore["delta_seqs"][owner]) >= int(update["shards"][owner])
    metrics = request("/metrics")
    totals = metrics["cluster_totals"]

    # Tracing: the supplied request id is echoed on the response and its
    # trace — every shard leg included — is retrievable.
    rid = "c1smoke000000001"
    req = urllib.request.Request(
        url + "/score",
        data=json.dumps({"nodes": [0, 1, 2, 3]}).encode(),
        headers={"Content-Type": "application/json",
                 "X-Repro-Request-Id": rid},
    )
    with urllib.request.urlopen(req, timeout=60.0) as response:
        assert response.headers.get("X-Repro-Request-Id") == rid
        assert json.loads(response.read())["request_id"] == rid
    listing = request("/traces")
    assert listing["enabled"], listing
    traced = [t for t in listing["traces"] if t["request_id"] == rid]
    assert len(traced) == 1, listing["stats"]
    leg_shards = {s["attributes"]["shard"] for s in traced[0]["spans"]
                  if s["name"] == "shard_leg"}
    assert leg_shards, [s["name"] for s in traced[0]["spans"]]

    # Prometheus text exposition via content negotiation, parsed by the
    # strict validator.
    req = urllib.request.Request(
        url + "/metrics", headers={"Accept": "text/plain"})
    with urllib.request.urlopen(req, timeout=60.0) as response:
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain"), content_type
        text = response.read().decode("utf-8")
    kinds = validate_exposition(text)
    assert kinds.get("repro_cluster_requests_total") == "counter", \
        sorted(kinds)
    assert kinds.get("repro_serving_request_latency_seconds") == \
        "histogram", sorted(kinds)

    print(f"smoke OK: {totals['requests']} requests, "
          f"{totals['waves']} waves, update fanned out to "
          f"shard(s) {sorted(update['shards'])}, one trace over "
          f"shard leg(s) {sorted(leg_shards)}, "
          f"{len(kinds)} exposition families")
finally:
    proc.send_signal(signal.SIGINT)
    rc = proc.wait(timeout=60)
print(proc.stdout.read(), end="")
assert rc == 0, f"repro serve exited with rc {rc} on SIGINT"
print("clean SIGINT shutdown (rc 0)")
