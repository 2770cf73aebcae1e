"""Statistics and the traced-run reporter.

The reporter turns three sources into per-layer metrics: the server's
request traces (``GET /traces`` at sample rate 1.0), its JSON counters
(``GET /metrics`` before and after the window), and the benchmark's own
client spans (when each request was due, got a connection, and finished).

Attribution (``attr.*``) follows one request's blocking path: the client's
wait for a connection, the part of the exchange outside the server's trace
root (``http``: socket, HTTP parse, JSON), then inside the root admission,
route, and the slowest shard leg split into queue wait, delta apply,
subgraph build, collation and model forward.  What the server's spans leave
uncovered is ``server_other``.  Components are averaged over the requests
between the 40th and 60th latency percentile, and ``remainder`` is the
traced p50 minus their sum, so the components add back to the p50 exactly.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default), 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _children(spans: List[dict]) -> Dict[int, List[dict]]:
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    return children


def _named(spans: List[dict], name: str) -> List[dict]:
    return [span for span in spans if span["name"] == name]


def _total(spans: List[dict], name: str) -> float:
    return sum(span["duration_s"] for span in _named(spans, name))


def _interval(span: dict) -> Tuple[float, float]:
    return span["offset_s"], span["offset_s"] + span["duration_s"]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    covered, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        covered += stop - max(start, end)
        end = stop
    return covered


_WAVE_PARTS = ("delta_apply", "subgraph_build", "wave_collate", "model_forward")


def decompose(trace: dict, latency_s: float, conn_wait_s: float) -> Optional[Dict[str, float]]:
    """Split one score request's client latency along its blocking path."""
    spans = trace["spans"]
    root = spans[0]
    children = _children(spans)
    top = children.get(root["span_id"], [])
    legs = _named(top, "shard_leg")
    if not legs:
        return None
    leg = max(legs, key=lambda span: span["duration_s"])
    leg_children = children.get(leg["span_id"], [])
    waves = _named(leg_children, "wave")
    wave_parts = children.get(waves[0]["span_id"], []) if waves else []
    admission = _named(top, "admission")
    route = _named(top, "route")
    parts = {
        "client_wait": conn_wait_s,
        "http": latency_s - conn_wait_s - root["duration_s"],
        "admission": _total(admission, "admission"),
        # The route loop submits the legs, so the legs start inside it.
        "route": _covered([_interval(s) for s in route + [leg]]) - leg["duration_s"],
        "queue_wait": _total(leg_children, "queue_wait"),
    }
    for name in _WAVE_PARTS:
        parts[name] = _total(wave_parts, name)
    attributed_inside = sum(parts[name] for name in ("queue_wait",) + _WAVE_PARTS)
    parts["server_other"] = (
        root["duration_s"] - _covered([_interval(s) for s in admission + route + [leg]])
        + leg["duration_s"] - attributed_inside
    )
    return parts


def _unique_waves(traces: List[dict]) -> List[Tuple[dict, List[dict]]]:
    """Each executed wave once: every request in a wave carries a copy of its
    spans, identical in duration and attributes."""
    seen = {}
    for trace in traces:
        children = _children(trace["spans"])
        for span in _named(trace["spans"], "wave"):
            attrs = span.get("attributes", {})
            key = (span["duration_s"], attrs.get("wave_nodes"), attrs.get("wave_requests"))
            if key not in seen:
                seen[key] = (span, children.get(span["span_id"], []))
    return list(seen.values())


def _counter_deltas(before: dict, after: dict) -> Dict[str, float]:
    totals = {name: after["cluster_totals"][name] - before["cluster_totals"][name]
              for name in ("requests", "waves", "wave_nodes", "deltas_applied",
                           "subgraphs_invalidated", "replay_hits", "replay_misses")}
    for name in ("store_cache_hits", "store_cache_misses", "subgraphs_built"):
        totals[name] = sum(shard.get(name, 0) for shard in after["shards"]) - sum(
            shard.get(name, 0) for shard in before["shards"])
    totals["rejected"] = after["admission"]["rejected"] - before["admission"]["rejected"]
    return totals


def serving_layers(traces: List[dict], outcomes, before: dict, after: dict,
                   late_s: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced serving window."""
    by_id = {trace["request_id"]: trace for trace in traces}
    ms = 1e3
    out: Dict[str, float] = {}
    scores = [(o, by_id.get(o.op.request_id)) for o in outcomes
              if o.op.kind == "score" and o.ok]
    scores = [(o, t) for o, t in scores if t is not None]
    updates = [by_id[o.op.request_id] for o in outcomes
               if o.op.kind == "update" and o.ok and o.op.request_id in by_id]
    out["client.gen_late_p99_ms"] = quantile(late_s, 0.99) * ms
    out["client.conn_wait_p50_ms"] = quantile([o.sent - o.due for o, _ in scores], 0.5) * ms

    out["http.unattributed_ms"] = quantile(
        [(o.done - o.sent) - t["duration_s"] for o, t in scores], 0.5) * ms
    score_spans = [t["spans"] for _, t in scores]
    out["http.admission_ms"] = quantile(
        [_total(s, "admission") for s in score_spans], 0.5) * ms
    counters = _counter_deltas(before, after)
    out["http.rejected"] = float(counters["rejected"])

    out["router.route_ms"] = quantile([_total(s, "route") for s in score_spans], 0.5) * ms
    legs = [[span["duration_s"] for span in _named(s, "shard_leg")] for s in score_spans]
    out["router.legs_per_request"] = mean(len(leg) for leg in legs)
    out["router.leg_skew_ms"] = mean(max(leg) - min(leg) for leg in legs if leg) * ms
    update_spans = [t["spans"] for t in updates]
    out["router.delta_validate_ms"] = quantile(
        [_total(s, "delta_validate") for s in update_spans], 0.5) * ms
    out["router.delta_route_ms"] = quantile(
        [_total(s, "delta_route") for s in update_spans], 0.5) * ms

    queue = [span["duration_s"] for s in score_spans for span in _named(s, "queue_wait")]
    out["batcher.queue_wait_p50_ms"] = quantile(queue, 0.5) * ms
    out["batcher.queue_wait_p99_ms"] = quantile(queue, 0.99) * ms
    out["batcher.requests_per_wave"] = ratio(counters["requests"], counters["waves"])
    out["batcher.nodes_per_wave"] = ratio(counters["wave_nodes"], counters["waves"])

    waves = _unique_waves([t for _, t in scores])
    wave_s = [wave["duration_s"] for wave, _ in waves]
    out["service.wave_p50_ms"] = quantile(wave_s, 0.5) * ms
    out["service.wave_p99_ms"] = quantile(wave_s, 0.99) * ms
    applies = [span for _, parts in waves for span in _named(parts, "delta_apply")]
    out["service.delta_apply_ms"] = mean(span["duration_s"] for span in applies) * ms
    out["service.deltas_per_apply"] = mean(
        span.get("attributes", {}).get("deltas", 0) for span in applies)
    out["service.invalidated_per_delta"] = ratio(
        counters["subgraphs_invalidated"], counters["deltas_applied"])

    builds = [span["duration_s"] for _, parts in waves for span in _named(parts, "subgraph_build")]
    out["sampling.subgraph_build_ms"] = mean(builds) * ms
    out["sampling.subgraphs_built"] = float(counters["subgraphs_built"])
    collate = [span["duration_s"] for _, parts in waves for span in _named(parts, "wave_collate")]
    out["sampling.collate_p50_ms"] = quantile(collate, 0.5) * ms
    out["sampling.collate_p99_ms"] = quantile(collate, 0.99) * ms
    out["sampling.batch_cache_hit_ratio"] = ratio(
        counters["store_cache_hits"],
        counters["store_cache_hits"] + counters["store_cache_misses"])

    forward = [span["duration_s"] for _, parts in waves for span in _named(parts, "model_forward")]
    out["replay.model_forward_ms"] = quantile(forward, 0.5) * ms
    out["replay.hit_ratio"] = ratio(
        counters["replay_hits"], counters["replay_hits"] + counters["replay_misses"])

    latencies = [o.latency_s for o, _ in scores]
    p50 = quantile(latencies, 0.5)
    low, high = quantile(latencies, 0.4), quantile(latencies, 0.6)
    band = [decompose(t, o.latency_s, o.sent - o.due) for o, t in scores
            if low <= o.latency_s <= high]
    band = [parts for parts in band if parts is not None]
    out["attr.score_p50_ms"] = p50 * ms
    attributed = 0.0
    for name in ("client_wait", "http", "admission", "route", "queue_wait") + _WAVE_PARTS + (
            "server_other",):
        value = mean(parts[name] for parts in band)
        label = "collate" if name == "wave_collate" else name
        out[f"attr.{label}_ms"] = value * ms
        attributed += value
    out["attr.remainder_ms"] = (p50 - attributed) * ms
    return out


_FIT_PHASES = ("ingest", "pretrain", "subgraph_construction", "training",
               "inference_construction")
_EPOCHS = re.compile(r"(\d+) epochs \(")


def fit_layers(trace: dict, fit_s: float, log: Sequence[str]) -> Dict[str, float]:
    """Per-phase seconds of one traced ``repro fit``; the phases plus
    ``fit.unattributed_s`` add back to its ``fit_s``."""
    out: Dict[str, float] = {}
    for phase in _FIT_PHASES:
        out[f"fit.{phase}_s"] = _total(trace["spans"], phase)
    matches = [_EPOCHS.search(line) for line in log]
    epochs = next((int(match.group(1)) for match in matches if match), 0)
    out["fit.epochs"] = float(epochs)
    out["fit.epoch_s"] = ratio(out["fit.training_s"], epochs)
    out["fit.unattributed_s"] = fit_s - sum(out[f"fit.{phase}_s"] for phase in _FIT_PHASES)
    out["fit.traced_fit_s"] = fit_s
    return out
