"""Seeded request streams and the asyncio HTTP client that sends them.

The open loop models independent users: requests are sent on a Poisson
schedule whatever the server is doing, and each is timed from the moment
it was due, so a stall also charges the requests queued behind it.  At most
``connections`` requests are open at once; a request that finds them all
busy waits for one, and that wait is part of its latency but not of the
generator's lateness (``late_s``: how far past the schedule the event loop
woke up to issue the request).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class Op:
    """One request: ``kind`` is ``score`` or ``update``; ``at`` is its
    offset in seconds from the start of the window."""

    kind: str
    payload: dict
    at: float = 0.0
    request_id: str = ""


@dataclass
class Outcome:
    op: Op
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: Optional[dict] = None
    error: str = ""
    checked: bool = False  # the response passed its output check

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.checked


@dataclass
class Window:
    outcomes: List[Outcome] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0


class Traffic:
    """Every request of one run, drawn from the run's seed.

    Node popularity is Zipf(``zipf_s``) over a seeded permutation of the
    node ids; score requests draw distinct nodes, update endpoints are two
    distinct draws, and the relation is uniform.
    """

    def __init__(self, seed: int, num_nodes: int, relations: Sequence[str],
                 zipf_s: float) -> None:
        self.rng = np.random.default_rng([seed, 7])
        self.num_nodes = num_nodes
        self.relations = list(relations)
        weights = 1.0 / np.arange(1, num_nodes + 1, dtype=np.float64) ** zipf_s
        self.popular = self.rng.permutation(num_nodes)
        self.cdf = np.cumsum(weights / weights.sum())

    def _draw(self, count: int) -> List[int]:
        chosen: List[int] = []
        while len(chosen) < count:
            rank = int(np.searchsorted(self.cdf, self.rng.random(), side="right"))
            node = int(self.popular[min(rank, self.num_nodes - 1)])
            if node not in chosen:
                chosen.append(node)
        return chosen

    def score(self, nodes_per_request: int) -> Op:
        return Op("score", {"nodes": self._draw(nodes_per_request)})

    def update(self) -> Op:
        src, dst = self._draw(2)
        relation = self.relations[int(self.rng.integers(len(self.relations)))]
        return Op("update", edge_update(relation, src, dst))

    def schedule(self, rate: float, seconds: float, update_fraction: float,
                 nodes_per_request: int) -> List[Op]:
        ops: List[Op] = []
        at = float(self.rng.exponential(1.0 / rate))
        while at < seconds:
            if self.rng.random() < update_fraction:
                op = self.update()
            else:
                op = self.score(nodes_per_request)
            op.at = at
            ops.append(op)
            at += float(self.rng.exponential(1.0 / rate))
        return ops

    def probe_nodes(self, count: int) -> List[int]:
        return [int(node) for node in self.rng.choice(self.num_nodes, count, replace=False)]


def edge_update(relation: str, src: int, dst: int) -> dict:
    return {"edges_added": {relation: [[int(src)], [int(dst)]]}}


def check_score(op: Op, body: Optional[dict]) -> bool:
    """A 200 score echoes its nodes and returns finite rows summing to 1."""
    if not isinstance(body, dict) or body.get("nodes") != op.payload["nodes"]:
        return False
    rows = body.get("probabilities")
    if not isinstance(rows, list) or len(rows) != len(op.payload["nodes"]):
        return False
    for row in rows:
        if not isinstance(row, list) or len(row) != 2:
            return False
        if not all(isinstance(value, (int, float)) and math.isfinite(value) for value in row):
            return False
        if abs(row[0] + row[1] - 1.0) > 1e-9:
            return False
    return True


def check_update(body: Optional[dict]) -> bool:
    shards = body.get("shards") if isinstance(body, dict) else None
    return isinstance(shards, dict) and len(shards) > 0


async def http_request(host: str, port: int, method: str, path: str,
                       payload: Optional[dict] = None,
                       headers: Optional[Dict[str, str]] = None):
    """One HTTP/1.1 exchange on a fresh connection: (status, parsed body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n")
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    status_line, _, rest = data.partition(b"\r\n")
    _, _, response_body = rest.partition(b"\r\n\r\n")
    status = int(status_line.split(b" ", 2)[1])
    return status, (json.loads(response_body) if response_body else None)


async def _send(host: str, port: int, outcome: Outcome, timeout: float) -> None:
    op = outcome.op
    headers = {"X-Repro-Request-Id": op.request_id} if op.request_id else None
    outcome.sent = time.monotonic()
    try:
        outcome.status, outcome.body = await asyncio.wait_for(
            http_request(host, port, "POST", f"/{op.kind}", op.payload, headers), timeout)
    except (OSError, asyncio.TimeoutError, ValueError, IndexError) as error:
        outcome.error = f"{type(error).__name__}: {error}"
    outcome.done = time.monotonic()
    if outcome.status == 200:
        outcome.checked = (check_score(op, outcome.body) if op.kind == "score"
                           else check_update(outcome.body))


async def _open_loop(host: str, port: int, ops: Sequence[Op], connections: int,
                     timeout: float) -> Window:
    window = Window()
    slots = asyncio.Semaphore(connections)

    async def issue(outcome: Outcome) -> None:
        async with slots:
            await _send(host, port, outcome, timeout)

    tasks = []
    start = time.monotonic() + 0.02
    for op in ops:
        due = start + op.at
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        window.late_s.append(max(time.monotonic() - due, 0.0))
        outcome = Outcome(op, due)
        window.outcomes.append(outcome)
        tasks.append(asyncio.create_task(issue(outcome)))
    await asyncio.gather(*tasks)
    window.elapsed_s = time.monotonic() - start
    return window


async def _sequential(host: str, port: int, ops: Sequence[Op], timeout: float,
                      update_gap_s: float) -> Window:
    window = Window()
    start = time.monotonic()
    for op in ops:
        outcome = Outcome(op, time.monotonic())
        window.outcomes.append(outcome)
        await _send(host, port, outcome, timeout)
        if op.kind == "update" and update_gap_s:
            await asyncio.sleep(update_gap_s)
    window.elapsed_s = time.monotonic() - start
    return window


def open_loop(host: str, port: int, ops: Sequence[Op], connections: int,
              timeout: float) -> Window:
    return asyncio.run(_open_loop(host, port, ops, connections, timeout))


def sequential(host: str, port: int, ops: Sequence[Op], timeout: float,
               update_gap_s: float = 0.0) -> Window:
    """Send ``ops`` one at a time, each after the previous response, pausing
    ``update_gap_s`` after each update."""
    return asyncio.run(_sequential(host, port, ops, timeout, update_gap_s))


def get_json(host: str, port: int, path: str, timeout: float = 60.0) -> dict:
    async def fetch():
        return await asyncio.wait_for(http_request(host, port, "GET", path), timeout)

    status, body = asyncio.run(fetch())
    if status != 200 or not isinstance(body, dict):
        raise RuntimeError(f"GET {path} answered {status}")
    return body
