"""End-to-end benchmark of the BSG4Bot product path.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload read-zipf --seed 1 --seconds 10 --trace 0

One run, all of it seeded by ``--seed``:

1. write a synthetic dataset spec and fit it with ``repro fit --dataset``
   (``fit.runs`` times; the first artifact is served);
2. spawn ``repro serve`` on the artifact ``setup_spawns`` times, each
   followed by the warm-up script, keep the last server, and run the
   open-loop window of ``--seconds``;
3. wait for every response, send the probe updates and scores, stop the
   server, and check the probe rows against an in-process session.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics: a third fit runs with ``--trace``,
a second server runs with ``--trace-sample 1.0`` after an untraced one (the
two give the tracing overhead), and single in-process calls time the
set-up and subgraph-build layers.  The last line of stdout is one JSON
object; workload settings live in ``workloads.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import inproc
import loadgen
import report
from procs import ChildError, Server, run_fit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Measured and printed every run but not bounded: on a shared 2-CPU host
#: they moved between runs of the same code by more than the largest bound
#: allowed (see README.md).  The traced run reports them as ``client.*``.
UNBOUNDED = {
    "listen_s": "s",
    "warmup_s": "s",
    "score_p50_ms": "ms",
    "score_p99_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
}


class Run:
    def __init__(self, config: dict, workload: str, seed: int, seconds: float,
                 work: Path) -> None:
        self.config = config
        self.serving = config["serving"]
        self.workload = config["workloads"][workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.causes: Counter = Counter()  # failed requests by cause
        self.server: Optional[Server] = None
        self.connections = len(os.sched_getaffinity(0))

    # -- inputs ---------------------------------------------------------
    def write_spec(self) -> Path:
        dataset = self.config["dataset"]
        spec = {
            "name": "e2ebench-synthetic",
            "adapter": "synthetic",
            "source": {**dataset["source"], "seed": self.seed},
            "split": {**dataset["split"], "seed": self.seed},
        }
        path = self.work / "spec.json"
        path.write_text(json.dumps(spec, indent=2))
        return path

    def make_traffic(self, artifact: Path) -> None:
        graph = json.loads((artifact / "manifest.json").read_text())["graph"]
        self.num_nodes = int(graph["num_nodes"])
        traffic = loadgen.Traffic(self.seed, self.num_nodes, graph["relation_names"],
                                  self.serving["zipf_s"])
        per_request = self.serving["nodes_per_request"]
        self.warm_ops = [traffic.update()] + [
            loadgen.Op("score", {"nodes": list(range(start, min(start + 64, self.num_nodes)))})
            for start in range(0, self.num_nodes, 64)
        ]
        self.window_ops = traffic.schedule(
            self.workload["rate_rps"], self.seconds, self.workload["update_fraction"], per_request)
        probe = self.serving["probe"]
        nodes = traffic.probe_nodes(probe["nodes"])
        relation = graph["relation_names"][0]
        self.probe_ops = [
            loadgen.Op("update", loadgen.edge_update(relation, node, nodes[(i + 1) % len(nodes)]))
            for i, node in enumerate(nodes)
        ] + [
            loadgen.Op("score", {"nodes": nodes[start:start + probe["nodes_per_request"]]})
            for start in range(0, len(nodes), probe["nodes_per_request"])
        ]
        for prefix, ops in (("u", self.warm_ops), ("w", self.window_ops), ("p", self.probe_ops)):
            for index, op in enumerate(ops):
                op.request_id = f"{prefix}-{self.seed}-{index}"

    # -- phases ---------------------------------------------------------
    def fit(self, spec: Path, trace_last: bool) -> list:
        """``fit.runs`` fits, plus one traced fit last when ``trace_last``.

        The first fit of a run is the slowest (cold start), so the traced
        fit is compared against the untraced one just before it.
        """
        fits = []
        runs = self.config["fit"]["runs"] + int(trace_last)
        for index in range(runs):
            trace_file = self.work / "fit-trace.jsonl" if trace_last and index == runs - 1 else None
            fits.append(run_fit(ROOT, spec, self.work / f"artifact{index}", self.seed,
                                self.config["dataset"]["fit_overrides"], trace_file))
        self.attempted += len(fits)
        scores = {(fit.accuracy, fit.f1) for fit in fits}
        if len(scores) != 1:
            self.failed += len(fits) - 1
            self.causes["fit disagreement"] += len(fits) - 1
            self.problems.append(f"fits disagree on (accuracy, F1): {sorted(scores)}")
        return fits

    def serve(self, artifact: Path, spawns: int, traced: bool, probe: bool) -> dict:
        timeout = self.serving["request_timeout_s"]
        setups, warmups = [], []
        for index in range(spawns):
            self.server = Server(ROOT, artifact, self.workload["num_shards"], traced)
            setups.append(self.server.setup_s)
            warmups.append(loadgen.sequential(
                self.server.host, self.server.port, self.warm_ops, timeout))
            if index < spawns - 1:
                self.server.stop()
        server = self.server
        result = {"setups": setups, "warmups": warmups, "warm": warmups[-1]}
        if traced:
            result["before"] = loadgen.get_json(server.host, server.port, "/metrics")
        result["window"] = loadgen.open_loop(
            server.host, server.port, self.window_ops, self.connections, timeout)
        if traced:
            result["after"] = loadgen.get_json(server.host, server.port, "/metrics")
            result["traces"] = loadgen.get_json(
                server.host, server.port, "/traces?limit=1000000")["traces"]
        windows = warmups + [result["window"]]
        if probe:
            result["probe"] = loadgen.sequential(server.host, server.port, self.probe_ops,
                                                 timeout, self.serving["probe"]["update_gap_s"])
            windows.append(result["probe"])
        result["rss_mb"] = server.stop()
        self.server = None
        for window in windows:
            self.attempted += len(window.outcomes)
            for outcome in window.outcomes:
                if not outcome.ok:
                    self.failed += 1
                    cause = "output check" if outcome.status == 200 else f"HTTP {outcome.status}"
                    self.causes[outcome.error or cause] += 1
        bad = [o for w in windows for o in w.outcomes if o.status == 200 and not o.checked]
        if bad:
            self.problems.append(f"{len(bad)} responses failed the output check")
        late_p99_ms = report.quantile(result["window"].late_s, 0.99) * 1e3
        if late_p99_ms > self.serving["gen_late_p99_ms_max"]:
            self.problems.append(
                f"run invalid: load generator p99 lateness {late_p99_ms:.1f} ms exceeds "
                f"{self.serving['gen_late_p99_ms_max']} ms")
        return result

    def check_probe(self, artifact: Path, served: dict) -> None:
        """Probe rows must equal the in-process reference bit for bit."""
        acked = [o.op.payload for w in (served["warm"], served["window"], served["probe"])
                 for o in w.outcomes if o.op.kind == "update" and o.ok]
        scores = [o for o in served["probe"].outcomes if o.op.kind == "score"]
        expected = inproc.reference_rows(ROOT, artifact, self.workload["num_shards"], acked,
                                         [o.op.payload["nodes"] for o in scores])
        mismatched = 0
        for outcome, rows in zip(scores, expected):
            if not outcome.ok:
                continue
            got = np.asarray(outcome.body["probabilities"], dtype=np.float64)
            if got.shape != rows.shape or not np.array_equal(got, rows):
                mismatched += 1
        if mismatched:
            self.failed += mismatched
            self.causes["probe mismatch"] += mismatched
            self.problems.append(f"{mismatched} probe responses differ from the reference")

    # -- metrics --------------------------------------------------------
    def end_to_end(self, fits: list, served: dict) -> Dict[str, float]:
        window = served["window"].outcomes
        scores = [o for o in window if o.op.kind == "score"]
        ok_latencies = [o.latency_s for o in scores if o.ok]
        updates = [o for o in window if o.op.kind == "update"]
        if not updates:  # a read-only window: the probe's updates on an idle server
            updates = [o for o in served["probe"].outcomes if o.op.kind == "update"]
        update_latencies = [o.latency_s for o in updates if o.ok]
        slo_s = self.workload["score_slo_ms"] / 1e3
        return {
            "setup_s": statistics.median(
                listen + warm.elapsed_s for listen, warm in zip(served["setups"], served["warmups"])),
            "listen_s": statistics.median(served["setups"]),
            "warmup_s": statistics.median(w.elapsed_s for w in served["warmups"]),
            "score_p50_ms": report.quantile(ok_latencies, 0.5) * 1e3,
            "score_p99_ms": report.quantile(ok_latencies, 0.99) * 1e3,
            "score_slo_frac": report.ratio(
                sum(o.ok and o.latency_s <= slo_s for o in scores), len(scores)),
            "update_p50_ms": report.quantile(update_latencies, 0.5) * 1e3,
            "update_p90_ms": report.quantile(update_latencies, 0.9) * 1e3,
            "ok_frac": 1.0 - report.ratio(self.failed, self.attempted),
            "peak_rss_mb": served["rss_mb"],
            "fit_s": statistics.median(fit.fit_s for fit in fits),
            "fit_rss_mb": statistics.median(fit.rss_mb for fit in fits),
            "test_f1": fits[0].f1,
        }

    def run(self, trace: bool) -> Dict[str, float]:
        spec = self.write_spec()
        fits = self.fit(spec, trace_last=trace)
        artifact = self.work / "artifact0"
        self.make_traffic(artifact)
        if not trace:
            served = self.serve(artifact, self.serving["setup_spawns"], traced=False, probe=True)
            self.check_probe(artifact, served)
            return self.end_to_end(fits, served)
        plain = self.serve(artifact, 1, traced=False, probe=False)
        served = self.serve(artifact, 1, traced=True, probe=True)
        self.check_probe(artifact, served)
        metrics = report.serving_layers(served["traces"], served["window"].outcomes,
                                        served["before"], served["after"],
                                        served["window"].late_s)
        fit_trace = json.loads((self.work / "fit-trace.jsonl").read_text().splitlines()[0])
        metrics.update(report.fit_layers(fit_trace, fits[-1].fit_s, fits[-1].log))
        metrics.update(inproc.layer_timings(ROOT, artifact, self.workload["num_shards"]))
        untraced = self.end_to_end(fits[:1], {**plain, "probe": served["probe"]})
        for name in UNBOUNDED:
            metrics[f"client.{name}"] = untraced[name]
        metrics["trace.overhead_score_p50"] = report.ratio(
            metrics["attr.score_p50_ms"], untraced["score_p50_ms"])
        metrics["trace.overhead_fit_s"] = report.ratio(fits[-1].fit_s, fits[-2].fit_s)
        return metrics

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None


def run_workload(name: str, args, benchmark: dict, config: dict) -> int:
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".e2ebench" / f"{name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(config, name, args.seed, args.seconds, work)
    try:
        metrics = run.run(bool(args.trace))
    except (ChildError, RuntimeError, OSError) as error:
        print(f"e2ebench: {name} failed: {error}", file=sys.stderr)
        return 1
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    missing = [spec["name"] for spec in wanted if spec["name"] not in metrics]
    if missing:
        print(f"e2ebench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(f"workload {name}  seed {args.seed}  available_cpus {run.connections}  "
          f"attempted {run.attempted}  failed {run.failed}")
    for spec in wanted:
        print(f"  {spec['name']:<34} {metrics[spec['name']]:14.6f} {spec['unit']}")
    if not args.trace:
        for name, unit in UNBOUNDED.items():
            print(f"  {name:<34} {metrics[name]:14.6f} {unit} (not bounded)")
        print(f"  {'error_frac':<34} {1.0 - metrics['ok_frac']:14.6f} fraction")
    if run.causes:
        print(f"  failed requests by cause: {dict(run.causes)}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in wanted},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the finally blocks stop every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    names = list(config["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in config["workloads"]]
    if unknown:
        print(f"e2ebench: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    return max(run_workload(name, args, benchmark, config) for name in names)


if __name__ == "__main__":
    sys.exit(main())
