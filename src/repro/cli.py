"""Command-line interface for the reproduction.

Every subcommand goes through :mod:`repro.api` — the CLI constructs, trains,
persists, and queries detectors exactly the way library consumers do:

``python -m repro benchmarks``
    Print Table I statistics for the three synthetic benchmarks.

``python -m repro run <experiment> [--scale small|medium] [--seed N] [--output DIR]``
    Run one experiment (``table1`` ... ``fig10``), print the regenerated
    table or series, and optionally write the raw result JSON (the same
    schema ``repro report`` consumes).

``python -m repro report <results_dir> [--experiment ID]``
    Re-render experiment results previously saved by ``run --output`` or the
    benchmark suite.

``python -m repro fit <benchmark> --output DIR [--detector NAME] [...]``
    Train a detector on a synthetic benchmark and persist it as an artifact
    directory (train once).

``python -m repro score <artifact> [--nodes 1,2,17]``
    Load a saved artifact, rebuild its benchmark from the recorded
    provenance, and score the requested nodes (serve many).

``python -m repro serve <artifact> [--port 8099] [--num-shards 2]``
    Run the sharded asyncio HTTP/JSON scoring service: partition the
    artifact's graph into per-shard sessions behind a fan-out router and
    serve ``POST /score``, ``POST /update``, ``GET /healthz``,
    ``GET /metrics`` until SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import repro
from repro import api
from repro.datasets import load_benchmark
from repro.experiments import EXPERIMENTS, run_experiment, table1
from repro.experiments.report import render_results_dir
from repro.experiments.settings import MEDIUM, SMALL

_SCALES = {"small": SMALL, "medium": MEDIUM}

_BENCHMARK_NAMES = ("twibot-20", "twibot-22", "mgtab")


def _parse_override(text: str) -> tuple:
    """Parse one ``key=value`` override; values go through JSON when possible
    (so ``subgraph_k=8`` is an int and ``use_semantic_attention=false`` a
    bool) and fall back to the raw string."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _parse_nodes(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad node list {text!r}: {error}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BSG4Bot reproduction: train, persist, and query detectors.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("benchmarks", help="print statistics of the synthetic benchmarks")

    run_parser = subparsers.add_parser("run", help="run one experiment (table/figure)")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run_parser.add_argument("--scale", choices=sorted(_SCALES), default="small")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--output", default=None, metavar="DIR",
        help="also write the raw result as DIR/<experiment>.json (readable by 'repro report')",
    )

    report_parser = subparsers.add_parser("report", help="render saved benchmark results")
    report_parser.add_argument("results_dir", help="directory with <experiment>.json files")
    report_parser.add_argument(
        "--experiment", action="append", dest="experiments", default=None,
        help="limit the report to one experiment (repeatable)",
    )

    fit_parser = subparsers.add_parser(
        "fit", help="train a detector on a benchmark or a dataset spec, save the artifact"
    )
    fit_parser.add_argument(
        "benchmark", nargs="?", choices=_BENCHMARK_NAMES, default=None,
        help="bundled synthetic benchmark (alternative: --dataset)",
    )
    fit_parser.add_argument(
        "--dataset", default=None, metavar="SPEC",
        help="train on a dataset spec (.yaml/.json) instead of a bundled benchmark",
    )
    fit_parser.add_argument(
        "--test", action="store_true",
        help="with --dataset: ingest only the spec's test_sample node cap",
    )
    fit_parser.add_argument("--output", required=True, metavar="DIR", help="artifact directory")
    fit_parser.add_argument("--detector", default="bsg4bot",
                            help="registry name (see 'repro detectors')")
    fit_parser.add_argument("--scale", choices=sorted(_SCALES), default="small")
    fit_parser.add_argument("--seed", type=int, default=0)
    fit_parser.add_argument(
        "--override", action="append", dest="overrides", default=[],
        type=_parse_override, metavar="KEY=VALUE",
        help="detector config override (repeatable), e.g. --override subgraph_k=8",
    )
    fit_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="trace the run (ingest + training phases) into a JSONL file and "
        "print the waterfall (render saved files with 'repro trace FILE')",
    )

    score_parser = subparsers.add_parser(
        "score", help="score nodes with a saved detector artifact"
    )
    score_parser.add_argument("artifact", help="artifact directory written by 'repro fit'")
    score_parser.add_argument(
        "--nodes", type=_parse_nodes, default=None, metavar="N,N,...",
        help="node ids to score (default: the dataset's test split)",
    )
    score_parser.add_argument(
        "--dataset", default=None, metavar="SPEC",
        help="rebuild the graph from this spec instead of the artifact's provenance "
        "(must describe the same graph shape)",
    )

    ingest_parser = subparsers.add_parser(
        "ingest", help="ingest a dataset spec into a graph and print its statistics"
    )
    ingest_parser.add_argument("spec", help="dataset spec file (.yaml/.json)")
    ingest_parser.add_argument(
        "--test", action="store_true",
        help="cap ingestion at the spec's test_sample for fast iteration",
    )
    ingest_parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="rows per streamed chunk (default: the adapter's)",
    )
    ingest_parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk ingest cache",
    )
    ingest_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print machine-readable JSON instead of text",
    )

    cluster_parser = subparsers.add_parser(
        "serve", help="run the sharded HTTP/JSON scoring service from an artifact"
    )
    cluster_parser.add_argument("artifact", help="artifact directory written by 'repro fit'")
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--port", type=int, default=8099,
                                help="TCP port (0 picks a free one; default: 8099)")
    cluster_parser.add_argument("--num-shards", type=int, default=2,
                                help="graph partitions / per-shard sessions (default: 2)")
    cluster_parser.add_argument("--halo-hops", type=int, default=1,
                                help="starting halo width; a shard starts at the hop its "
                                     "full-graph PPR support needs when wider, and widens "
                                     "one hop per failed check until verified")
    cluster_parser.add_argument("--no-verify", action="store_true",
                                help="skip the plan-time PPR bit-identity verification")
    cluster_parser.add_argument("--max-batch", type=int, default=64,
                                help="micro-batch node budget per wave, per shard")
    cluster_parser.add_argument("--max-wait-ms", type=float, default=2.0,
                                help="max linger before a short wave dispatches")
    cluster_parser.add_argument("--max-inflight", type=int, default=64,
                                help="admission bound before 429 backpressure")
    cluster_parser.add_argument("--delta-max-pending", type=int, default=None,
                                help="delta watermark: force application at N pending")
    cluster_parser.add_argument("--delta-max-age-s", type=float, default=None,
                                help="delta watermark: force application after S seconds")
    cluster_parser.add_argument("--seed", type=int, default=0,
                                help="partitioner seed")
    cluster_parser.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="trace this fraction of requests (0..1; also via REPRO_TRACE_SAMPLE)",
    )
    cluster_parser.add_argument(
        "--trace-slow-ms", type=float, default=None, metavar="MS",
        help="always keep traces slower than MS milliseconds",
    )
    cluster_parser.add_argument(
        "--trace-dump", default=None, metavar="FILE",
        help="append kept slow traces to this JSONL file",
    )
    cluster_parser.add_argument(
        "--trace-buffer", type=int, default=None, metavar="N",
        help="kept traces retained in the GET /traces ring buffer",
    )

    subparsers.add_parser("detectors", help="list registered detector names")

    trace_parser = subparsers.add_parser(
        "trace", help="render traces from a JSONL dump as waterfalls"
    )
    trace_parser.add_argument(
        "file", help="JSONL trace dump ('repro serve --trace-dump', 'repro fit --trace')"
    )
    trace_parser.add_argument(
        "--top", type=int, default=3, metavar="N",
        help="waterfalls to render, slowest first (default: 3)",
    )

    lint_parser = subparsers.add_parser(
        "lint", help="run the invariant checkers (lock/shm/reduction/oracle/resource)"
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to check (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file (default: the committed analysis/baseline.json)",
    )
    lint_parser.add_argument(
        "--write-baseline", action="store_true",
        help="record every current finding as the new baseline and exit",
    )
    lint_parser.add_argument(
        "--check", action="store_true",
        help="CI mode: also fail on stale baseline entries",
    )
    lint_parser.add_argument(
        "--show-baselined", action="store_true",
        help="print suppressed pre-existing findings too",
    )
    lint_parser.add_argument(
        "--only", action="append", default=None, metavar="CHECKER",
        help="run only this checker id (repeatable)",
    )
    return parser


def _write_result(output: str, experiment: str, result) -> Path:
    """Persist a run's raw result in the schema ``repro report`` reads."""
    directory = Path(output)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{experiment}.json"
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, default=float)
    return path


def _cmd_run(args) -> int:
    scale = _SCALES[args.scale]
    module = EXPERIMENTS[args.experiment]
    kwargs = {"scale": scale}
    # Every experiment accepts a seed except where it is irrelevant.
    if "seed" in module.run.__code__.co_varnames:
        kwargs["seed"] = args.seed
    result = run_experiment(args.experiment, **kwargs)
    print(module.format_result(result))
    if args.output:
        path = _write_result(args.output, args.experiment, result)
        print(f"\nresult written to {path}")
    return 0


def _cmd_ingest(args) -> int:
    from repro.datasets.adapters import AdapterError, ingest_spec

    try:
        result = ingest_spec(
            args.spec,
            test=args.test,
            chunk_size=args.chunk_size,
            use_cache=not args.no_cache,
        )
    except AdapterError as exc:
        raise SystemExit(f"ingest failed: {exc}") from None
    graph = result.graph
    stats = {
        "name": graph.name,
        "adapter": result.spec.adapter,
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "num_edges": graph.num_edges,
        "relations": {
            name: graph.relation(name).num_edges for name in graph.relation_names
        },
        "class_counts": {str(k): v for k, v in graph.class_counts().items()},
        "dropped_edges": graph.metadata.get("dropped_edges", 0),
        "fingerprint": result.fingerprint,
        "cache_hit": result.cache_hit,
        "elapsed_s": round(result.elapsed_s, 4),
        "test": bool(args.test),
    }
    if args.as_json:
        print(json.dumps(stats, indent=2))
        return 0
    print(f"{stats['name']}: {stats['num_nodes']} nodes x {stats['num_features']} features, "
          f"{stats['num_edges']} edges")
    for name, count in stats["relations"].items():
        print(f"  relation {name}: {count} edges")
    print(f"  classes: {stats['class_counts']}   dropped edges: {stats['dropped_edges']}")
    print(f"  fingerprint: {stats['fingerprint']}")
    source = "cache hit" if result.cache_hit else "fresh ingest"
    print(f"  {source} in {stats['elapsed_s']}s")
    return 0


def _cmd_fit(args) -> int:
    # Fail before training, not after: only BSG4Bot artifacts are
    # persistable today, and a detector that cannot be saved would waste the
    # whole training run.
    if args.detector.lower() != "bsg4bot":
        raise SystemExit(
            f"'repro fit' persists artifacts, which {args.detector!r} does not "
            "support yet (only 'bsg4bot'); train other detectors "
            "programmatically via repro.api.create_detector"
        )
    if (args.benchmark is None) == (args.dataset is None):
        raise SystemExit(
            "'repro fit' needs exactly one data source: either a bundled "
            f"benchmark name ({', '.join(_BENCHMARK_NAMES)}) or --dataset SPEC"
        )
    if args.test and args.dataset is None:
        raise SystemExit("--test only applies to --dataset specs")
    if not args.trace:
        return _run_fit(args)
    # One always-kept trace for the whole run; the ambient contextvar lets
    # ingest and the pipeline's phase_span calls attach their spans.
    from repro.obs import Tracer, activate_trace, render_waterfall

    # slow_threshold_s=0.0 marks every trace slow, so the one fit trace is
    # always appended to the dump file (dumping is slow-only by design).
    tracer = Tracer(1.0, slow_threshold_s=0.0, dump_path=args.trace)
    trace = tracer.start_trace("fit", attributes={"detector": args.detector})
    try:
        with activate_trace(trace):
            return _run_fit(args)
    finally:
        tracer.finish_trace(trace)
        print()
        print(render_waterfall(trace.to_dict()))
        print(f"trace written to {args.trace}")


def _run_fit(args) -> int:
    scale = _SCALES[args.scale]
    if args.dataset is not None:
        from repro.datasets.adapters import AdapterError, ingest_spec

        try:
            result = ingest_spec(args.dataset, test=args.test)
        except AdapterError as exc:
            raise SystemExit(f"ingest failed: {exc}") from None
        graph = result.graph
        dataset: Dict[str, object] = {
            "spec": result.spec.to_dict(),
            "test": bool(args.test),
        }
        print(
            f"Ingested {graph.name}: {graph.num_nodes} nodes, "
            f"{graph.num_edges} edges ({'cache hit' if result.cache_hit else 'fresh'}, "
            f"fingerprint {result.fingerprint[:12]})"
        )
    else:
        dataset = {
            "name": args.benchmark,
            "num_users": scale.users_for(args.benchmark),
            "tweets_per_user": scale.tweets_per_user,
            "seed": args.seed,
        }
        print(f"Building {args.benchmark} benchmark ({dataset['num_users']} users)...")
        graph = load_benchmark(**dataset).graph
    detector = api.create_detector(
        {
            "name": args.detector,
            "scale": scale,
            "seed": args.seed,
            "overrides": dict(args.overrides),
        }
    )
    print(f"Training {args.detector}...")
    history = detector.fit(graph)
    metrics = detector.evaluate(graph)
    print(
        f"  {history.num_epochs} epochs ({history.total_time:.1f}s)   "
        f"test accuracy = {metrics['accuracy']:.2f}   test F1 = {metrics['f1']:.2f}"
    )
    path = api.save_detector(detector, args.output, dataset=dataset)
    print(f"artifact saved to {path}")
    return 0


def _cmd_score(args) -> int:
    from repro.datasets.adapters import AdapterError, ingest_spec, resolve_dataset_graph

    manifest = api.read_manifest(args.artifact)
    try:
        if args.dataset is not None:
            graph = ingest_spec(args.dataset, test=bool(manifest.get("dataset", {}).get("test"))).graph
        else:
            dataset = manifest.get("dataset")
            if not dataset:
                raise SystemExit(
                    "artifact has no dataset provenance; pass --dataset SPEC or score "
                    "programmatically via repro.api.load_detector(path, graph=...)"
                )
            graph = resolve_dataset_graph(dataset)
    except AdapterError as exc:
        raise SystemExit(f"ingest failed: {exc}") from None
    detector = api.load_detector(args.artifact, graph=graph)
    nodes = args.nodes if args.nodes is not None else graph.test_indices().tolist()
    with api.DetectionSession(detector, graph) as session:
        probabilities = session.score_nodes(nodes)
    labels = graph.labels
    print(f"{'node':>8}  {'p(bot)':>8}  {'verdict':<7}  truth")
    for node, row in zip(nodes, probabilities):
        verdict = "bot" if row[1] >= 0.5 else "human"
        truth = "bot" if labels[node] == 1 else "human"
        print(f"{node:>8}  {row[1]:>8.3f}  {verdict:<7}  {truth}")
    predictions = probabilities.argmax(axis=1)
    agreement = float(np.mean(predictions == labels[np.asarray(nodes)])) * 100.0
    print(f"\n{len(nodes)} nodes scored; agreement with labels: {agreement:.1f}%")
    return 0


def _cmd_serve(args) -> int:
    # Imported lazily: the cluster layer pulls in the whole detector +
    # serving stack, which every other subcommand doesn't need.
    from repro.obs import Tracer
    from repro.serving.cluster import ShardRouter, run_server

    tracer = None
    if (
        args.trace_sample is not None
        or args.trace_slow_ms is not None
        or args.trace_dump is not None
        or args.trace_buffer is not None
    ):
        tracer = Tracer(
            sample_rate=args.trace_sample or 0.0,
            slow_threshold_s=(
                None if args.trace_slow_ms is None else args.trace_slow_ms / 1000.0
            ),
            capacity=args.trace_buffer or 256,
            dump_path=args.trace_dump,
        )
    print(
        f"Planning {args.num_shards} shard(s) from {args.artifact} "
        f"(halo_hops>={args.halo_hops}, verify={not args.no_verify})..."
    )
    router = ShardRouter.from_artifact(
        args.artifact,
        num_shards=args.num_shards,
        halo_hops=args.halo_hops,
        seed=args.seed,
        verify=not args.no_verify,
        tracer=tracer,  # None falls back to REPRO_TRACE_* (Tracer.from_env)
        max_batch_size=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        adaptive_wait=True,
        delta_max_pending=args.delta_max_pending,
        delta_max_age_s=args.delta_max_age_s,
    )
    stats = router.plan.stats()
    print(
        f"  shards: owned={stats['owned_sizes']} halo={stats['halo_sizes']} "
        f"hops={stats['halo_hops']} verified={stats['verified']} "
        f"plan_s={stats['plan_s']:.3f} verify_sweeps={stats['verify_sweeps']}"
    )
    run_server(
        router, host=args.host, port=args.port, max_inflight=args.max_inflight
    )
    print("repro serve: shut down cleanly")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import read_traces, render_waterfall, summarize_traces

    try:
        traces = read_traces(args.file)
    except OSError as exc:
        raise SystemExit(f"cannot read trace dump: {exc}") from None
    if not traces:
        print(f"no traces in {args.file}")
        return 1
    print(summarize_traces(traces))
    slowest = sorted(
        traces, key=lambda t: float(t.get("duration_s", 0.0)), reverse=True
    )
    for trace in slowest[: max(args.top, 0)]:
        print()
        print(render_waterfall(trace))
    return 0


def _cmd_lint(args) -> int:
    # Lazy import: the checker suite is pure stdlib but there is no reason
    # to parse it for every ``repro run``.
    from pathlib import Path as _Path

    from repro.analysis import (
        collect_findings,
        default_baseline_path,
        run_lint,
        save_baseline,
    )

    paths = [_Path(p) for p in args.paths] if args.paths else None
    baseline_path = (
        _Path(args.baseline) if args.baseline else default_baseline_path()
    )
    if args.write_baseline:
        findings = collect_findings(paths, only=args.only)
        count = save_baseline(baseline_path, findings)
        print(f"wrote {count} finding(s) to {baseline_path}")
        return 0
    report = run_lint(paths, baseline_path=baseline_path, only=args.only)
    print(report.render(show_baselined=args.show_baselined))
    if not report.ok:
        return 1
    if args.check and report.stale_keys:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "benchmarks":
        result = table1.run(scale=SMALL)
        print(table1.format_result(result))
        return 0

    if args.command == "run":
        return _cmd_run(args)

    if args.command == "report":
        print(render_results_dir(args.results_dir, args.experiments))
        return 0

    if args.command == "ingest":
        return _cmd_ingest(args)

    if args.command == "fit":
        return _cmd_fit(args)

    if args.command == "score":
        return _cmd_score(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "detectors":
        for name in api.available_detectors():
            print(name)
        return 0

    if args.command == "trace":
        return _cmd_trace(args)

    if args.command == "lint":
        return _cmd_lint(args)

    return 1  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
