"""DiffProv benchmark: end-to-end diagnosis metrics and a per-layer traced run.

Run from the repository root::

    python3 perfbench/run.py --workload stanford-blackbox --seed 1 --seconds 36 --trace 0

The workloads are stanford-blackbox, flap-stream and service-mix
(perfbench/workloads.py).  ``--trace 0`` measures the end-to-end
metrics with no tracing.  ``--trace 1`` runs half of ``--seconds``
untraced and half with benchmark-side spans around the program's
layers (perfbench/tracing.py) and reports the per-layer metrics; the
untraced half is the base of ``trace.overhead_ratio``.  The
end-to-end times are in seconds of a reference machine: each is scaled
by calibration samples taken next to it (:mod:`perfbench.oplog`), so
that a shared host's changing speed does not read as a change of the
program; the per-layer times are wall seconds.  The last line
of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it are a human-readable table.
Full results, the seed, the generated parameters, the counts and
(traced runs) the spans go to ``perfbench/out/``.

Every run checks that its counts repeat: each pass of a workload (one
Stanford diagnosis, one monitor run, one service request of a kind)
must count exactly what the first such pass counted.  The counts that
do not are listed in the table and, in traced runs, counted by
``counts.unstable``.

The benchmark imports the package from ``src/`` next to this
directory and exits with status 2, printing no result, when it cannot.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("diagnoses_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics derived from spans: (metric prefix, wrapped names).
# "<prefix>_calls" counts calls in the first pass (of each kind, for
# service requests); "<prefix>_s" is the mean time per op.
SPAN_METRICS = (
    ("log.index", ("EventLog.index_of_insert", "EventLog.first_occurrence")),
    ("sdn.config_copy", ("NetworkConfig.fork", "NetworkConfig.clone")),
    ("sdn.inject", ("EmulatedNetwork.inject",)),
    ("sdn.reconstruct", ("ExternalSpecReconstructor.reconstruct",)),
    ("engine.run", ("Engine.run",)),
    ("provenance.query", ("PartitionedProvenance.query",)),
    ("cache.fetch", ("ReplayCache.fetch",)),
    ("cache.store", ("ReplayCache.store",)),
    ("repair.plan", ("RollbackPlanner.plan",)),
)
# Streaming work runs between incident diagnoses: seconds per pass.
STREAM_METRICS = (
    ("stream.ingest_s", ("Ingestor.push_line", "Ingestor.flush")),
    ("stream.window_s", ("StreamWindow.push",)),
    ("stream.materialize_s", ("StreamWindow.materialize",)),
    ("stream.detect_s", ("QualityDetector.observe",)),
)
# First-pass counts, from report fields or wrapped calls' results.
COUNTS = (
    "engine.steps",
    "provenance.vertices",
    "provenance.tree_vertices",
    "replay.calls",
    "diffprov.rounds",
    "diffprov.replays",
    "repair.verdicts",
    "repair.accepted",
    "cache.hits",
    "cache.misses",
    "cache.bytes",
    "journal.entries",
    "stream.delivered",
    "stream.duplicates",
    "stream.reordered",
    "stream.peak_live",
)
DIFFPROV_PHASES = ("divergence", "make_appear", "minimize")


def _end_to_end(workload, log) -> Dict[str, float]:
    from perfbench.oplog import percentile

    real = [op for op in log.ops if not op.get("synthetic")]
    latencies = [op["latency_s"] * op["scale"] for op in real]
    completed = sum(1 for op in real if op["reason"] is None)
    busy_s = log.busy_s * log.busy_scale()
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
        "diagnoses_per_s": completed / busy_s,
        "events_per_s": log.events / busy_s,
        "setup_s": workload.setup_s,
        "ok_ratio": (log.attempted - log.failed) / log.attempted,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def _service_spans(tracer, log, flight) -> None:
    """Rebuild service ops as spans: worker spans under a client op span.

    The worker's shipped spans carry its own clock readings; only their
    durations and nesting are used.  Queue wait (server books) and the
    client-to-server gap are the ``service`` layer; whatever the op
    spends outside those and the worker's diagnosis spans — dispatch,
    pickling, the worker's scenario build — stays ``other``.
    """
    from perfbench.tracing import SERVICE_SPANS

    for op_id, op in enumerate(log.ops):
        start = op["start"]
        root = tracer.add("op", "op", start, start + op["latency_s"], None, op_id)
        entry = flight.get(op.get("id")) or {}
        queue = entry.get("queue_wait_s") or 0.0
        server = entry.get("latency_s") or op["latency_s"]
        op["queue_wait_s"] = queue
        gap = max(0.0, op["latency_s"] - server)
        for name, duration in zip(SERVICE_SPANS, (queue, gap)):
            tracer.add(name, "service", start, start + duration, root, op_id)
        worker = 0.0
        for span in op.get("spans", ()):
            worker += span["duration"]
            _add_worker_span(tracer, span, root, op_id)
        op["worker_s"] = worker


def _add_worker_span(tracer, span, parent, op_id) -> None:
    from perfbench.tracing import worker_span

    name, layer = worker_span(span["name"])
    span_id = tracer.add(name, layer, span["start"], span["end"], parent, op_id)
    for child in span.get("children", ()):
        _add_worker_span(tracer, child, span_id, op_id)


def _per_layer(workload, untraced, traced, tracer, setup_spans) -> Dict[str, float]:
    from perfbench.tracing import LAYERS, OTHER, layer_split
    from perfbench.workloads import SETUP_REPEATS

    spans = tracer.spans
    counts = traced.counts()
    ops = [op for op in traced.ops if not op.get("synthetic")]
    n_ops = len(ops)
    split = layer_split(spans)
    metrics: Dict[str, float] = {}

    def per_op(value: float) -> float:
        return value / n_ops

    wall = sum(parts["_wall_s"]["total_s"] for parts in split.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.calls"] = counts.get(f"layer:{layer}", 0)
        if layer == "scenarios":
            continue  # inputs are built outside ops: see scenarios.*
        for key in ("self_s", "total_s"):
            metrics[f"layer.{layer}.{key}"] = per_op(
                sum(p.get(layer, {}).get(key, 0.0) for p in split.values())
            )
    metrics[f"layer.{OTHER}.self_s"] = per_op(
        sum(p.get(OTHER, {}).get("self_s", 0.0) for p in split.values())
    )
    metrics["op.wall_s"] = per_op(wall)
    other = metrics[f"layer.{OTHER}.self_s"] * n_ops
    metrics["trace.coverage"] = 1.0 - other / wall if wall else 0.0

    for prefix, names in SPAN_METRICS:
        metrics[f"{prefix}_calls"] = sum(counts.get(f"calls:{n}", 0) for n in names)
        metrics[f"{prefix}_s"] = per_op(sum(
            s[4] - s[3] for s in spans if s[1] in names and s[6] is not None
        ))
    metrics["sdn.emulate_s"] = metrics.pop("sdn.inject_s")
    for name, names in STREAM_METRICS:
        metrics[name] = sum(
            s[4] - s[3] for s in spans if s[1] in names
        ) / traced.passes
    metrics["replay.s"] = metrics["layer.replay.replayer.total_s"]

    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    lookups = metrics["cache.hits"] + metrics["cache.misses"]
    metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups if lookups else 0.0
    verdicts = metrics["repair.verdicts"]
    metrics["repair.accept_ratio"] = (
        metrics["repair.accepted"] / verdicts if verdicts else 0.0
    )

    for phase in DIFFPROV_PHASES:
        if workload.in_process:
            total = sum(op.get("timings", {}).get(phase, 0.0) for op in ops)
        else:
            total = sum(
                s[4] - s[3] for s in spans if s[1] == f"diffprov.{phase}"
            )
        metrics[f"diffprov.{phase}_s"] = per_op(total)

    builds = [s for s in setup_spans if s[2] == "scenarios" and s[5] is None]
    metrics["scenarios.build_s"] = sum(s[4] - s[3] for s in builds) / SETUP_REPEATS
    metrics["scenarios.op_build_s"] = per_op(sum(
        s[4] - s[3] for s in spans
        if s[2] == "scenarios" and s[6] is None and s[5] is None
    ))

    service = not workload.in_process
    metrics["service.worker_ms"] = (
        per_op(sum(op["worker_s"] for op in ops)) * 1e3 if service else 0.0
    )
    metrics["service.overhead_ms"] = (
        per_op(sum(op["latency_s"] - op["worker_s"] for op in ops)) * 1e3
        if service else 0.0
    )
    metrics["service.queue_wait_ms"] = (
        per_op(sum(op["queue_wait_s"] for op in ops)) * 1e3 if service else 0.0
    )

    if traced.pass_walls:
        base, traced_wall = untraced.pass_walls[0], traced.pass_walls[0]
    else:
        pairs = min(len(untraced.ops), len(traced.ops))
        base = sum(op["latency_s"] for op in untraced.ops[:pairs])
        traced_wall = sum(op["latency_s"] for op in traced.ops[:pairs])
    metrics["trace.overhead_ratio"] = traced_wall / base
    return metrics


def _failures(log) -> List[str]:
    reasons: Dict[str, int] = {}
    for op in log.ops:
        if op["reason"] is not None:
            key = f"{op['label']}: {op['reason']}"
            reasons[key] = reasons.get(key, 0) + 1
    return [f"{count}x {reason}" for reason, count in sorted(reasons.items())]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[name](seed, OUT_DIR)
    result: Dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    try:
        if not trace:
            workload.setup()
            log = workload.measure(seconds)
            metrics = _end_to_end(workload, log)
            units = dict(END_TO_END)
            logs = [log]
        else:
            tracer = Tracer()
            setup_spans: List[tuple] = []
            if workload.in_process:
                with tracer.active():
                    workload.setup()
                setup_spans, tracer.spans = tracer.spans, []
            else:
                workload.setup()
            untraced = workload.measure(seconds / 2)
            tracer.reset()
            if workload.in_process:
                with tracer.active():
                    traced = workload.measure(seconds / 2, tracer)
            else:
                traced = workload.measure(seconds / 2, tracer)
                _service_spans(tracer, traced, workload.flight())
            metrics = _per_layer(workload, untraced, traced, tracer, setup_spans)
            metrics["counts.unstable"] = len(untraced.unstable | traced.unstable)
            units = {}
            logs = [untraced, traced]
            result["spans"] = tracer.spans
    finally:
        workload.close()
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    result.update({
        "params": workload.params,
        "setup_samples_s": workload.setup_samples,
        "ops": sum(len(log.ops) for log in logs),
        "failures": [reason for log in logs for reason in _failures(log)],
        "first_pass_counts": logs[-1].counts(),
        "unstable_counts": sorted(set().union(*(log.unstable for log in logs))),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units.get(key, _unit(key))}
            for key, value in metrics.items()
        },
    })
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name == "replay.s":
        return "s"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


def _print_table(result: Dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  ops {result['ops']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    print(f"  params {json.dumps(result['params'], sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    if result["trace"] == 0:
        failed_ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_ratio':<32} {failed_ratio:>14.6g} ratio")
    print(f"  first-pass counts {json.dumps(result['first_pass_counts'], sort_keys=True)}")
    if result["unstable_counts"]:
        print(f"  UNSTABLE counts (differ from the first pass of their kind): "
              f"{', '.join(result['unstable_counts'])}")
    for reason in result["failures"][:10]:
        print(f"  FAILED {reason}")


def _final(result: Dict) -> Dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="stanford-blackbox, flap-stream or service-mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    source = os.path.join(ROOT, "src", "repro")
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{source}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    started = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(result)
    print(f"  run wall {time.perf_counter() - started:.1f} s")
    print(json.dumps(_final(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
