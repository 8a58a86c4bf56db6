"""Benchmark-side tracing: spans around calls into the program's layers.

The program is not modified.  :class:`Tracer` replaces public functions
and methods of the ``repro`` package with thin wrappers (``install``)
and puts the originals back afterwards (``uninstall``).  A wrapper does
nothing but forward while the tracer is disabled; enabled, it records
one span per call.

A span is the row ``(span_id, name, layer, start, end, parent_id,
op_id)``.  Spans stay in memory (``Tracer.spans``) and the caller
writes them out when the run ends.  ``op_id`` is the op the span ran
in, or ``None`` for work between ops (set-up, stream ingestion).

Layers are named after the module that owns the wrapped function
(:data:`HOOKS`).  :func:`layer_split` turns the spans of one op into
per-layer calls, total time and self time, plus an ``other`` bucket —
the op's own time that no named layer covers — so that each op's layer
self times sum to its wall time.

Spans are only correct for code that runs on one thread without
interleaving; the service workload, whose two callers interleave on one
event loop, builds its split from the service's responses instead
(:mod:`perfbench.run`).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# Every layer the traced run reports, in report order.  "other" is the
# part of an op's wall time that no wrapped call covers.
LAYERS = (
    "scenarios",
    "replay.log",
    "sdn.emulation",
    "datalog.engine",
    "provenance",
    "replay.replayer",
    "replay.cache",
    "core.diffprov",
    "repair.planner",
    "streaming",
    "service",
)
OTHER = "other"

# (layer, module, "Owner.attribute" or "function") — the public entry
# points of each layer that the traced run wraps.  Nested calls into
# the same layer (Execution.replay inside a materialize) are fine: self
# time subtracts the children.
HOOKS = (
    ("scenarios", "repro.scenarios.base", "Scenario.setup"),
    ("scenarios", "repro.scenarios.stanford", "build_stanford_config"),
    ("scenarios", "repro.scenarios.stanford", "background_schedule"),
    ("scenarios", "repro.sdn.emulation", "EmulatedNetworkExecution.__init__"),
    ("replay.log", "repro.replay.log", "EventLog.index_of_insert"),
    ("replay.log", "repro.replay.log", "EventLog.first_occurrence"),
    ("sdn.emulation", "repro.sdn.emulation", "NetworkConfig.fork"),
    ("sdn.emulation", "repro.sdn.emulation", "NetworkConfig.clone"),
    ("sdn.emulation", "repro.sdn.emulation", "EmulatedNetwork.inject"),
    ("sdn.emulation", "repro.sdn.emulation",
     "ExternalSpecReconstructor.reconstruct"),
    ("datalog.engine", "repro.datalog.engine", "Engine.run"),
    ("provenance", "repro.provenance.distributed",
     "PartitionedProvenance.query"),
    ("replay.replayer", "repro.replay.execution", "Execution.materialize"),
    ("replay.replayer", "repro.replay.execution", "Execution.replay"),
    ("replay.replayer", "repro.sdn.emulation",
     "EmulatedNetworkExecution.materialize"),
    ("replay.replayer", "repro.sdn.emulation",
     "EmulatedNetworkExecution.replay"),
    ("replay.cache", "repro.replay.cache", "ReplayCache.fetch"),
    ("replay.cache", "repro.replay.cache", "ReplayCache.store"),
    ("core.diffprov", "repro.core.diffprov", "DiffProv.diagnose"),
    ("streaming", "repro.streaming.ingest", "Ingestor.push_line"),
    ("streaming", "repro.streaming.ingest", "Ingestor.flush"),
    ("streaming", "repro.streaming.window", "StreamWindow.push"),
    ("streaming", "repro.streaming.window", "StreamWindow.materialize"),
    ("streaming", "repro.streaming.detect", "QualityDetector.observe"),
)

# Span names the service's worker ships back (the ``telemetry`` option),
# mapped onto the wrapped names above and their layers, so that service
# ops split like in-process ones.  Repair planning runs only in the
# service's worker: no in-process workload asks for repair.
WORKER_SPANS = {
    "diffprov.diagnose": ("DiffProv.diagnose", "core.diffprov"),
    "diffprov.replay": ("Execution.replay", "replay.replayer"),
    "diffprov.repair": ("RollbackPlanner.plan", "repair.planner"),
    "engine.run": ("Engine.run", "datalog.engine"),
    "provenance.query": ("PartitionedProvenance.query", "provenance"),
    "replay.cache.restore": ("ReplayCache.fetch", "replay.cache"),
}
# The service-layer spans every service op gets: its wait in the
# server's queue and the time between the client and the server.
SERVICE_SPANS = ("service.queue_wait", "service.client")


def worker_span(name: str) -> tuple:
    """``(name, layer)`` of a span the service's worker shipped."""
    return WORKER_SPANS.get(name, (name, "core.diffprov"))


def service_op_spans(shipped) -> List[tuple]:
    """Span rows ``(None, name, layer)`` of one service op, for counting."""
    rows = [(None, name, "service") for name in SERVICE_SPANS]
    stack = list(shipped)
    while stack:
        span = stack.pop()
        rows.append((None, *worker_span(span["name"])))
        stack.extend(span.get("children", ()))
    return rows


class Tracer:
    """Records spans around the :data:`HOOKS` while enabled."""

    def __init__(self):
        self.enabled = False
        self.spans: List[tuple] = []
        # Cheap side-channel counts gathered from wrapped calls' return
        # values (engine steps, provenance graph sizes, replays).
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id: Optional[int] = None
        self._stack: List[int] = []
        self._next_id = 0
        self._restore: List[tuple] = []
        # Replay caches the current op touched; their stats are folded
        # into ``counts`` when the op ends (fold_caches).
        self.seen_caches: Dict[int, object] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, target in HOOKS:
            owner = importlib.import_module(module_name)
            parts = target.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, target, layer))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        """Wrap the hooks and record spans for the duration of the block."""
        self.install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    def _wrap(self, original: Callable, name: str, layer: str) -> Callable:
        tracer = self
        observe_before, observe_after = _OBSERVERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            before = observe_before(args) if observe_before else None
            span_id = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(span_id, name, layer, start, end)
            if observe_after is not None:
                observe_after(tracer, args, result, before)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self) -> int:
        self._next_id += 1
        self._stack.append(self._next_id)
        return self._next_id

    def _close(self, span_id, name, layer, start, end) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, layer, start, end, parent, self.op_id))

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one op; layer spans nest under it."""
        self.op_id = op_id
        return self._open()

    def end_op(self, span_id: int, start: float, end: float) -> None:
        self._close(span_id, "op", "op", start, end)
        self.op_id = None

    def fold_caches(self) -> None:
        """Add the stats of the caches the op used to ``counts``.

        Every in-process diagnosis builds its own replay cache, so each
        cache is folded once, after the op that used it.
        """
        for cache in self.seen_caches.values():
            stats = cache.stats()
            for key in ("hits", "misses", "bytes"):
                self.counts[f"cache.{key}"] += stats[key]
        self.seen_caches = {}

    def add(self, name, layer, start, end, parent, op_id) -> int:
        """Record a span measured elsewhere (service responses)."""
        self._next_id += 1
        self.spans.append((self._next_id, name, layer, start, end, parent, op_id))
        return self._next_id

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.seen_caches = {}


def _engine_steps(tracer, args, result, before):
    # Engine.run returns the number of events it processed.
    tracer.counts["engine.steps"] += result or 0


def _query_sizes(tracer, args, result, before):
    tree, stats = result
    tracer.counts["provenance.vertices"] += stats.graph_size


def _replay_count_before(args):
    return args[0].replay_count


def _replays(tracer, args, result, before):
    tracer.counts["replay.calls"] += args[0].replay_count - before


def _cache_seen(tracer, args, result, before):
    cache = args[0]
    tracer.seen_caches[id(cache)] = cache


# Counts read off wrapped calls: name -> (before(args), after(tracer,
# args, result, before)).
_OBSERVERS = {
    "Engine.run": (None, _engine_steps),
    "PartitionedProvenance.query": (None, _query_sizes),
    "Execution.materialize": (_replay_count_before, _replays),
    "Execution.replay": (_replay_count_before, _replays),
    "EmulatedNetworkExecution.materialize": (_replay_count_before, _replays),
    "EmulatedNetworkExecution.replay": (_replay_count_before, _replays),
    "ReplayCache.fetch": (None, _cache_seen),
    "ReplayCache.store": (None, _cache_seen),
}


def layer_split(spans: List[tuple]) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Per op: ``{layer: {"total_s", "self_s"}}``, ``other`` and ``_wall_s``.

    Self time is a span's duration minus the part its direct children
    cover.  A layer's total time counts only its outermost spans, so a
    call nested in a call of the same layer is not counted twice.  The
    op root span's self time is the ``other`` bucket; summed over all
    layers and ``other``, self times equal the op's wall time.
    """
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[5] is not None:
            child_time[span[5]] += span[4] - span[3]
    result: Dict[int, Dict[str, Dict[str, float]]] = {}
    for span_id, name, layer, start, end, parent, op_id in spans:
        if op_id is None:
            continue
        layers = result.setdefault(op_id, {})
        duration = end - start
        self_s = duration - child_time.get(span_id, 0.0)
        if layer == "op":
            layers[OTHER] = {"total_s": self_s, "self_s": self_s}
            layers["_wall_s"] = {"total_s": duration, "self_s": duration}
            continue
        entry = layers.setdefault(layer, {"total_s": 0.0, "self_s": 0.0})
        entry["self_s"] += self_s
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != layer:
            ancestor = by_id.get(ancestor[5])
        if ancestor is None:
            entry["total_s"] += duration
    return result
