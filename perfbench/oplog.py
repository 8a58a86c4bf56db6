"""Op timing, oracle verdicts and summary statistics for one run.

The shared hosts this benchmark runs on change how fast a process runs
by up to 2x within a minute, without taking the processor away from it
(its CPU time grows as fast as its wall time).  No statistic over one
run cancels that, so every time the benchmark reports is measured
against the machine's current speed: :func:`calibrate` times a fixed
pure-Python kernel next to the timed work, and :func:`scale` converts
the measured seconds into seconds of a reference machine on which that
kernel takes :data:`REFERENCE_S`.  The program cannot change the
kernel's time, so a program that gets 20% slower still reads 20%
slower.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Set

# The calibration kernel's time on the reference machine (a 2-vCPU VM):
# scaled times read as seconds of that machine.
REFERENCE_S = 0.003


def _kernel() -> Dict[int, int]:
    table: Dict[int, int] = {}
    for i in range(20000):
        key = i % 977
        table[key] = table.get(key, 0) + i
    return table


def calibrate() -> float:
    """How long the kernel takes now: the best of two runs, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(*samples: float) -> float:
    """Factor from seconds measured next to ``samples`` to reference
    seconds."""
    return REFERENCE_S / statistics.mean(samples)


class OpLog:
    """Everything one measured phase of a run records.

    ``ops`` holds one dict per op: ``label``, ``latency_s``, ``scale``
    (from the calibration samples taken just before and after the op)
    and ``reason`` (``None`` when the op passed its oracle, else why it
    failed).  A *pass* is the smallest slice of a workload that repeats
    the same work: one Stanford diagnosis, one monitor run over the
    stream, one service request of a given kind.  Each pass's counts
    must equal those of the first pass with the same key; a count that
    does not repeat is named in ``unstable``.  ``counts()`` sums the
    first pass of every key, so it does not depend on how many passes a
    run completes.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: List[Dict] = []
        self.construct_s: List[float] = []
        # Wall time of the measure loop, calibration excluded, which the
        # throughput metrics divide by once scaled (``busy_scale``).
        self.busy_s = 0.0
        self.samples: List[float] = []
        self.calibration_s = 0.0
        self.events = 0
        # Wall time of each whole pass, where a pass is one long call
        # (the stream monitor) rather than a sequence of ops.
        self.pass_walls: List[float] = []
        self.passes = 0
        self.first_counts: Dict[object, Dict[str, float]] = {}
        self.unstable: Set[str] = set()
        self._tracer_mark: Dict[str, float] = {}
        self._span_mark = 0

    def calibrate(self) -> float:
        """Take one calibration sample (:func:`calibrate`) and book the
        time it took, which is not the workload's."""
        start = time.perf_counter()
        sample = calibrate()
        self.calibration_s += time.perf_counter() - start
        self.samples.append(sample)
        return sample

    def busy_scale(self) -> float:
        """Scale for ``busy_s``: the mean of the phase's samples."""
        return scale(*self.samples)

    @contextmanager
    def op(self, label: str):
        """Time one op; an exception fails the op instead of the run."""
        slot = {"label": label, "reason": None}
        op_id = len(self.ops)
        before = self.calibrate()
        tracer = self.tracer
        span = tracer.begin_op(op_id) if tracer is not None else None
        start = time.perf_counter()
        try:
            yield slot
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            slot["reason"] = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_op(span, start, end)
                tracer.fold_caches()
            slot["latency_s"] = end - start
            slot["scale"] = scale(before, self.calibrate())
            self.ops.append(slot)

    def fail(self, slot: Dict, reason: Optional[str]) -> None:
        """Record an oracle verdict unless the op already failed."""
        if slot["reason"] is None and reason is not None:
            slot["reason"] = reason

    def end_pass(self, counts: Optional[Dict[str, float]] = None,
                 key: object = None) -> None:
        """Close a pass with its report counts.

        The tracer's counts and span calls since the previous pass are
        added to ``counts``, which are then checked against the first
        pass with the same ``key``.
        """
        counts = dict(counts or {})
        tracer = self.tracer
        if tracer is not None:
            for name, value in tracer.counts.items():
                counts[name] = value - self._tracer_mark.get(name, 0)
            self._tracer_mark = dict(tracer.counts)
            add_span_calls(counts, tracer.spans[self._span_mark:])
            self._span_mark = len(tracer.spans)
        self.passes += 1
        first = self.first_counts.setdefault(key, counts)
        for name in set(first) | set(counts):
            if first.get(name, 0) != counts.get(name, 0):
                self.unstable.add(name)

    def counts(self) -> Dict[str, float]:
        """The first pass's counts, summed over keys."""
        total: Dict[str, float] = {}
        for counts in self.first_counts.values():
            for name, value in counts.items():
                total[name] = total.get(name, 0) + value
        return total

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["reason"] is not None)


def add_span_calls(counts: Dict[str, float], spans) -> None:
    """Count ``spans`` per name (``calls:<name>``) and per layer
    (``layer:<layer>``); op root spans are not calls into a layer."""
    for span in spans:
        name, layer = span[1], span[2]
        if layer == "op":
            continue
        counts[f"calls:{name}"] = counts.get(f"calls:{name}", 0) + 1
        counts[f"layer:{layer}"] = counts.get(f"layer:{layer}", 0) + 1


def percentile(values: List[float], fraction: float) -> float:
    """Interpolated percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")

