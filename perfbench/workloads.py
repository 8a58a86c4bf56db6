"""The three benchmark workloads, their inputs and their output oracles.

The workloads derive their inputs from ``--seed`` (Stanford excepted);
the program only ever sees the generated inputs.  Each one runs the package
defaults: no engine or provenance knob is set, and ``workers=1``.

``stanford-blackbox``
    A Stanford-like campus network (16 routers, 600 entries each,
    300 ACLs, 40 background packets) on the black-box emulator, built
    with the scenario's own generator seeds whatever ``--seed`` is
    (:class:`StanfordBlackbox` says why).  Each
    op diagnoses the oz2 drop against the gw2 delivery on a fresh
    ``EmulatedNetworkExecution`` whose provenance is not materialized.
    It exercises the configuration copy (``NetworkConfig.fork``),
    emulator replay, external-spec reconstruction, blocker selection
    and the event-log index, and runs no Datalog join and no replay
    cache.
``flap-stream``
    FLAP-S (200 flaps) through ``Session.monitor()`` over a recorded
    stream perturbed by seeded ``event-dup`` and bounded
    ``event-reorder`` faults.  An op is one incident diagnosis.
``service-mix``
    An in-process ``DiagnosisServer(workers=1)`` driven by a closed
    loop of two callers over a seeded mix of requests.  An op is one
    request.

An op passes its oracle when it succeeds and its Δ equals the injected
fault, and when its canonical report is byte-identical to every other
op on the same input in the run.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import time
from typing import Dict, Iterator, List, Optional, Tuple

from .oplog import (
    OpLog, add_span_calls, calibrate, peak_rss_mb, process_peak_rss_mb, scale,
)
from .tracing import service_op_spans

SETUP_REPEATS = 3


def _sub_seeds(seed: int, *names: str) -> Dict[str, int]:
    """Independent generator seeds derived from the run's seed."""
    rng = random.Random(f"perfbench:{seed}")
    return {name: rng.randrange(1 << 30) for name in names}


def _timed_setup(build):
    """Run one set-up repeat; returns its time in reference seconds
    (:mod:`perfbench.oplog`) and what ``build`` returned."""
    before = calibrate()
    started = time.perf_counter()
    result = build()
    elapsed = time.perf_counter() - started
    return elapsed * scale(before, calibrate()), result


def _report_counts(canonical: Dict) -> Dict[str, int]:
    """Counts a canonical report carries (cheap; recorded in every run)."""
    repair = canonical.get("repair") or {}
    plans = len(repair.get("plans") or ())
    rejected = len(repair.get("rejected") or ())
    return {
        "diffprov.rounds": len(canonical.get("rounds") or ()),
        "diffprov.replays": canonical.get("replays") or 0,
        "provenance.tree_vertices": (
            (canonical.get("good_tree_size") or 0)
            + (canonical.get("bad_tree_size") or 0)
        ),
        "repair.verdicts": plans + rejected,
        "repair.accepted": plans,
        "repair.replays": repair.get("replays") or 0,
    }


def _add_counts(total: Dict[str, float], counts: Dict[str, float]) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


class Workload:
    """Common shape: ``setup()``, then one or more ``measure()`` phases."""

    name = ""
    # True when ops run in this process, so the traced run splits them
    # with wrapped calls; the service's ops run in its worker and are
    # split from the spans the worker ships back instead.
    in_process = True

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.setup_s = 0.0
        self.setup_samples: List[float] = []
        self.params: Dict[str, object] = {}

    def setup(self) -> None:
        """Generate and record the inputs; sets ``setup_s``."""
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> OpLog:
        """Run ops for about ``seconds`` (whole passes); ``tracer`` opens
        a root span per op so wrapped calls nest under it."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass


# -- stanford-blackbox -------------------------------------------------------


class StanfordBlackbox(Workload):
    """One Stanford instance, the same for every ``--seed``.

    The scenario builds it with its own generator seeds.  Seeding them
    from ``--seed`` makes the diagnosis cost itself vary 1.5-2.5x from
    seed to seed: the Zipf-popular background flows fall into
    noise-route loops of seed-dependent length, and the number of
    candidate entries blocker selection checks depends on the generated
    tables.  A spread that wide would swamp any change a later commit
    makes.

    600 entries per router keep one op and the recording of its input
    near 0.25 s together, so that a run completes the ``MIN_OPS`` its
    90th percentile needs within its seconds; a run on a slow machine
    goes on until it has them.
    """

    name = "stanford-blackbox"
    PARAMS = {"entries_per_router": 600, "acl_rules": 300,
              "background_packets": 40}
    MIN_OPS = 100

    def setup(self) -> None:
        from repro.scenarios import StanfordForwardingError

        self.params = dict(self.PARAMS)
        samples = []
        for _ in range(SETUP_REPEATS):
            elapsed, scenario = _timed_setup(
                lambda: StanfordForwardingError(**self.PARAMS).setup()
            )
            samples.append(elapsed)
        self.scenario = scenario
        self.build_s = statistics.median(samples)
        self.setup_samples = samples
        self.canonical: Optional[str] = None
        # The configuration lives for the whole run; freezing it keeps
        # the collection before each op from scanning it.
        gc.collect()
        gc.freeze()

    def _execution(self):
        from repro.sdn.emulation import EmulatedNetworkExecution

        recorded = self.scenario.good_execution
        return EmulatedNetworkExecution(
            "stanford", recorded.base_config, recorded.schedule
        )

    def measure(self, seconds: float, tracer=None) -> OpLog:
        """Diagnose on fresh executions until ``seconds`` have passed.

        Recording each op's execution (building its event log) is
        set-up, timed apart from the op: ``setup_s`` is the median
        scenario build time plus the median recording time.
        """
        from repro.api import Session

        scenario = self.scenario
        log = OpLog(tracer)
        started_all = time.perf_counter()
        deadline = started_all + seconds
        while len(log.ops) < self.MIN_OPS or time.perf_counter() < deadline:
            started = time.perf_counter()
            execution = self._execution()
            construct_s = time.perf_counter() - started
            # Collect what earlier ops and the recording left, outside
            # the timing; otherwise a full collection lands inside a
            # random op now and then and dominates the spread.  The op
            # still pays for collecting the garbage it makes itself.
            gc.collect()
            with log.op("stanford") as slot:
                report = Session(
                    program=scenario.program,
                    good=execution,
                    bad=execution,
                    good_event=scenario.good_event,
                    bad_event=scenario.bad_event,
                ).diagnose()
            log.construct_s.append(construct_s * slot["scale"])
            if slot["reason"] is None:
                log.fail(slot, self._check(report))
                log.events += len(execution.log)
                slot["timings"] = dict(report.timings)
                counts = _report_counts(report.canonical_dict())
            else:
                counts = {}
            log.end_pass(counts)
        log.busy_s = time.perf_counter() - started_all - log.calibration_s
        self.setup_s = self.build_s + statistics.median(log.construct_s)
        return log

    def _check(self, report) -> Optional[str]:
        if not report.success:
            return f"diagnosis failed: {report.failure_category}"
        changes = report.changes
        if len(changes) != 1 or changes[0].insert is not None or (
            changes[0].remove != (self.scenario.expected_fault,)
        ):
            return f"Δ {[c.describe() for c in changes]} != the injected fault"
        canonical = report.canonical_json()
        if self.canonical is None:
            self.canonical = canonical
        elif canonical != self.canonical:
            return "canonical report differs from the first op's"
        return None

    def close(self) -> None:
        gc.unfreeze()


# -- flap-stream -------------------------------------------------------------


class FlapStream(Workload):
    name = "flap-stream"
    FLAPS = 200
    EVENT_DUP = 0.05
    EVENT_REORDER = 0.1

    def setup(self) -> None:
        from repro.faults import FaultPlan
        from repro.scenarios import ALL_SCENARIOS
        from repro.streaming.events import dump_events
        from repro.streaming.perturb import perturb_events

        seeds = _sub_seeds(self.seed, "stream", "faults")
        self.plan = FaultPlan(
            event_dup=self.EVENT_DUP,
            event_reorder=self.EVENT_REORDER,
            seed=seeds["faults"],
        )
        self.params = {
            "flaps": self.FLAPS,
            "stream_seed": seeds["stream"],
            "fault_plan": self.plan.describe(),
        }
        self.stream_path = os.path.join(self.out_dir, f"flap-s-{os.getpid()}.ndjson")

        def build():
            scenario = ALL_SCENARIOS["FLAP-S"](
                flaps=self.FLAPS, stream_seed=seeds["stream"]
            ).setup()
            events = scenario.stream_events()
            delivered = perturb_events(events, self.plan)
            dump_events(delivered, self.stream_path)
            return scenario, events, delivered

        samples = []
        for _ in range(SETUP_REPEATS):
            elapsed, (scenario, events, delivered) = _timed_setup(build)
            samples.append(elapsed)
        self.setup_samples = samples
        self.setup_s = statistics.median(samples)
        self.events = events
        self.wire_lines = len(delivered)
        self.expected_change = f"insert {scenario.primary_route}"
        self.down_seqs = {
            seq
            for phase in scenario.down_phases()
            for seq in range(phase["first_seq"], phase["last_seq"] + 1)
        }
        self.records_digest: Optional[str] = None
        self.ingest_reason = self._check_ingest()

    def _check_ingest(self) -> Optional[str]:
        """Both fault kinds must be absorbed: the ingestor re-delivers the
        unperturbed stream byte for byte, with no gap."""
        from repro.streaming import Ingestor
        from repro.streaming.events import encode_event

        ingestor = Ingestor()
        with open(self.stream_path, encoding="utf-8") as handle:
            delivered = list(ingestor.run(line.rstrip("\n") for line in handle))
        got = [encode_event(event) if hasattr(event, "kind") else repr(event)
               for event in delivered]
        want = [encode_event(event) for event in self.events]
        if got != want:
            return "ingestion did not restore the unperturbed stream"
        if ingestor.stats.duplicates != self.wire_lines - len(self.events):
            return "ingestion missed duplicates"
        return None

    def measure(self, seconds: float, tracer=None) -> OpLog:
        from repro.api import Session
        from repro.streaming import StreamMonitor

        log = OpLog(tracer)
        original = StreamMonitor._diagnose

        def timed(monitor, incident, probe):
            with log.op("incident") as slot:
                slot["record"] = original(monitor, incident, probe)
            slots.append(slot)
            if slot["reason"] is not None:
                # The op already counts as failed; the monitor cannot go
                # on without its record, so the pass ends here.
                raise _PassAborted(slot["reason"])
            return slot["record"]

        slots: List[Dict] = []
        StreamMonitor._diagnose = timed
        try:
            started_all = time.perf_counter()
            while True:
                slots.clear()
                session = Session(scenario="FLAP-S")
                started = time.perf_counter()
                calibrated = log.calibration_s
                try:
                    monitor = session.monitor(stream=self.stream_path)
                except _PassAborted:
                    monitor = None
                finally:
                    session.close()
                # The pass's wall time without the calibration samples
                # taken around its incident diagnoses.
                wall = (time.perf_counter() - started
                        - (log.calibration_s - calibrated))
                log.pass_walls.append(wall)
                if monitor is None:
                    break
                summary = monitor.summary()
                log.events += summary.watermark
                self._check_pass(log, monitor, summary, slots)
                log.end_pass({
                    "stream.delivered": summary.ingest["delivered"],
                    "stream.duplicates": summary.ingest["duplicates"],
                    "stream.reordered": summary.ingest["reordered"],
                    "stream.peak_live": summary.peak_live,
                    "stream.incidents": summary.incidents,
                    **self._pass_report_counts(monitor),
                })
                elapsed = time.perf_counter() - started_all
                # Start another pass only if it fits in the run.
                if elapsed + wall > seconds:
                    break
        finally:
            StreamMonitor._diagnose = original
        # Throughput is over the monitor's whole wall time, ingestion
        # included, to the last record.
        log.busy_s = sum(log.pass_walls)
        return log

    @staticmethod
    def _pass_report_counts(monitor) -> Dict[str, float]:
        counts: Dict[str, float] = {}
        for record in monitor.records:
            if record.get("report"):
                _add_counts(counts, _report_counts(record["report"]))
        return counts

    def _check_pass(self, log: OpLog, monitor, summary, slots) -> None:
        for slot in slots:
            if slot["reason"] is not None:
                continue
            record = slot.pop("record")
            log.fail(slot, self._check_record(record))
        pass_reasons = []
        if self.ingest_reason:
            pass_reasons.append(self.ingest_reason)
        flagged = {
            seq for incident in monitor.detector.incidents
            for seq in incident.probe_seqs
        }
        missed = self.down_seqs - flagged
        if missed:
            pass_reasons.append(f"{len(missed)} down-phase probe(s) never detected")
        if summary.shed:
            pass_reasons.append(f"{summary.shed} incident(s) shed")
        if summary.diagnoses != summary.incidents:
            pass_reasons.append("incidents and diagnoses differ")
        digest = hashlib.sha256(
            json.dumps(monitor.records, sort_keys=True).encode("utf-8")
        ).hexdigest()
        if self.records_digest is None:
            self.records_digest = digest
        elif digest != self.records_digest:
            pass_reasons.append("record sequence differs from the first pass")
        # A pass-level failure is an op the monitor owed and did not
        # deliver correctly; it counts as one failed, attempted op.
        for reason in pass_reasons:
            log.ops.append({"label": "pass", "reason": reason,
                            "latency_s": 0.0, "synthetic": True})

    def _check_record(self, record: Dict) -> Optional[str]:
        if record.get("kind") != "diagnosis" or record.get("degraded"):
            return f"record degraded: {record.get('degraded')}"
        if not set(record["probe_seqs"]) <= self.down_seqs:
            return f"false positive: {record['incident']}"
        report = record.get("report") or {}
        changes = [change["change"] for change in report.get("changes", ())]
        if changes != [self.expected_change]:
            return f"Δ {changes} != [{self.expected_change}]"
        return None

    def close(self) -> None:
        if os.path.exists(getattr(self, "stream_path", "")):
            os.unlink(self.stream_path)


class _PassAborted(Exception):
    """An incident diagnosis raised; the monitor pass cannot finish."""


# -- service-mix -------------------------------------------------------------


class ServiceMix(Workload):
    name = "service-mix"
    in_process = False
    KINDS: Tuple[Tuple[str, Dict], ...] = (
        ("SDN1", {}),
        ("SDN1", {"minimize": True}),
        ("SDN2", {}),
        ("SDN4", {"minimize": True}),
        ("DNS", {"repair": True}),
        ("MR2-D", {}),
        ("FLAP", {"minimize": True, "repair": True}),
    )
    CALLERS = 2

    def setup(self) -> None:
        from repro.api import Session

        seeds = _sub_seeds(self.seed, "requests")
        self.request_seed = seeds["requests"]
        self.params = {
            "kinds": [[name, options] for name, options in self.KINDS],
            "callers": self.CALLERS,
            "workers": 1,
            "request_seed": self.request_seed,
        }
        # The oracle: the in-process diagnosis of every request kind.
        self.expected: Dict[int, str] = {}
        self.log_events: Dict[int, int] = {}
        for index, (name, options) in enumerate(self.KINDS):
            with Session(scenario=name, **options) as session:
                self.expected[index] = session.diagnose().canonical_json()
                self.log_events[index] = len(session.good.log) + (
                    0 if session.bad is session.good else len(session.bad.log)
                )
        self.journal_dir = os.path.join(self.out_dir, f"journals-{os.getpid()}")
        self.loop = asyncio.new_event_loop()
        self.server = None

        def start():
            self.server = self.loop.run_until_complete(self._start())
            # Warm-up: one request of every kind, so the worker's
            # replay cache is warm before anything is timed.
            self.loop.run_until_complete(self._warm())

        samples = []
        for _ in range(SETUP_REPEATS):
            self._stop()
            samples.append(_timed_setup(start)[0])
        self.setup_samples = samples
        self.setup_s = statistics.median(samples)

    async def _start(self):
        from repro.service import DiagnosisServer

        server = DiagnosisServer(
            workers=1, journal_dir=self.journal_dir, flight_capacity=1 << 14
        )
        await server.start()
        return server

    async def _warm(self) -> None:
        from repro.service import ServiceClient

        client = ServiceClient(self.server)
        for index, (name, options) in enumerate(self.KINDS):
            response = await client.diagnose(name, options=dict(options))
            if response.get("status") != "ok":
                raise RuntimeError(f"warm-up request failed: {response}")
        self.last_cache = response["report"]["cache"]

    def sequence(self) -> Iterator[List[int]]:
        """Rounds: every request kind once per pass, in a seeded order."""
        rng = random.Random(self.request_seed)
        while True:
            order = list(range(len(self.KINDS)))
            rng.shuffle(order)
            yield order

    def measure(self, seconds: float, tracer=None) -> OpLog:
        log = OpLog(None)
        self.phase = getattr(self, "phase", 0) + 1
        started = time.perf_counter()
        self.loop.run_until_complete(
            self._callers(log, seconds, telemetry=tracer is not None)
        )
        # The callers' calibration samples stay in: the worker, which
        # sets the pace, keeps diagnosing the other caller's request
        # while one caller calibrates.
        log.busy_s = time.perf_counter() - started
        self.worker_rss_mb = process_peak_rss_mb(self.server.fleet.shards[0].pid)
        return log

    async def _callers(self, log: OpLog, seconds: float, telemetry: bool) -> None:
        from repro.service import ServiceClient

        client = ServiceClient(self.server)
        deadline = time.perf_counter() + seconds
        rounds = self.sequence()
        queue: List[int] = []
        state = {"issued": 0, "round_size": len(self.KINDS)}

        def next_kind() -> Optional[int]:
            if time.perf_counter() >= deadline and state["issued"] >= state["round_size"]:
                return None
            if not queue:
                queue.extend(next(rounds))
            state["issued"] += 1
            return queue.pop(0)

        async def caller() -> None:
            while True:
                index = next_kind()
                if index is None:
                    return
                name, options = self.KINDS[index]
                options = dict(options)
                if telemetry:
                    # Worker spans ship back with the response.
                    options["telemetry"] = True
                request_id = f"perfbench-{self.phase}-{state['issued']}"
                slot = {"label": name, "id": request_id, "reason": None}
                before = log.calibrate()
                started = time.perf_counter()
                try:
                    response = await client.diagnose(
                        name, options=options, id=request_id
                    )
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    response = {"status": "error", "message": repr(exc)}
                slot["latency_s"] = time.perf_counter() - started
                slot["scale"] = scale(before, log.calibrate())
                slot["start"] = started
                slot["reason"] = self._check(index, response)
                if slot["reason"] is None:
                    log.events += self.log_events[index]
                log.ops.append(slot)
                # Every request of one kind repeats the same work on a
                # warm cache, so its counts are checked per kind.
                log.end_pass(self._record(slot, response), key=index)

        await asyncio.gather(*(caller() for _ in range(self.CALLERS)))

    def _record(self, slot: Dict, response: Dict) -> Dict[str, float]:
        """The counts one response carries; keeps its shipped spans."""
        counts: Dict[str, float] = {}
        report = response.get("report") or {}
        if response.get("status") != "ok":
            return counts
        cache = report.get("cache") or {}
        # The worker's cache outlives requests: count what this one added.
        for key in ("hits", "misses", "bytes"):
            counts[f"cache.{key}"] = cache.get(key, 0) - self.last_cache.get(key, 0)
        self.last_cache = cache
        journal = (report.get("resilience") or {}).get("journal") or {}
        counts["journal.entries"] = journal.get("entries_written", 0)
        if report.get("canonical"):
            counts.update(_report_counts(json.loads(report["canonical"])))
        telemetry = report.get("telemetry")
        if telemetry:
            slot["spans"] = telemetry.get("spans", [])
            add_span_calls(counts, service_op_spans(slot["spans"]))
        return counts

    def _check(self, index: int, response: Dict) -> Optional[str]:
        if response.get("status") != "ok":
            return f"status {response.get('status')}: {response.get('reason') or response.get('message')}"
        canonical = (response.get("report") or {}).get("canonical")
        if canonical != self.expected[index]:
            return "canonical report differs from the in-process diagnosis"
        return None

    def flight(self) -> Dict[str, Dict]:
        """Server-side timing per request id (the ``flight`` verb)."""
        from repro.service import ServiceClient

        async def fetch():
            return await ServiceClient(self.server).flight()

        snapshot = self.loop.run_until_complete(fetch())["flight"]
        return {entry["request"]: entry for entry in snapshot["entries"]}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb() + self.worker_rss_mb

    def _stop(self) -> None:
        """Shut the server down, wait for its worker and drop its
        journals, so that the next server starts from nothing."""
        if self.server is not None:
            self.loop.run_until_complete(self.server.shutdown())
            self.server = None
            _wait_children()
        if os.path.isdir(self.journal_dir):
            shutil.rmtree(self.journal_dir)

    def close(self) -> None:
        if getattr(self, "loop", None) is not None:
            self._stop()
            self.loop.close()


def _wait_children(timeout_s: float = 30.0) -> None:
    """Block until every worker process this run started has ended."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.01)


WORKLOADS = {
    cls.name: cls
    for cls in (StanfordBlackbox, FlapStream, ServiceMix)
}
