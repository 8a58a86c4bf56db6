"""Automatic reference-event discovery (Section 4.9, future work).

The paper relies on the operator to supply the reference event but
notes that the process could be automated, inspired by ATPG's test
packets and Everflow's guided probes.  This module implements the
search: given the bad event, it proposes candidate reference events
from the provenance graph — same event type, similar headers, different
outcome — ranks them by similarity, and runs DiffProv against each
until a diagnosis succeeds with a non-empty Δ.

Candidates that align with *zero* changes are skipped: they are events
the network already treats consistently with the bad one, so they
cannot explain the anomaly (they are the "events we knew were suitable
references" the paper filters the other way around in Section 6.3).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from ..datalog.tuples import Tuple
from ..errors import DeadlineExceeded
from ..replay.parallel import CandidateSweep
from ..resilience import Deadline
from .diffprov import DiffProv, DiffProvOptions, _attach_run
from .report import DiagnosisReport

__all__ = ["ReferenceCandidate", "AutoReferenceResult", "auto_diagnose",
           "propose_references", "propose_stream_references"]


class ReferenceCandidate:
    """A candidate reference event with its similarity score."""

    __slots__ = ("event", "score")

    def __init__(self, event: Tuple, score: float):
        self.event = event
        self.score = score

    def __repr__(self):
        return f"ReferenceCandidate({self.event}, score={self.score:.2f})"


class AutoReferenceResult:
    """Outcome of an automatic reference search."""

    __slots__ = ("report", "reference", "tried", "resilience")

    def __init__(
        self,
        report: Optional[DiagnosisReport],
        reference: Optional[Tuple],
        tried: Sequence[ReferenceCandidate],
        resilience=None,
    ):
        self.report = report
        self.reference = reference
        self.tried = list(tried)
        # Sweep-level resilience section (journal resume savings,
        # deadline expiry, evaluator healing); None when inactive.
        self.resilience = resilience

    @property
    def found(self) -> bool:
        return self.report is not None and self.report.success

    @property
    def stopped_early(self) -> bool:
        """Whether the sweep was cut short by the deadline."""
        return bool((self.resilience or {}).get("stopped_early"))

    def __repr__(self):
        state = f"reference={self.reference}" if self.found else "no reference"
        return f"AutoReferenceResult({state}, tried={len(self.tried)})"


def similarity(bad_event: Tuple, candidate: Tuple) -> float:
    """Field-agreement score between two same-table events.

    Equal fields score 1 each; the paper's guidance is "as similar as
    possible" *but with a different outcome*, so identical tuples are
    excluded by the caller.
    """
    return sum(
        1.0 for a, b in zip(bad_event.args, candidate.args) if a == b
    )


def propose_references(
    graph, bad_event: Tuple, limit: int = 10
) -> List[ReferenceCandidate]:
    """Ranked candidate reference events from a provenance graph.

    Candidates share the bad event's table (the same kind of outcome)
    but are distinct tuples; ranking is by header similarity, ties
    broken deterministically.
    """
    candidates = []
    for tup in graph.live_tuples(bad_event.table):
        if tup == bad_event or tup.arity != bad_event.arity:
            continue
        candidates.append(ReferenceCandidate(tup, similarity(bad_event, tup)))
    candidates.sort(key=lambda c: (-c.score, str(c.event)))
    return candidates[:limit]


def propose_stream_references(
    graph, bad_event: Tuple, healthy: Sequence[Tuple], limit: int = 10
) -> List[ReferenceCandidate]:
    """The streaming generalization of :func:`propose_references`.

    An online monitor knows more than a provenance graph does: each
    probe in the current window carries an *observed* outcome, so the
    good reference should come from events the network itself reported
    healthy — not merely events that look similar.  Candidates are the
    graph's live same-table tuples restricted to ``healthy`` (observed
    order, oldest first); ranking is by header similarity as in the
    offline search, with ties broken by *recency* — the freshest
    healthy observation is the best stand-in for "how the service
    behaves right now" — then deterministically by text.
    """
    order = {}
    for index, event in enumerate(healthy):
        order[event] = index  # the latest observation of a tuple wins
    candidates = []
    for tup in graph.live_tuples(bad_event.table):
        if tup == bad_event or tup.arity != bad_event.arity:
            continue
        if tup not in order:
            continue
        candidates.append(ReferenceCandidate(tup, similarity(bad_event, tup)))
    candidates.sort(key=lambda c: (-c.score, -order[c.event], str(c.event)))
    return candidates[:limit]


def _diagnose_reference(program, good, bad, bad_event, options, candidate):
    """Diagnose ``bad_event`` against one candidate reference."""
    return DiffProv(program, options).diagnose(
        good, bad, candidate.event, bad_event
    )


def _accepted(report) -> bool:
    """Whether a candidate's diagnosis ends the sweep: a success with a
    non-empty Δ.  ``False`` stands for a candidate a resumed journal
    already rejected."""
    return report is not False and report.success and report.num_changes > 0


def auto_diagnose(
    program,
    good_execution,
    bad_execution,
    bad_event: Tuple,
    options: Optional[DiffProvOptions] = None,
    limit: int = 10,
) -> AutoReferenceResult:
    """Diagnose ``bad_event`` without an operator-supplied reference.

    ``good_execution`` is where references are searched for — typically
    the same execution as the bad one (partial failures) or an earlier
    one (sudden failures).  Returns the first successful diagnosis with
    a non-empty Δ, together with every candidate that was tried.

    With ``options.workers`` > 1 candidate diagnoses run speculatively
    in waves of that size on a process pool.  Results are consumed in
    ranking order and the sweep stops at the first success, so the
    chosen reference, its report, and the tried list are identical to
    the serial sweep — candidates beyond the winner are discarded
    unread (docs/performance.md).
    """
    opts = options or DiffProvOptions()
    # Normalize the budget once so every candidate diagnosis shares the
    # sweep's end-to-end deadline (a raw seconds value would otherwise
    # restart per candidate); the original options value is restored.
    saved_deadline = opts.deadline
    deadline = Deadline.of(saved_deadline)
    opts.deadline = deadline
    sweep = CandidateSweep(
        opts.workers,
        journal=opts.journal,
        deadline=deadline,
        telemetry=opts.telemetry,
        policy=opts.resilience,
        fault_plan=opts.faults,
        replay_cache=opts.replay_cache,
    )
    try:
        candidates = propose_references(good_execution.graph, bad_event, limit)
        tried: List[ReferenceCandidate] = []
        stopped_early = False
        try:
            # One snapshot cache stays warm across the whole sweep:
            # every candidate diagnosis replays the same logs, so later
            # candidates restore what earlier ones derived.
            with _attach_run(good_execution, bad_execution, opts):
                for candidate, report in sweep.run(
                    candidates,
                    partial(_diagnose_reference, program, good_execution,
                            bad_execution, bad_event, opts),
                    phase="autoref",
                    executions=(good_execution, bad_execution),
                    wave=sweep.workers,
                    kind="autoref",
                    key=lambda candidate: str(candidate.event),
                    encode=_accepted,
                    # A journal-rejected candidate skips its whole
                    # diagnosis.  A recorded winner is re-diagnosed
                    # fresh: its report is needed, and re-running it
                    # yields the byte-identical one.
                    decode=lambda accepted: None if accepted else False,
                ):
                    tried.append(candidate)
                    if _accepted(report):
                        return AutoReferenceResult(
                            report, candidate.event, tried,
                            resilience=sweep.resilience_section(),
                        )
        except DeadlineExceeded:
            stopped_early = True
        return AutoReferenceResult(
            None, None, tried,
            resilience=sweep.resilience_section(stopped_early=stopped_early),
        )
    finally:
        opts.deadline = saved_deadline
