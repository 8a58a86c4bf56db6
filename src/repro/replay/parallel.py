"""Ordered candidate sweeps over a self-healing process pool.

Three DiffProv phases evaluate an ordered list of independent
candidates: the §4.9 minimality pass, the counterfactual verification
of rollback plans, and autoref's reference sweep.  :class:`CandidateSweep`
is the one harness they share.  It resolves journal hits, checks the
deadline, decides between the parent process and the pool, installs a
replay cache in each worker, and yields verdicts in job order, so a
caller stops at the first verdict it accepts exactly where a serial
pass would have stopped.

:class:`CandidateEvaluator` is the pool underneath, and it keeps the
*outcome* byte-identical to a serial run:

- The evaluation context is pickled **once** and shipped to each worker
  through the pool initializer; jobs are dispatched by index, so the
  per-job payload is a single integer.
- Results come back as ordered ``("ok", value)`` / ``("err", exc)``
  pairs.  Callers consume them in serial order and re-raise an error
  exactly where the serial pass would have hit it; results the serial
  pass would never have computed are simply discarded.
- Workers operate on unpickled *clones* of the context — mutations
  never reach the parent.  The inline fallback (no usable pool, or a
  single job) preserves the same isolation by evaluating against a
  fresh unpickle per job.

Self-healing (docs/resilience.md): every job is a pure function of the
shipped context and its index, so any failed attempt can simply be run
again.  When a worker dies mid-wave (``BrokenProcessPool`` — an OOM
kill, a segfaulting extension, or the ``worker-crash`` fault kind) the
evaluator respawns the pool up to
``ResiliencePolicy.max_pool_restarts`` times and re-submits only the
candidates without results; if pools keep dying, the survivors are
evaluated inline in the parent.  A :class:`ResiliencePolicy` can also
bound per-candidate wall-clock (timed-out candidates are abandoned on
the pool and recomputed inline) and hedge stragglers with a duplicate
submission.  All of it is counted: ``parallel.pool_restarts``,
``parallel.timeouts``, ``parallel.hedges``, ``parallel.inline_fallbacks``.

With ``workers=1`` the sweep never builds an evaluator: every job runs
in the parent on live state, which is the reference behaviour the pool
is measured against.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple as PyTuple

from ..errors import ReproError
from ..faults.injector import FaultInjector, worker_crash_decision
from ..observability import active as _active_telemetry
from ..resilience.policy import ResiliencePolicy
from .cache import ReplayCache

__all__ = ["CandidateEvaluator", "CandidateSweep", "pool_mp_context"]


def pool_mp_context():
    """The multiprocessing context for diagnosis worker pools.

    Prefer fork on platforms that have it: parent state is shared
    copy-on-write and worker start-up is milliseconds.  Spawn-only
    platforms get the default context — identical semantics, slower
    start.  Shared with the service's persistent worker fleet
    (:mod:`repro.service.fleet`), which runs the same evaluation code
    one shard per process.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()

# Per-process evaluation context, installed by the pool initializer so
# every job in a worker shares one unpickled copy.
_WORKER_CONTEXT = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = pickle.loads(payload)


def _run_job(index: int, attempt: int = 0):
    func, shared, crash = _WORKER_CONTEXT
    if crash is not None and attempt == 0:
        seed, rate = crash
        if worker_crash_decision(seed, rate, index):
            # Simulated worker death: exit hard enough that the pool
            # sees a vanished process, not a raised exception.  Only
            # the first attempt crashes, so the healed pool's re-run
            # (attempt 1) completes deterministically.
            os._exit(66)
    try:
        return ("ok", func(shared, index))
    except Exception as exc:  # noqa: BLE001 - transported to the caller
        try:
            pickle.dumps(exc)
        except Exception:
            exc = ReproError(f"{type(exc).__name__}: {exc}")
        return ("err", exc)


class CandidateEvaluator:
    """Evaluates ``func(shared, i)`` for ``i in range(count)`` in parallel.

    ``func`` must be a module-level callable (pickled by reference) and
    ``shared`` a picklable context.  Results preserve job order.
    ``faults`` (a FaultInjector over a plan with ``worker_crash > 0``)
    arms the simulated worker-crash fault; ``policy`` tunes the healing
    behaviour.
    """

    def __init__(self, workers: int = 1, telemetry=None,
                 policy: Optional[ResiliencePolicy] = None, faults=None):
        self.workers = max(1, int(workers))
        self.telemetry = _active_telemetry(telemetry)
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.faults = faults
        # Healing counters, cumulative across waves; callers fold them
        # into report.resilience.
        self.pool_restarts = 0
        self.timeouts = 0
        self.hedges = 0
        self.inline_fallbacks = 0

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def counters(self) -> Dict[str, int]:
        return {
            "pool_restarts": self.pool_restarts,
            "timeouts": self.timeouts,
            "hedges": self.hedges,
            "inline_fallbacks": self.inline_fallbacks,
        }

    def evaluate(
        self, func, shared, count: int
    ) -> Optional[List[PyTuple[str, Any]]]:
        """Ordered ``("ok", value)`` / ``("err", exc)`` results.

        Returns ``None`` when the context cannot be pickled (e.g. an
        execution stand-in holding live OS resources) — the caller
        falls back to its serial path.
        """
        if count <= 0:
            return []
        crash = None
        if self.faults is not None and self.faults.plan.worker_crash > 0.0:
            crash = (self.faults.plan.seed, self.faults.plan.worker_crash)
        try:
            payload = pickle.dumps(
                (func, shared, crash), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            if self.telemetry is not None:
                self.telemetry.inc("parallel.unpicklable_contexts")
            return None
        if self.telemetry is not None:
            self.telemetry.inc("parallel.waves")
            self.telemetry.inc("parallel.jobs", count)
        if not self.parallel or count == 1:
            return self._inline(payload, count)
        try:
            return self._pooled(payload, count)
        except (OSError, RuntimeError, concurrent.futures.BrokenExecutor):
            # Pool-level failure that healing could not contain (fork
            # unavailable, resource limits): the inline path is slower
            # but has identical semantics.
            if self.telemetry is not None:
                self.telemetry.inc("parallel.pool_failures")
            return self._inline(payload, count)

    # -- pooled path ---------------------------------------------------------

    def _pooled(self, payload: bytes, count: int) -> List[PyTuple[str, Any]]:
        results: Dict[int, PyTuple[str, Any]] = {}
        pending = list(range(count))
        restarts_left = self.policy.max_pool_restarts
        while pending:
            survivors = self._pool_round(payload, pending, results)
            if not survivors:
                break
            # The pool died mid-wave.  Jobs are pure functions of
            # (context, index), so the unfinished ones are simply
            # resubmitted to a fresh pool — bounded, then inline.
            if restarts_left <= 0:
                self.inline_fallbacks += len(survivors)
                if self.telemetry is not None:
                    self.telemetry.inc(
                        "parallel.inline_fallbacks", len(survivors)
                    )
                for index in survivors:
                    results[index] = self._inline_one(payload, index)
                break
            restarts_left -= 1
            self.pool_restarts += 1
            if self.telemetry is not None:
                self.telemetry.inc("parallel.pool_restarts")
            pending = survivors
        return [results[index] for index in range(count)]

    def _pool_round(
        self,
        payload: bytes,
        pending: List[int],
        results: Dict[int, PyTuple[str, Any]],
    ) -> List[int]:
        """One pool lifetime: run ``pending``, fill ``results``.

        Returns the indices still unresolved when the pool broke (empty
        when the round completed cleanly).
        """
        # The payload rides through the initializer, so every context
        # pool_mp_context() can return works identically.
        mp_context = pool_mp_context()
        attempt = 0 if not self.pool_restarts else 1
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(payload,),
        )
        clean = True
        timeouts_before = self.timeouts
        try:
            futures = {
                index: pool.submit(_run_job, index, attempt)
                for index in pending
            }
            for index in pending:
                if index in results:
                    continue
                try:
                    results[index] = self._await_one(
                        pool, futures, index, attempt, payload
                    )
                except concurrent.futures.process.BrokenProcessPool:
                    clean = False
                    return [i for i in pending if i not in results]
        finally:
            # A hung (timed-out, abandoned) worker must not block
            # shutdown; an abandoned future's eventual result is
            # simply discarded.
            if self.timeouts > timeouts_before:
                clean = False
            pool.shutdown(wait=clean, cancel_futures=not clean)
        return []

    def _await_one(self, pool, futures, index, attempt, payload):
        """Resolve one candidate, applying timeout and hedging policy."""
        future = futures[index]
        timeout = self.policy.candidate_timeout_s
        hedge_after = self.policy.hedge_after_s
        if hedge_after is not None:
            done, _ = concurrent.futures.wait([future], timeout=hedge_after)
            if not done:
                # Straggler: race a duplicate submission.  Both attempts
                # compute the same pure function, so first-wins is safe.
                self.hedges += 1
                if self.telemetry is not None:
                    self.telemetry.inc("parallel.hedges")
                hedged = pool.submit(_run_job, index, max(attempt, 1))
                remaining = None
                if timeout is not None:
                    remaining = max(0.0, timeout - hedge_after)
                done, _ = concurrent.futures.wait(
                    [future, hedged],
                    timeout=remaining,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if done:
                    return self._future_outcome(done.pop())
                return self._timeout_fallback(payload, index)
        try:
            future.exception(timeout=timeout)
        except concurrent.futures.TimeoutError:
            return self._timeout_fallback(payload, index)
        return self._future_outcome(future)

    @staticmethod
    def _future_outcome(future) -> PyTuple[str, Any]:
        # A broken pool surfaces as the *stored* exception of every
        # in-flight future — re-raise it so the healing loop sees a
        # dead pool, not a per-candidate error.
        exc = future.exception()
        if isinstance(exc, concurrent.futures.process.BrokenProcessPool):
            raise exc
        return ("err", exc) if exc is not None else future.result()

    def _timeout_fallback(self, payload: bytes, index: int):
        """A candidate blew its wall-clock budget: abandon the pool
        attempt and recompute inline (deterministic ⇒ same result)."""
        self.timeouts += 1
        self.inline_fallbacks += 1
        if self.telemetry is not None:
            self.telemetry.inc("parallel.timeouts")
            self.telemetry.inc("parallel.inline_fallbacks")
        return self._inline_one(payload, index)

    # -- inline path ---------------------------------------------------------

    def _inline(self, payload: bytes, count: int) -> List[PyTuple[str, Any]]:
        """Serial evaluation with worker-grade isolation.

        A fresh unpickle per job: even inline, a job mutating the
        context can never influence a later job or the caller.
        """
        if self.telemetry is not None:
            self.telemetry.inc("parallel.inline_jobs", count)
        return [self._inline_one(payload, index) for index in range(count)]

    @staticmethod
    def _inline_one(payload: bytes, index: int) -> PyTuple[str, Any]:
        # attempt=1 suppresses the simulated worker crash: killing the
        # parent process would defeat the whole point of the fallback.
        func, shared, _crash = pickle.loads(payload)
        try:
            return ("ok", func(shared, index))
        except Exception as exc:  # noqa: BLE001 - ordered transport
            return ("err", exc)

    def __repr__(self):
        return (
            f"CandidateEvaluator(workers={self.workers}, "
            f"restarts={self.pool_restarts})"
        )


def _sweep_job(shared, index):
    """Worker-side evaluation of one :class:`CandidateSweep` job.

    The first job a worker runs gives the shipped executions one
    worker-local snapshot cache, built like the parent's (the run's
    ``snapshot-corrupt`` fault included), so later jobs on the same
    worker fork from shared prefixes instead of re-deriving them.
    ``warm`` is empty when the run disabled its replay cache.
    """
    probe, jobs, warm, plan = shared
    cache = None
    for execution in warm:
        if getattr(execution, "replay_cache", False) is None:
            if cache is None:
                cache = ReplayCache.for_plan(plan)
            execution.replay_cache = cache
    return probe(jobs[index])


def _same(value):
    return value


class CandidateSweep:
    """Ordered evaluation of independent candidates for one run.

    Holds the run's harness — worker count, journal, deadline,
    telemetry, healing policy, fault plan and replay-cache switch — and
    evaluates job lists with :meth:`run`.  The pool is built on the
    first wave that needs it; its healing counters accumulate across
    runs and feed :meth:`resilience_section`.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        journal=None,
        deadline=None,
        telemetry=None,
        policy: Optional[ResiliencePolicy] = None,
        fault_plan=None,
        replay_cache: bool = True,
    ):
        self.workers = max(1, int(workers or 1))
        self.journal = journal
        self.deadline = deadline
        self.telemetry = telemetry
        self.policy = policy
        self.fault_plan = fault_plan
        self.replay_cache = replay_cache
        self._evaluator: Optional[CandidateEvaluator] = None

    def check(self, phase: str) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once the budget
        is spent, naming ``phase``."""
        if self.deadline is not None:
            self.deadline.check(phase)

    def run(
        self,
        jobs,
        probe,
        *,
        phase: str,
        executions=(),
        parallel: bool = True,
        wave: Optional[int] = None,
        kind: Optional[str] = None,
        key=None,
        encode=_same,
        decode=_same,
        timer=nullcontext,
    ):
        """Yield ``(job, verdict)`` for every job, in job order.

        ``probe(job)`` computes one verdict; it must be picklable (a
        module-level function, or a bound method or ``partial`` over
        picklable state), because on the pool it runs on an unpickled
        clone.  The caller stops the sweep by breaking out of the loop:
        verdicts past that point were either never computed or are
        discarded unread.

        - ``kind`` journals the verdicts under that kind, keyed by
          ``key(job)``: hits are resolved before anything is evaluated,
          and each consumed miss is recorded as ``encode(verdict)``.
          ``decode(value)`` turns a recorded value back into a verdict,
          or into None to evaluate the job anyway.  ``kind=None`` keeps
          the sweep out of the journal.
        - Misses run on the pool in waves of ``wave`` (default: every
          remaining job), timed under ``timer()``.  They run in this
          process, on live state and one at a time, when
          ``workers == 1``, when ``parallel`` is false, when a wave holds
          a single miss, or once the context proves unpicklable.
        - The deadline is checked before every wave, under ``phase``.
        - ``executions`` are the probe's executions that each worker
          gives a snapshot cache, unless the run disabled the cache.
        """
        jobs = list(jobs)
        journal = self.journal if kind is not None else None
        pooled = parallel and self.workers > 1
        looked: Dict[int, Any] = {}
        cursor = 0
        while cursor < len(jobs):
            self.check(phase)
            size = (wave or len(jobs)) if pooled else 1
            end, misses = cursor, []
            while end < len(jobs) and len(misses) < size:
                if end not in looked:
                    value = (
                        None if journal is None
                        else journal.lookup(kind, key(jobs[end]))
                    )
                    looked[end] = None if value is None else decode(value)
                if looked[end] is None:
                    misses.append(end)
                end += 1
            results: Dict[int, PyTuple[str, Any]] = {}
            if len(misses) > 1:
                warm = tuple(executions) if self.replay_cache else ()
                shared = (probe, [jobs[i] for i in misses], warm,
                          self.fault_plan)
                with timer():
                    outcome = self._pool().evaluate(
                        _sweep_job, shared, len(misses)
                    )
                if outcome is None:
                    # The context cannot be pickled (e.g. an execution
                    # stand-in holding OS resources): finish here.
                    pooled = False
                    continue
                results = dict(zip(misses, outcome))
            for index in range(cursor, end):
                job, verdict = jobs[index], looked.pop(index)
                if verdict is None:
                    if index in results:
                        status, verdict = results[index]
                        if status == "err":
                            raise verdict
                    else:
                        verdict = probe(job)
                    if journal is not None:
                        journal.record(kind, key(job), encode(verdict))
                yield job, verdict
            cursor = end

    def _pool(self) -> CandidateEvaluator:
        if self._evaluator is None:
            self._evaluator = CandidateEvaluator(
                self.workers,
                self.telemetry,
                policy=self.policy,
                faults=(
                    FaultInjector(self.fault_plan, "evaluator")
                    if self.fault_plan is not None
                    else None
                ),
            )
        return self._evaluator

    def counters(self) -> Dict[str, int]:
        """The pool's non-zero healing counters (empty without a pool)."""
        if self._evaluator is None:
            return {}
        return {
            name: value
            for name, value in self._evaluator.counters().items()
            if value
        }

    def resilience_section(
        self, cache=None, expired_in: Optional[str] = None,
        stopped_early: bool = False,
    ) -> Optional[Dict[str, object]]:
        """A report's ``resilience`` section (None when nothing was active).

        Describes *how* the run survived, never what it concluded — it
        is excluded from the canonical report, so resumed and degraded
        runs stay byte-comparable on their conclusions.  ``cache`` is
        the run's ReplayCache, ``expired_in`` the phase a caught
        deadline expiry cut short, ``stopped_early`` whether a sweep
        ended on the deadline.
        """
        section: Dict[str, object] = {}
        journal = self.journal
        if journal is not None:
            section["journal"] = {
                "path": journal.path,
                "resumed": journal.resumed,
                "skipped_candidates": journal.skipped,
                "entries_written": journal.writes,
            }
        counters = self.counters()
        if counters:
            section["evaluator"] = counters
        if cache is not None and cache.corrupt:
            section["cache"] = {"corrupt": cache.corrupt}
        deadline = self.deadline
        if deadline is not None:
            section["deadline"] = {
                "seconds": deadline.seconds,
                "expired": deadline.expired or expired_in is not None,
                "slack_s": round(deadline.timeout(), 3),
            }
            if expired_in is not None:
                section["deadline"]["expired_in"] = expired_in
        if stopped_early:
            section["stopped_early"] = True
        return section or None
