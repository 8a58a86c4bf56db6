"""The scenario harness.

A Scenario builds one or two logged executions containing a fault, and
names a good and a bad event.  On top of that it offers the three
diagnostic techniques compared in Table 1: classic provenance queries
(the Y! baseline), the plain tree diff strawman, and DiffProv.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple as PyTuple

from ..core.diffprov import DiffProv, DiffProvOptions
from ..core.report import DiagnosisReport
from ..datalog.config import EngineConfig
from ..datalog.rules import Program
from ..datalog.tuples import Tuple
from ..errors import ReproError
from ..faults import FaultPlan
from ..provenance.diff import naive_diff
from ..provenance.query import provenance_query
from ..provenance.tree import ProvenanceTree
from ..replay.execution import Execution

__all__ = ["Scenario"]


class Scenario:
    """Base class for diagnostic scenarios."""

    name: str = "scenario"
    description: str = ""
    # False for scenarios that run under a non-zero fault plan; the
    # fault-free invariant sweep skips those.
    fault_free: bool = True

    def __init__(self, **params):
        self.params = params
        self.program: Optional[Program] = None
        self.good_execution: Optional[Execution] = None
        self.bad_execution: Optional[Execution] = None
        self.good_event: Optional[Tuple] = None
        self.bad_event: Optional[Tuple] = None
        self.good_time: Optional[int] = None
        self.bad_time: Optional[int] = None
        self._built = False

    @classmethod
    def one_liner(cls) -> str:
        """The scenario's one-line description for listings.

        Prefers the class ``description`` attribute; falls back to the
        first line of the class docstring so a scenario without one
        never lists as an empty row.
        """
        if cls.description:
            return cls.description
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The scenario's fault plan (``faults`` param), parsed if a spec."""
        plan = self.params.get("faults")
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        return plan

    # -- lifecycle -----------------------------------------------------------

    def build(self) -> None:
        """Construct executions and events; set the attributes above."""
        raise NotImplementedError

    def setup(self) -> "Scenario":
        if not self._built:
            self.build()
            self._check_built()
            self._apply_engine()
            self._built = True
        return self

    def _apply_engine(self) -> None:
        """Apply the ``engine`` param to both executions post-build.

        Scenarios accept ``engine=`` (an EngineConfig or a backend
        name) without per-scenario plumbing: the config is assigned
        after the executions are built, so every diagnostic replay —
        where all the work happens — runs under it.  Backends are
        byte-identical in results, so applying post-build changes cost
        only.
        """
        engine = self.params.get("engine")
        if engine is None:
            return
        config = EngineConfig.coerce(engine)
        for execution in (self.good_execution, self.bad_execution):
            if hasattr(execution, "engine_config"):
                execution.engine_config = config

    def _check_built(self) -> None:
        missing = [
            attr
            for attr in (
                "program",
                "good_execution",
                "bad_execution",
                "good_event",
                "bad_event",
            )
            if getattr(self, attr) is None
        ]
        if missing:
            raise ReproError(
                f"scenario {self.name!r} did not set: {', '.join(missing)}"
            )

    # -- the three diagnostic techniques ---------------------------------------

    def trees(self) -> PyTuple[ProvenanceTree, ProvenanceTree]:
        """The good and bad provenance trees (classic 'Y!' queries)."""
        self.setup()
        good = provenance_query(
            self.good_execution.graph, self.good_event, self.good_time
        )
        bad = provenance_query(
            self.bad_execution.graph, self.bad_event, self.bad_time
        )
        return good, bad

    def plain_diff_size(self) -> int:
        """Size of the naive tree diff (the Section 2.5 strawman)."""
        good, bad = self.trees()
        return len(naive_diff(good, bad))

    def diagnose(self, options: Optional[DiffProvOptions] = None) -> DiagnosisReport:
        """Run DiffProv on the scenario's good/bad events.

        A scenario-level fault plan is threaded into the options (when
        the caller did not set one), so fault-enabled scenarios get the
        degraded query path without per-call plumbing.
        """
        self.setup()
        plan = self.fault_plan
        if plan is not None and (options is None or options.faults is None):
            options = options or DiffProvOptions()
            options.faults = plan
        debugger = DiffProv(self.program, options)
        return debugger.diagnose(
            self.good_execution,
            self.bad_execution,
            self.good_event,
            self.bad_event,
            self.good_time,
            self.bad_time,
        )

    def table1_row(self, options: Optional[DiffProvOptions] = None) -> Dict:
        """The scenario's row of Table 1."""
        good, bad = self.trees()
        report = self.diagnose(options)
        return {
            "scenario": self.name,
            "good_tree": good.size(),
            "bad_tree": bad.size(),
            "plain_diff": self.plain_diff_size(),
            "diffprov": report.num_changes,
            "diffprov_per_round": report.changes_per_round,
            "success": report.success,
            "report": report,
        }

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"
