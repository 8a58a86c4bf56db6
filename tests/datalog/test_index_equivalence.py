"""Backend selection must be invisible in every observable.

The two evaluation backends — compiled closures over the columnar
store with lazy provenance recording, and the linear-scan reference
evaluator with eager recording — are licensed by one claim: they change
cost, never results.  These tests hold ``EngineConfig("compiled")``
against the ``("reference")`` oracle across the paper's scenarios and
assert identical table contents, identical provenance graphs
vertex-for-vertex, identical trees, byte-identical diagnosis reports,
and equal recorder metrics.
"""

import pytest

from repro.datalog import BACKENDS, EngineConfig
from repro.observability import Telemetry
from repro.provenance.lazy import LazyProvenanceGraph
from repro.provenance.query import provenance_query
from repro.replay.replayer import replay
from repro.scenarios import ALL_SCENARIOS
from repro.scenarios.stanford import StanfordForwardingError

# The satellite coverage set: every SDN scenario, DNS, the declarative
# MapReduce pair (the imperative MR variants use the instrumented
# runtime, which bypasses the engine join path entirely), and FLAP —
# the temporal/streaming scenario, whose log churns the same mutable
# tuple through repeated delete/insert cycles.
SCENARIOS = ["SDN1", "SDN2", "SDN3", "SDN4", "DNS", "MR1-D", "MR2-D", "FLAP"]

MATRIX = sorted(BACKENDS)


def _scenario(name, **params):
    return ALL_SCENARIOS[name](**params).setup()


def _replay_matrix(scenario, execution):
    """The same log replayed under every backend, reference last."""
    return {
        backend: replay(
            scenario.program, execution.log, engine=EngineConfig.coerce(backend)
        )
        for backend in MATRIX
    }


class TestTableEquivalence:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_identical_table_contents(self, name):
        scenario = _scenario(name)
        for execution in (scenario.good_execution, scenario.bad_execution):
            results = _replay_matrix(scenario, execution)
            reference = results.pop("reference")
            for backend, result in results.items():
                for table in sorted(scenario.program.schemas):
                    assert result.engine.lookup(table) == reference.engine.lookup(
                        table
                    ), f"{name}: table {table} diverged under {backend}"


class TestGraphEquivalence:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_identical_graphs_vertex_for_vertex(self, name):
        scenario = _scenario(name)
        results = _replay_matrix(scenario, scenario.bad_execution)
        reference = results.pop("reference")
        # Touching .vertices materializes the lazy graph;
        # the reconstruction must replay into the exact eager sequence.
        ref_vertices = reference.graph.vertices
        for backend, result in results.items():
            vertices = result.graph.vertices
            assert len(vertices) == len(ref_vertices), backend
            for mine, theirs in zip(vertices, ref_vertices):
                assert (mine.id, mine.kind, mine.node, mine.tuple, mine.time,
                        mine.end_time, mine.rule, mine.derivation_id,
                        mine.mutable) == (
                    theirs.id, theirs.kind, theirs.node, theirs.tuple,
                    theirs.time, theirs.end_time, theirs.rule,
                    theirs.derivation_id, theirs.mutable)
                assert [c.id for c in result.graph.children(mine)] == [
                    c.id for c in reference.graph.children(theirs)
                ]
            assert sorted(result.graph.derivations) == sorted(
                reference.graph.derivations
            )

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_identical_trees(self, name):
        scenario = _scenario(name)
        results = _replay_matrix(scenario, scenario.bad_execution)
        rendered = {
            backend: provenance_query(
                result.graph, scenario.bad_event, scenario.bad_time
            ).render()
            for backend, result in results.items()
        }
        assert rendered["compiled"] == rendered["reference"]

    def test_lazy_vertex_count_matches_before_materialization(self):
        scenario = _scenario("SDN1")
        results = _replay_matrix(scenario, scenario.bad_execution)
        # len() on the lazy graph comes from record-time counters; it
        # must agree with eager construction without materializing.
        assert results["compiled"].graph.pending
        assert len(results["compiled"].graph) == len(
            results["reference"].graph
        )
        assert results["compiled"].graph.pending


# The black-box emulator inputs (SDN1-C, SDN2-C, a small Stanford
# build) exercise the other half of each backend: copy-on-write fork()
# and trie lookups vs clone() and linear flow-table scans, and the
# reconstructor's lazy vs eager recorder.
DIAGNOSIS_INPUTS = [
    "SDN1", "SDN3", "DNS", "FLAP", "SDN1-C", "SDN2-C", "STANFORD-600"
]


def _diagnosis_input(name, engine):
    if name == "STANFORD-600":
        return StanfordForwardingError(
            entries_per_router=600, engine=engine
        ).setup()
    return _scenario(name, engine=engine)


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("name", DIAGNOSIS_INPUTS)
    def test_reports_byte_identical_across_backends(self, name):
        reports = {
            backend: _diagnosis_input(name, backend)
            .diagnose()
            .canonical_json()
            for backend in MATRIX
        }
        assert reports["compiled"] == reports["reference"]

    @pytest.mark.parametrize("name", ["SDN1-C", "SDN2-C"])
    def test_black_box_reference_records_eagerly(self, name):
        for backend, lazy in (("compiled", True), ("reference", False)):
            scenario = _scenario(name, engine=backend)
            recorder = scenario.bad_execution.replay().recorder
            assert isinstance(recorder.graph, LazyProvenanceGraph) is lazy


class TestRecorderMetricsEquivalence:
    def test_all_modes_count_the_same_vertices_and_edges(self):
        scenario = _scenario("SDN1")
        log = scenario.bad_execution.log
        snapshots = {}
        for backend in MATRIX:
            telemetry = Telemetry()
            replay(scenario.program, log, telemetry=telemetry, engine=backend)
            counters = telemetry.snapshot()["counters"]
            snapshots[backend] = {
                key: value
                for key, value in counters.items()
                if key.startswith("recorder.vertices.")
                or key == "recorder.edges"
                or key.startswith("engine.rule_firings.")
            }
        assert snapshots["compiled"] == snapshots["reference"]
        assert snapshots["reference"].get("recorder.edges", 0) > 0

    def test_index_hits_and_reconstructions_are_metered(self):
        scenario = _scenario("SDN1")
        telemetry = Telemetry()
        result = replay(
            scenario.program, scenario.bad_execution.log, telemetry=telemetry
        )
        counters = telemetry.snapshot()["counters"]
        assert counters.get("engine.index.hits", 0) > 0
        assert "provenance.lazy.reconstructions" not in counters
        result.graph.vertices  # force one reconstruction
        counters = telemetry.snapshot()["counters"]
        assert counters.get("provenance.lazy.reconstructions") == 1
