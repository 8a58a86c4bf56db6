"""Engine hot path: join indexes, interned tuples, lazy provenance.

Every DiffProv phase bottoms out in candidate replays
(``diffprov.replay``), which is exactly where the hot-path rework
lands: compiled join closures over composite indexes planned per rule,
a head-predicate dispatch index, interned tuples, and a provenance
recorder that records compact events instead of eagerly building the
seven-vertex graph on every replay.  This benchmark pins the claim
from both sides:

- ``replay_linear_s`` — the linear-scan, eager-provenance reference
  engine (``EngineConfig("reference")``), the mode the equivalence
  tests compare against;
- ``replay_fast_s`` — the default compiled backend with lazy
  provenance;
- ``speedup`` — linear/fast ratio of the candidate-replay phase (the
  acceptance bar is >= 2x on at least one workload);
- ``index_hits``/``index_misses``/``reconstructions`` — the
  MetricsRegistry counters proving the fast path actually engaged;
- ``identical`` — canonical-report byte-equality across the reference
  engine, the defaults at workers 1/2/4, replay-cache on and off, and
  a journal-resumed run (the determinism contract).

Run as a script (writes BENCH_engine_hotpath.json)::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --out BENCH_engine_hotpath.json

or through pytest-benchmark like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_hotpath.py --benchmark-only -s
"""

import argparse
import json
import os
import sys
import tempfile

from repro.core.diffprov import DiffProv, DiffProvOptions
from repro.datalog import EngineConfig
from repro.observability import Telemetry
from repro.resilience import DiagnosisJournal
from repro.scenarios import ALL_SCENARIOS

# Two fig7-family workloads at a scale where access paths matter.
# MR1-D's declarative wordcount joins scan the word table (hundreds of
# tuples per replay) — the composite-index showcase.  SDN1 joins
# against small flow tables, so it bounds the win from below on
# scan-light programs.
WORKLOADS = [
    ("MR1-D", {"corpus_lines": 120}),
    ("SDN1", {"background_packets": 120}),
]
ROUNDS = 3


def _diagnose(
    name,
    params,
    engine=None,
    workers=1,
    replay_cache=False,
    journal=None,
):
    scenario = ALL_SCENARIOS[name](**params).setup()
    config = EngineConfig.coerce(engine)
    for execution in {
        id(scenario.good_execution): scenario.good_execution,
        id(scenario.bad_execution): scenario.bad_execution,
    }.values():
        execution.engine_config = config
    telemetry = Telemetry()
    options = DiffProvOptions(
        minimize=True,
        replay_cache=replay_cache,
        workers=workers,
        telemetry=telemetry,
        journal=journal,
    )
    report = DiffProv(scenario.program, options).diagnose(
        scenario.good_execution,
        scenario.bad_execution,
        scenario.good_event,
        scenario.bad_event,
        scenario.good_time,
        scenario.bad_time,
    )
    phases = {p["name"]: p["seconds"] for p in report.telemetry["phases"]}
    counters = report.telemetry["metrics"]["counters"]
    return report, phases, counters


def _best_replay_seconds(name, params, **config):
    """Best-of-ROUNDS candidate-replay phase time (noise floor)."""
    best = None
    report = counters = None
    for _ in range(ROUNDS):
        report, phases, counters = _diagnose(name, params, **config)
        seconds = phases.get("diffprov.replay", 0.0)
        best = seconds if best is None else min(best, seconds)
    return best, report, counters


def run_benchmark():
    rows = []
    tmp = tempfile.mkdtemp(prefix="bench-hotpath-")
    for name, params in WORKLOADS:
        linear_s, linear_report, _ = _best_replay_seconds(
            name, params, engine="reference"
        )
        fast_s, fast_report, counters = _best_replay_seconds(name, params)

        # Determinism matrix: workers x replay-cache x resume.
        reports = [linear_report, fast_report]
        for workers in (2, 4):
            report, _, _ = _diagnose(name, params, workers=workers)
            reports.append(report)
        cached_report, _, _ = _diagnose(name, params, replay_cache=True)
        reports.append(cached_report)
        journal_path = os.path.join(tmp, f"{name}.journal")
        journal = DiagnosisJournal(journal_path, resume=False)
        try:
            report, _, _ = _diagnose(name, params, journal=journal)
        finally:
            journal.close()
        reports.append(report)
        journal = DiagnosisJournal(journal_path, resume=True)
        try:
            resumed_report, _, _ = _diagnose(name, params, journal=journal)
        finally:
            journal.close()
        reports.append(resumed_report)

        canonical = fast_report.canonical_json()
        identical = all(r.canonical_json() == canonical for r in reports)
        journal_section = (resumed_report.resilience or {}).get("journal", {})
        rows.append(
            {
                "scenario": name,
                "replay_linear_s": round(linear_s, 4),
                "replay_fast_s": round(fast_s, 4),
                "speedup": round(linear_s / max(fast_s, 1e-9), 2),
                "index_hits": counters.get("engine.index.hits", 0),
                "index_misses": counters.get("engine.index.misses", 0),
                "reconstructions": counters.get(
                    "provenance.lazy.reconstructions", 0
                ),
                "resumed_skips": journal_section.get("skipped_candidates", 0),
                "identical": identical,
            }
        )
    return rows


def check(rows):
    for row in rows:
        assert row["identical"], (
            f"{row['scenario']}: the hot path changed the report"
        )
        assert row["index_hits"] > 0, row
    best = max(row["speedup"] for row in rows)
    assert best >= 2.0, (
        f"candidate-replay speed-up {best}x below the 2x bar: {rows}"
    )


def test_engine_hotpath_speedup(benchmark):
    rows = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    from conftest import emit

    emit("Engine hot path: candidate-replay phase, reference vs fast", rows)
    benchmark.extra_info["rows"] = rows
    check(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_engine_hotpath.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    rows = run_benchmark()
    check(rows)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": "engine_hotpath", "rows": rows}, handle, indent=2
        )
        handle.write("\n")
    for row in rows:
        print(
            f"{row['scenario']:6s} replay {row['replay_linear_s']*1000:7.1f}ms -> "
            f"{row['replay_fast_s']*1000:7.1f}ms  ({row['speedup']}x, "
            f"{row['index_hits']} index hits, "
            f"{row['reconstructions']} reconstructions, "
            f"identical={row['identical']})"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
