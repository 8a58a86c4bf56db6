"""Compiled backend vs the reference oracle on a large Stanford build.

On the black-box emulator path (the Section 6.7 Stanford network) no
Datalog join runs: the backend decides only how each candidate replay
copies the configuration and looks up flow entries.  The compiled
backend (``EngineConfig("compiled")``) forks the configuration
copy-on-write in O(switches) and serves lookups from per-switch tries;
the reference backend (``EngineConfig("reference")``) takes a full
``clone()`` of every flow entry and scans flow tables linearly.  So
this benchmark measures a CoW ``fork()`` with trie lookups against a
full ``clone()`` with linear scans, on a scaled-down-but-still-large
Stanford build (28k entries/router, ~449k total):

- ``compiled_s`` / ``reference_s`` — wall-clock seconds for one full
  DiffProv diagnosis under each backend (setup/build excluded);
- ``speedup`` — reference/compiled ratio; the acceptance bar is >= 5x;
- ``identical`` — the two reports are byte-identical
  (``canonical_json``), the equivalence contract at scale;
- with ``--full-scale``, one extra compiled-only row at the paper's
  757k entries / 1500 ACLs proving the full-scale diagnosis completes
  in seconds.

Run as a script (writes BENCH_compiled_engine.json)::

    PYTHONPATH=src python benchmarks/bench_compiled_engine.py --out BENCH_compiled_engine.json

or through pytest-benchmark like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_compiled_engine.py --benchmark-only -s
"""

import argparse
import json
import sys
import time

from repro.scenarios.stanford import StanfordForwardingError

# Large enough that the per-replay configuration copy dominates the
# reference backend, small enough for CI: ~449k forwarding entries.
SCALED = {"entries_per_router": 28_000, "acl_rules": 1000}
BACKGROUND = 40
SPEEDUP_BAR = 5.0


def _diagnose(engine, background=BACKGROUND, **params):
    scenario = StanfordForwardingError(
        background_packets=background, engine=engine, **params
    ).setup()
    started = time.perf_counter()
    report = scenario.diagnose()
    seconds = time.perf_counter() - started
    return scenario, report, seconds


def run_benchmark(full_scale=False):
    rows = []

    scenario, compiled_report, compiled_s = _diagnose("compiled", **SCALED)
    _, reference_report, reference_s = _diagnose("reference", **SCALED)
    identical = (
        compiled_report.canonical_json() == reference_report.canonical_json()
    )
    rows.append(
        {
            "workload": "stanford-scaled",
            "entries": scenario.config.total_entries(),
            "acl_rules": SCALED["acl_rules"],
            "compiled_s": round(compiled_s, 3),
            "reference_s": round(reference_s, 3),
            "speedup": round(reference_s / max(compiled_s, 1e-9), 2),
            "identical": identical,
            "diffprov_changes": compiled_report.num_changes,
            "success": compiled_report.success,
        }
    )

    if full_scale:
        scenario, report, seconds = _diagnose(
            "compiled", background=400, full_scale=True
        )
        rows.append(
            {
                "workload": "stanford-full-scale",
                "entries": scenario.config.total_entries(),
                "acl_rules": 1500,
                "compiled_s": round(seconds, 3),
                "reference_s": None,
                "speedup": None,
                "identical": None,
                "diffprov_changes": report.num_changes,
                "success": report.success,
            }
        )
    return rows


def check(rows):
    scaled = rows[0]
    assert scaled["success"], scaled
    assert scaled["diffprov_changes"] == 1, scaled
    assert scaled["identical"], (
        "compiled and reference reports diverged at scale"
    )
    assert scaled["speedup"] >= SPEEDUP_BAR, (
        f"compiled speedup {scaled['speedup']}x below the "
        f"{SPEEDUP_BAR}x bar: {rows}"
    )
    for row in rows[1:]:
        assert row["success"] and row["diffprov_changes"] == 1, row
        # "Diagnosis in seconds" at 757k entries, not minutes.
        assert row["compiled_s"] < 60, row


def test_compiled_engine_speedup(benchmark):
    rows = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    from conftest import emit

    emit("Compiled fork() vs reference clone() (scaled Stanford)", rows)
    benchmark.extra_info["rows"] = rows
    check(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_compiled_engine.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--full-scale", action="store_true",
        help="also run the paper-scale 757k-entry diagnosis (compiled only)",
    )
    args = parser.parse_args(argv)
    rows = run_benchmark(full_scale=args.full_scale)
    check(rows)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": "compiled_engine", "rows": rows}, handle, indent=2
        )
        handle.write("\n")
    for row in rows:
        if row["reference_s"] is not None:
            print(
                f"{row['workload']:22s} {row['entries']:>7d} entries  "
                f"reference {row['reference_s']:6.2f}s -> compiled "
                f"{row['compiled_s']:6.2f}s  ({row['speedup']}x, "
                f"identical={row['identical']})"
            )
        else:
            print(
                f"{row['workload']:22s} {row['entries']:>7d} entries  "
                f"compiled {row['compiled_s']:6.2f}s "
                f"(changes={row['diffprov_changes']})"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
