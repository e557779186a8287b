"""Telemetry demo: profile a run, stream a sweep to JSONL, aggregate it.

The observability layer (`repro.obs`) has three user-facing faces:

1. a wall-clock **profiler** you can attach to any run
   (`run_algorithm(..., profile=True)` or `repro --profile`);
2. a **streaming JSONL sink**: every measured run appends one
   self-describing record as it completes (`--telemetry runs.jsonl`),
   safe under process-pool sweeps — tail it while the sweep runs;
3. the **report** aggregator (`python -m repro report runs.jsonl`),
   which tolerates in-flight, partially-written files.

Run:  python examples/telemetry_demo.py
"""

import os
import tempfile

from repro import graphs
from repro.harness import run_algorithm, sweep
from repro.obs import RecordingInstrument, render_profile
from repro.obs.report import report_file
from repro.obs.telemetry import telemetry_scope


def main():
    graph = graphs.gnp_expected_degree(2000, 16.0, seed=3)

    # ------------------------------------------------------------------
    # 1. Profile one run: where does the wall clock go?
    # ------------------------------------------------------------------
    result = run_algorithm("algorithm1", graph, seed=0, profile=True)
    print("== profile of one algorithm1 run ==")
    print(render_profile(result.details["profile"]))

    # ------------------------------------------------------------------
    # 2. Attach a custom instrument: the same event stream the engines
    #    emit for the profiler is available to any Instrument subclass,
    #    and run_algorithm hands it to every network the run builds.
    # ------------------------------------------------------------------
    rec = RecordingInstrument()
    run_algorithm("luby", graph, seed=0, instrument=rec)
    rounds = rec.of_kind("round")
    print("\n== luby event stream ==")
    print(f"engine emitted {len(rounds)} awake rounds, "
          f"{rec.awake_total} node-awakenings total")

    # ------------------------------------------------------------------
    # 3. Stream a sweep to JSONL and aggregate it with the report tool.
    #    (Equivalent CLI: repro -a luby --seeds 5 --telemetry runs.jsonl
    #     then: python -m repro report runs.jsonl)
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        sink = os.path.join(tmp, "runs.jsonl")
        with telemetry_scope(sink):
            sweep(["luby", "algorithm1"], [128, 256], seeds=3)
        with open(sink) as stream:
            lines = stream.readlines()
        print(f"\n== sweep streamed {len(lines)} records to runs.jsonl ==")
        print(lines[0][:120] + "...")
        print()
        print(report_file(sink, max_keys=6))


if __name__ == "__main__":
    main()
