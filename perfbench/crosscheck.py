"""Cross-check the span trace against repro's own wall-clock Profiler.

Runs each instance of a workload once untraced (warm-up), then once with
the span tracer installed and ``run_algorithm(..., profile=True)``, and
prints, per phase, the summed duration of the outermost ``core.phase*``
spans next to the Profiler's ``phase*`` section of the same name::

    python3 perfbench/crosscheck.py --workload paper-dense --seed 1

The spans wrap the phase runners themselves, while a Profiler section
wraps the whole ``with section_scope(...)`` block, so a section also holds
whatever the driver evaluates inside that block (for the Section 4
drivers, the residual hand-off copy passed to ``run_phase2``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PHASES = ("phase1", "phase2", "phase3")


def compare(workload_name: str, seed: int, tiny: bool):
    """Rows of (algorithm, phase, span seconds, profiler seconds)."""
    from repro.harness import runner

    from mis_workloads import WORKLOADS
    from span_trace import Tracer

    workload = WORKLOADS[workload_name]
    n = workload.tiny_n if tiny else workload.n
    graph = workload.build(n, seed)
    rows = []
    for algorithm in workload.algorithms:
        # Warm up: the first call in a process pays lazy imports while the
        # driver evaluates a phase's arguments, inside the Profiler section
        # but outside the phase span.
        runner.run_algorithm(algorithm, graph, seed)
        tracer = Tracer().install()
        try:
            result = runner.run_algorithm(algorithm, graph, seed, profile=True)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        sections = {
            section["name"]: section["total_s"]
            for section in result.details["profile"]["sections"]
        }
        for phase in PHASES:
            name = f"core.{phase}"
            span_s = sum(
                end - start
                for span_name, start, end, parent, _ in spans
                if span_name == name and (parent < 0 or spans[parent][0] != name)
            )
            rows.append((algorithm, phase, span_s, sections.get(phase, 0.0)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    src = HERE.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    print(f"{'algorithm':<16}{'phase':<8}{'span_s':>10}{'profiler_s':>12}{'diff':>9}")
    for algorithm, phase, span_s, profiler_s in compare(
        args.workload, args.seed, args.tiny
    ):
        diff = (span_s - profiler_s) / profiler_s if profiler_s else 0.0
        print(f"{algorithm:<16}{phase:<8}{span_s:>10.4f}{profiler_s:>12.4f}"
              f"{diff:>+9.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
