"""Command-line front end: ``python -m repro lint``.

Exit codes: 0 — clean; 1 — at least one unsuppressed finding;
2 — usage error (unknown check ID, missing path).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .checks import ALL_CHECKS, get_check
from .engine import lint_paths

#: Default lint target when no paths are given.
DEFAULT_PATHS = ["src/repro"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Repo-specific static analysis: schema contracts (RL1xx), "
            "determinism (RL2xx), escape analysis (RL3xx) and "
            "kernel protocol (RL4xx) for NodeProgram / VectorRound "
            "code."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files or directories to lint (default: {DEFAULT_PATHS[0]})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--explain",
        metavar="RLxxx",
        help="print the rationale card for one check ID and exit",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list every registered check and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe; detach
        # stdout so the interpreter's shutdown flush doesn't re-raise.
        sys.stdout = open(os.devnull, "w")  # noqa: SIM115
        return 0


def _run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.explain:
        check = get_check(args.explain)
        if check is None:
            known = ", ".join(c.id for c in ALL_CHECKS)
            print(
                f"unknown check {args.explain!r}; known checks: {known}",
                file=sys.stderr,
            )
            return 2
        print(check.explain())
        return 0

    if args.list:
        for check in ALL_CHECKS:
            print(f"{check.id}  {check.name:<22} {check.summary}")
        return 0

    paths = args.paths or DEFAULT_PATHS
    try:
        findings = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        report = {
            "tool": "repro-lint",
            "paths": list(paths),
            "finding_count": len(findings),
            "findings": [f.to_dict() for f in findings],
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            "repro lint: clean"
            if not findings
            else f"repro lint: {len(findings)} finding"
            + ("s" if len(findings) != 1 else "")
        )
        print(summary)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
