"""CLI for detlint: ``python -m repro.tools.detlint [paths] [options]``.

Exit codes: 0 clean, 1 findings, 2 usage/internal error — the same
contract ruff and mypy use, so CI treats all three uniformly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.tools.detlint.engine import Finding, RULES, run_paths
from repro.tools.sarif import render_sarif


def _comma_codes(value: str) -> list[str]:
    return [code.strip() for code in value.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.detlint",
        description=(
            "Determinism & invariant analyzer for this repository: local "
            "pattern rules plus whole-program taint, crash-boundary, "
            "fork-safety and reachability checks (see "
            "docs/STATIC_ANALYSIS.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", action="append", type=_comma_codes, default=None,
        metavar="CODES", help="comma-separated rule codes to run exclusively",
    )
    parser.add_argument(
        "--ignore", action="append", type=_comma_codes, default=None,
        metavar="CODES", help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _flatten(groups: list[list[str]] | None) -> list[str] | None:
    if groups is None:
        return None
    return [code for group in groups for code in group]


def _render_text(findings: list[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)


def _render_json(findings: list[Finding]) -> str:
    return json.dumps(
        {"findings": [f.to_dict() for f in findings], "count": len(findings)},
        indent=2,
        sort_keys=True,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for info in RULES.values():
            print(f"{info.code:<8} [{info.scope:>7}] {info.summary}")
        return 0

    try:
        findings = run_paths(
            args.paths,
            select=_flatten(args.select),
            ignore=_flatten(args.ignore),
        )
    except ValueError as exc:
        print(f"detlint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(_render_json(findings))
    elif args.format == "sarif":
        summaries = {info.code: info.summary for info in RULES.values()}
        print(render_sarif("detlint", findings, summaries))
    elif findings:
        print(_render_text(findings))
    else:
        print("detlint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
