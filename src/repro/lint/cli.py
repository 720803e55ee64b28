"""The ``python -m repro.lint`` command line.

Exit codes: 0 — no error-severity findings; 1 — at least one; 2 —
usage errors (argparse).  ``--format json`` emits the machine-readable
report CI uploads as an artifact; ``--write-baseline`` grandfathers
the current findings so a new rule can land enforcing on a dirty
tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import Baseline, DEFAULT_BASELINE_NAME
from .engine import check_paths, iter_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism-contract analyzer for the "
                    "repro tree (rules D001-D004, D006; see README "
                    "'Static analysis').")
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src if present, "
             "else the current directory)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--severity", action="append", default=[], metavar="RULE=LEVEL",
        help="override one rule's severity, e.g. D004=warning "
             "(repeatable)")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file of grandfathered findings (default: "
             f"./{DEFAULT_BASELINE_NAME} when present)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and "
             "exit 0")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")
    return parser


def _parse_severities(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        rule, sep, level = pair.partition("=")
        if not sep or not rule or not level:
            raise ValueError(
                f"malformed --severity {pair!r} (expected RULE=LEVEL)")
        out[rule.strip()] = level.strip()
    return out


def _resolve_baseline(args) -> tuple[Baseline | None, Path | None]:
    if args.no_baseline:
        return None, None
    if args.baseline is not None:
        path = Path(args.baseline)
        if path.exists():
            return Baseline.load(path), path
        return None, path
    default = Path(DEFAULT_BASELINE_NAME)
    if default.exists():
        return Baseline.load(default), default
    return None, default


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            scope = ", ".join(rule.include) if rule.include else "all"
            print(f"{rule.id}  [{rule.severity:7s}]  {rule.title}  "
                  f"(scope: {scope})")
        return 0

    paths = args.paths or None
    if not paths:
        paths = ["src"] if Path("src").is_dir() else ["."]
    select = (None if args.select is None
              else [s.strip() for s in args.select.split(",")
                    if s.strip()])
    try:
        severities = _parse_severities(args.severity)
        baseline, baseline_path = _resolve_baseline(args)
        if args.write_baseline:
            report = check_paths(paths, select=select,
                                 severities=severities)
            target = baseline_path or Path(DEFAULT_BASELINE_NAME)
            Baseline.from_findings(report.findings).save(target)
            print(f"wrote {len(report.findings)} finding(s) to "
                  f"{target}")
            return 0
        report = check_paths(paths, select=select, baseline=baseline,
                             severities=severities)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
