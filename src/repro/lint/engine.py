"""The repro-lint engine: modules, rules, suppression, reporting.

Everything in this reproduction rests on one invariant: a sweep's
results are a pure function of each unit's spec digest, so serial,
batched and distributed execution are bit-identical (README
"Determinism guarantee").  The differential tests enforce that
*dynamically*; this package enforces the contract *statically* — an
AST pass over the source tree that rejects the nondeterminism classes
that have actually bitten this codebase (wall-clock reads in
simulation paths, global RNG use, unsorted directory scans, set-order
dependence in digest code, registry hygiene).

The engine is deliberately stdlib-only (``ast`` + ``re``): it must be
able to lint a tree whose imports are broken, and it must run in CI
steps that install nothing.

Layout:

* :class:`Module` — one parsed source file (AST, parent links,
  suppression comments);
* :class:`Rule` — base class; concrete rules live in
  :mod:`repro.lint.rules` and self-register via :func:`register_rule`
  into a name->class registry (the same shape as the policy/pattern
  registries in :mod:`repro.core.registry`);
* :func:`check_paths` / :func:`check_source` — the library entry
  points (the CLI in :mod:`repro.lint.cli` and the tier-1 tree test
  are thin wrappers over these).

Suppression syntax: a trailing ``# repro-lint: disable=D001`` comment
silences the named rule(s) on that line (comma-separate several;
``disable=all`` silences every rule).  Grandfathered findings live in
a committed baseline file instead (:mod:`repro.lint.baseline`), so new
code is held to the contract even while old findings are paid down.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

SEVERITIES = ("warning", "error")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*][A-Za-z0-9_*,\s-]*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix display path, as the file was addressed
    line: int
    col: int
    message: str
    severity: str = "error"
    #: the stripped source line — the baseline's drift-stable key
    snippet: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")

    def to_json(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "severity": self.severity,
                "message": self.message, "snippet": self.snippet}


class Module:
    """One parsed source file, ready for rules to inspect."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: child AST node -> parent (rules use this to ask "is this
        #: call already wrapped in sorted()?")
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: line number -> rule ids disabled on that line ({"all"} = any)
        self.suppressions: dict[int, frozenset[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                ids = frozenset(
                    part.strip() for part in match.group(1).split(",")
                    if part.strip())
                self.suppressions[lineno] = frozenset(
                    "all" if i == "*" else i for i in ids)

    @classmethod
    def parse(cls, path: str, source: str) -> "Module":
        """Parse ``source``; raises ``SyntaxError`` on a broken file."""
        return cls(path, source, ast.parse(source, filename=path))

    # --- helpers rules share -------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def suppressed(self, finding: Finding) -> bool:
        ids = self.suppressions.get(finding.line)
        return bool(ids) and ("all" in ids or finding.rule in ids)


def dotted_name(node: ast.AST) -> str | None:
    """``os.path.join`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def path_matches(display: str, fragment: str) -> bool:
    """Does ``display`` fall under the scope ``fragment``?

    Fragments are posix path pieces matched at segment boundaries:
    ``"repro/noc/"`` (trailing slash) scopes a directory subtree,
    ``"repro/runner/units.py"`` scopes one file.  Matching is
    containment-based so it works for absolute paths, repo-relative
    paths and tmp-dir test fixtures alike.
    """
    hay = "/" + display.replace("\\", "/").strip("/") + "/"
    needle = "/" + fragment.strip("/") + "/"
    return needle in hay


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``title``/``severity``, scope themselves with
    ``include``/``exclude`` path fragments (empty ``include`` = every
    file), and implement :meth:`check`.
    """

    id: str = ""
    title: str = ""
    severity: str = "error"
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, module: Module) -> bool:
        if any(path_matches(module.path, f) for f in self.exclude):
            return False
        if not self.include:
            return True
        return any(path_matches(module.path, f) for f in self.include)

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str,
                severity: str | None = None) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=self.id, path=module.path, line=line,
                       col=col, message=message,
                       severity=severity or self.severity,
                       snippet=module.line_text(line))


#: rule id -> rule class, in registration order (reported sorted by id)
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be new)."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"rule id {cls.id!r} is already registered")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.id} severity must be one of "
                         f"{SEVERITIES}, got {cls.severity!r}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def iter_rules(select: Iterable[str] | None = None,
               severities: dict[str, str] | None = None) -> list[Rule]:
    """Fresh rule instances, sorted by id.

    ``select`` restricts to the named ids (unknown ids raise);
    ``severities`` overrides per-rule severity (the CLI's
    ``--severity D004=warning``).
    """
    _load_builtin_rules()
    wanted = None if select is None else set(select)
    if wanted is not None:
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            known = ", ".join(sorted(RULE_REGISTRY))
            raise ValueError(f"unknown rule id(s) "
                             f"{', '.join(sorted(unknown))}; known: {known}")
    rules = []
    for rule_id in sorted(RULE_REGISTRY):
        if wanted is not None and rule_id not in wanted:
            continue
        rule = RULE_REGISTRY[rule_id]()
        if severities and rule_id in severities:
            level = severities[rule_id]
            if level not in SEVERITIES:
                raise ValueError(
                    f"invalid severity {level!r} for {rule_id}; "
                    f"use one of {SEVERITIES}")
            rule.severity = level
        rules.append(rule)
    return rules


def _load_builtin_rules() -> None:
    # Imported lazily so `import repro.lint.engine` alone never costs
    # the rule modules, and so the rules package can import the engine.
    from . import rules  # noqa: F401  (import registers the rules)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0

    def to_json(self) -> dict:
        return {
            "version": 1,
            "files": self.files,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "errors": len(self.errors),
            "findings": [f.to_json() for f in
                         sorted(self.findings, key=Finding.sort_key)],
        }

    def summary(self) -> str:
        return (f"checked {self.files} file(s): "
                f"{len(self.findings)} finding(s) "
                f"({len(self.errors)} error(s), "
                f"{self.suppressed} suppressed, "
                f"{self.baselined} baselined)")


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` under ``paths``, deterministically ordered."""
    out: list[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        else:
            out.append(path)
    return out


def check_module(module: Module, rules: Iterable[Rule],
                 report: LintReport) -> None:
    """Run ``rules`` over one module, folding into ``report``."""
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if module.suppressed(finding):
                report.suppressed += 1
            else:
                report.findings.append(finding)


def check_source(source: str, path: str = "<string>",
                 select: Iterable[str] | None = None) -> LintReport:
    """Lint one source string (the unit-test entry point)."""
    report = LintReport(files=1)
    rules = iter_rules(select)
    try:
        module = Module.parse(path, source)
    except SyntaxError as exc:
        report.findings.append(_parse_finding(path, exc))
        return report
    check_module(module, rules, report)
    report.findings.sort(key=Finding.sort_key)
    return report


def check_paths(paths: Iterable[str | Path],
                select: Iterable[str] | None = None,
                baseline=None,
                severities: dict[str, str] | None = None) -> LintReport:
    """Lint files/trees; the library API behind the CLI and tier-1.

    ``baseline`` is a :class:`repro.lint.baseline.Baseline` (or None):
    findings it covers are counted, not reported.
    """
    rules = iter_rules(select, severities)
    report = LintReport()
    for path in iter_python_files(paths):
        report.files += 1
        display = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            module = Module.parse(display, source)
        except SyntaxError as exc:
            report.findings.append(_parse_finding(display, exc))
            continue
        except OSError as exc:
            report.findings.append(Finding(
                rule="E000", path=display, line=1, col=0,
                message=f"cannot read file: {exc}", severity="error"))
            continue
        check_module(module, rules, report)
    if baseline is not None:
        report.findings, report.baselined = baseline.filter(
            report.findings)
    report.findings.sort(key=Finding.sort_key)
    return report


def _parse_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(rule="E001", path=path, line=exc.lineno or 1,
                   col=(exc.offset or 1) - 1,
                   message=f"syntax error: {exc.msg}", severity="error")
