"""Tier-1 enforcement: the shipped tree satisfies its own contract.

``repro-lint`` is only load-bearing if the gate runs where every PR
runs — so this module lints ``src/`` exactly like CI's
``python -m repro.lint src`` step and fails on any non-baselined
finding.  The CLI surface (formats, exit codes, baseline workflow) is
pinned here too, since CI scripts against it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.lint import Baseline, DEFAULT_BASELINE_NAME, check_paths
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / DEFAULT_BASELINE_NAME


def _tree_paths() -> list[Path]:
    if SRC.is_dir():
        return [SRC]
    # Installed layouts (no src/ checkout): lint the package itself.
    return [Path(repro.__file__).resolve().parent]


class TestTreeIsClean:
    def test_src_tree_has_no_unbaselined_findings(self):
        baseline = (Baseline.load(BASELINE) if BASELINE.exists()
                    else None)
        report = check_paths(_tree_paths(), baseline=baseline)
        details = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], (
            f"repro-lint found determinism-contract violations "
            f"(fix them, suppress with a justified inline comment, "
            f"or grandfather via --write-baseline):\n{details}")
        assert report.files > 50  # the walk really saw the tree

    def test_committed_baseline_is_loadable_and_lean(self):
        # The baseline exists to absorb *grandfathered* findings; a
        # growing baseline means new debt is being hidden.  Today it
        # is empty — raising this bound needs a review conversation.
        if not BASELINE.exists():
            pytest.skip("no committed baseline in this layout")
        assert len(Baseline.load(BASELINE)) == 0


class TestCli:
    @pytest.fixture()
    def violating_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "noc"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n")
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one_text(self, violating_tree, capsys):
        code = main([str(violating_tree), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "D001" in out and "bad.py:5:" in out

    def test_json_format_is_machine_readable(self, violating_tree,
                                             capsys):
        code = main([str(violating_tree), "--no-baseline",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1
        assert payload["errors"] == 1
        [finding] = payload["findings"]
        assert finding["rule"] == "D001"
        assert finding["snippet"] == "return time.time()"

    def test_write_baseline_then_enforce(self, violating_tree,
                                         capsys, monkeypatch):
        monkeypatch.chdir(violating_tree)
        assert main([str(violating_tree), "--write-baseline"]) == 0
        assert (violating_tree / DEFAULT_BASELINE_NAME).exists()
        # default baseline is picked up from the cwd -> clean run
        assert main([str(violating_tree)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # and --no-baseline still exposes the grandfathered finding
        assert main([str(violating_tree), "--no-baseline"]) == 1

    def test_select_restricts_rules(self, violating_tree, capsys):
        assert main([str(violating_tree), "--no-baseline",
                     "--select", "D003"]) == 0

    def test_severity_override_flag(self, violating_tree, capsys):
        assert main([str(violating_tree), "--no-baseline",
                     "--severity", "D001=warning"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D001", "D002", "D003", "D004", "D006"):
            assert rule_id in out

    def test_unknown_rule_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--select", "D999"])
        assert excinfo.value.code == 2
