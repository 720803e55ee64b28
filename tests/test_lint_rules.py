"""Fixture tests for every repro-lint rule (D001-D004, D006).

Each rule is demonstrated both ways: a violating snippet fires, its
clean counterpart stays silent.  Snippets lint through the real
engine (`check_source` pins the scope path a rule would see in the
tree), so these tests also pin the scoping, suppression and baseline
behaviour the tier-1 tree lint relies on.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import (Baseline, Finding, check_paths, check_source,
                        iter_rules)
from repro.lint.engine import path_matches

SIM_PATH = "src/repro/noc/simulator.py"
RUNNER_PATH = "src/repro/runner/plan.py"
ANY_PATH = "src/repro/experiments/fig2.py"


def lint(source: str, path: str = ANY_PATH, select=None):
    return check_source(textwrap.dedent(source), path, select=select)


def rules_fired(report) -> set[str]:
    return {f.rule for f in report.findings}


# ---------------------------------------------------------------------------
# D001 — wall-clock reads in simulation/digest paths
class TestD001WallClock:
    VIOLATION = """\
        import time

        def measure():
            return time.time()
        """
    CLEAN = """\
        import time

        def measure():
            return time.perf_counter()
        """

    def test_fires_on_wall_clock_in_sim_path(self):
        report = lint(self.VIOLATION, SIM_PATH)
        assert rules_fired(report) == {"D001"}
        assert "time.time" in report.findings[0].message

    def test_silent_on_perf_counter(self):
        assert lint(self.CLEAN, SIM_PATH).findings == []

    def test_silent_outside_scope(self):
        # The experiments CLI may time its own progress output.
        assert lint(self.VIOLATION, ANY_PATH).findings == []

    def test_lease_module_allowlisted(self):
        path = "src/repro/runner/distributed/lease.py"
        assert lint(self.VIOLATION, path).findings == []

    def test_fires_on_datetime_now_and_from_import(self):
        report = lint("""\
            from datetime import datetime
            from time import monotonic

            def stamp():
                return datetime.now()
            """, SIM_PATH)
        assert [f.rule for f in report.findings] == ["D001", "D001"]


# ---------------------------------------------------------------------------
# D002 — global-RNG use outside runner/seeding.py
class TestD002GlobalRng:
    VIOLATION = """\
        import random

        def jitter():
            return random.uniform(0.5, 1.5)
        """
    CLEAN = """\
        import random

        _rng = random.Random(7)

        def jitter():
            return _rng.uniform(0.5, 1.5)
        """

    def test_fires_on_module_level_random(self):
        report = lint(self.VIOLATION)
        assert rules_fired(report) == {"D002"}

    def test_silent_on_owned_instance(self):
        assert lint(self.CLEAN).findings == []

    def test_fires_on_np_random_module_calls(self):
        report = lint("""\
            import numpy as np

            def draw():
                np.random.seed(0)
                return np.random.rand(3)
            """)
        assert [f.rule for f in report.findings] == ["D002", "D002"]

    def test_silent_on_default_rng(self):
        report = lint("""\
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
            """)
        assert report.findings == []

    def test_fires_on_from_import(self):
        report = lint("from random import uniform\n")
        assert rules_fired(report) == {"D002"}

    def test_seeding_module_allowlisted(self):
        path = "src/repro/runner/seeding.py"
        assert lint(self.VIOLATION, path).findings == []


# ---------------------------------------------------------------------------
# D003 — unsorted filesystem iteration
class TestD003FsOrder:
    VIOLATION = """\
        import os

        def scan(d):
            return [n for n in os.listdir(d)]
        """
    CLEAN = """\
        import os

        def scan(d):
            return [n for n in sorted(os.listdir(d))]
        """

    def test_fires_on_unsorted_listdir(self):
        report = lint(self.VIOLATION)
        assert rules_fired(report) == {"D003"}

    def test_silent_when_sorted(self):
        assert lint(self.CLEAN).findings == []

    def test_fires_on_iterdir_and_glob(self):
        report = lint("""\
            from pathlib import Path

            def scan(root: Path):
                for p in root.iterdir():
                    yield p
                for p in root.glob("*.json"):
                    yield p
            """)
        assert [f.rule for f in report.findings] == ["D003", "D003"]

    def test_silent_on_order_free_consumers(self):
        report = lint("""\
            import os

            def stats(d, name):
                return len(os.listdir(d)), name in os.listdir(d), \\
                    set(os.listdir(d))
            """)
        assert report.findings == []

    # Trace-file directory scans (README "Workloads"): a trace picked
    # by unsorted readdir order would make "replay the first trace in
    # the directory" host-dependent.
    TRACE_SCAN_PATH = "src/repro/workload/trace.py"

    def test_fires_on_unsorted_trace_scan(self):
        report = lint("""\
            from pathlib import Path

            def list_traces(directory):
                return list(Path(directory).glob("*.trace"))
            """, self.TRACE_SCAN_PATH)
        assert rules_fired(report) == {"D003"}

    def test_silent_on_sorted_trace_scan(self):
        report = lint("""\
            from pathlib import Path

            def list_traces(directory):
                return sorted(Path(directory).glob("*.trace"))
            """, self.TRACE_SCAN_PATH)
        assert report.findings == []


# ---------------------------------------------------------------------------
# D004 — set iteration order in digest/plan code
class TestD004SetIter:
    VIOLATION = """\
        def digest_parts(parts):
            seen = set(parts)
            out = []
            for p in seen:
                out.append(p)
            return out
        """
    CLEAN = """\
        def digest_parts(parts):
            seen = set(parts)
            out = []
            for p in sorted(seen):
                out.append(p)
            return out
        """

    def test_fires_on_set_iteration_in_digest_path(self):
        report = lint(self.VIOLATION, RUNNER_PATH)
        assert rules_fired(report) == {"D004"}

    def test_silent_when_sorted(self):
        assert lint(self.CLEAN, RUNNER_PATH).findings == []

    def test_silent_outside_scope(self):
        # Order-free code (e.g. a backend draining futures) may
        # iterate sets; only digest/plan/spec-key modules are scoped.
        assert lint(self.VIOLATION, ANY_PATH).findings == []

    def test_fires_on_literal_and_sinks(self):
        report = lint("""\
            def keys():
                return tuple({"b", "a"})

            def total(xs):
                return sum(frozenset(xs))
            """, RUNNER_PATH)
        assert [f.rule for f in report.findings] == ["D004", "D004"]

    def test_membership_stays_legal(self):
        report = lint("""\
            def has(parts, x):
                seen = set(parts)
                return x in seen
            """, RUNNER_PATH)
        assert report.findings == []

    def test_reassignment_clears_taint(self):
        report = lint("""\
            def order(parts):
                seen = set(parts)
                seen = sorted(seen)
                return [p for p in seen]
            """, RUNNER_PATH)
        assert report.findings == []


# ---------------------------------------------------------------------------
# D006 — registry hygiene
class TestD006RegistryHygiene:
    MUTABLE = """\
        class Sticky(DvfsPolicy):
            name = "sticky"
            history = []

            def update(self, sample):
                self.history.append(sample)
                return 1.0
        """
    CLEAN = """\
        @register_policy
        class Sticky(DvfsPolicy):
            name = "sticky"

            def __init__(self):
                super().__init__()
                self.history = []

            def update(self, sample):
                self.history.append(sample)
                return 1.0
        """

    def test_fires_on_mutable_class_default_and_unregistered(self):
        report = lint(self.MUTABLE)
        assert [f.rule for f in report.findings] == ["D006", "D006"]
        messages = " ".join(f.message for f in report.findings)
        assert "mutable class-level default" in messages
        assert "not registered" in messages

    def test_silent_on_clean_registered_policy(self):
        assert lint(self.CLEAN).findings == []

    def test_module_level_registration_call_accepted(self):
        report = lint("""\
            class Sticky(DvfsPolicy):
                name = "sticky"

            register_policy(Sticky)
            """)
        assert report.findings == []

    def test_abstract_and_unnamed_subclasses_exempt(self):
        report = lint("""\
            class Base(DvfsPolicy):
                name = "abstract"

            class Wrapper(DvfsPolicy):
                def update(self, sample):
                    return 1.0
            """)
        assert report.findings == []

    def test_pattern_subclass_points_at_register_pattern(self):
        report = lint("""\
            class Diagonal(TrafficPattern):
                name = "diagonal"
            """)
        assert rules_fired(report) == {"D006"}
        assert "@register_pattern" in report.findings[0].message

    def test_transitive_subclass_detected(self):
        report = lint("""\
            class Base(TrafficPattern):
                name = "abstract"

            class Leaf(Base):
                name = "leaf"
                cache = {}
            """)
        assert [f.rule for f in report.findings] == ["D006", "D006"]


# ---------------------------------------------------------------------------
# engine mechanics: suppressions, baseline, severities, CLI surface
class TestSuppressions:
    def test_inline_disable_silences_named_rule(self):
        report = lint("""\
            import time

            def measure():
                return time.time()  # repro-lint: disable=D001
            """, SIM_PATH)
        assert report.findings == []
        assert report.suppressed == 1

    def test_disable_all_and_multiple_ids(self):
        source = """\
            import os

            def scan(d):
                return [n for n in os.listdir(d)]  # repro-lint: disable=D002,D003
            """
        assert lint(source).findings == []
        source_all = source.replace("disable=D002,D003", "disable=all")
        assert lint(source_all).findings == []

    def test_disable_of_other_rule_does_not_silence(self):
        report = lint("""\
            import os

            def scan(d):
                return [n for n in os.listdir(d)]  # repro-lint: disable=D001
            """)
        assert rules_fired(report) == {"D003"}


class TestBaseline:
    def _violating_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "noc"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n")
        return tmp_path

    def test_round_trip_absorbs_findings(self, tmp_path):
        tree = self._violating_tree(tmp_path)
        dirty = check_paths([tree])
        assert rules_fired(dirty) == {"D001"}

        path = tmp_path / "baseline.json"
        Baseline.from_findings(dirty.findings).save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == len(dirty.findings)

        clean = check_paths([tree], baseline=loaded)
        assert clean.findings == []
        assert clean.baselined == len(dirty.findings)
        assert clean.exit_code == 0

    def test_baseline_survives_line_drift_but_not_new_findings(
            self, tmp_path):
        tree = self._violating_tree(tmp_path)
        baseline = Baseline.from_findings(check_paths([tree]).findings)

        bad = tree / "repro" / "noc" / "bad.py"
        bad.write_text("import time\n\n\n# a comment pushing lines\n"
                       "def now():\n    return time.time()\n")
        report = check_paths([tree], baseline=baseline)
        assert report.findings == [] and report.baselined == 1

        bad.write_text(bad.read_text()
                       + "\n\ndef later():\n    return time.monotonic()\n")
        report = check_paths([tree], baseline=baseline)
        assert report.baselined == 1
        assert [f.rule for f in report.findings] == ["D001"]
        assert "time.monotonic" in report.findings[0].message

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)


class TestEngine:
    def test_every_rule_registered_with_severity(self):
        rules = iter_rules()
        assert [r.id for r in rules] == [
            "D001", "D002", "D003", "D004", "D006"]
        assert all(r.severity in ("warning", "error") for r in rules)

    def test_select_and_unknown_rule(self):
        report = lint("import os\n\nxs = [n for n in os.listdir('.')]\n",
                      select=["D001"])
        assert report.findings == []
        with pytest.raises(ValueError, match="unknown rule"):
            iter_rules(["D999"])

    def test_severity_override_demotes_exit_code(self, tmp_path):
        pkg = tmp_path / "repro" / "runner"
        pkg.mkdir(parents=True)
        (pkg / "plan.py").write_text(
            "def ids(xs):\n    return tuple(set(xs))\n")
        report = check_paths([tmp_path])
        assert report.exit_code == 1
        demoted = check_paths([tmp_path],
                              severities={"D004": "warning"})
        assert [f.severity for f in demoted.findings] == ["warning"]
        assert demoted.exit_code == 0

    def test_syntax_error_is_a_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = check_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["E001"]
        assert report.exit_code == 1

    def test_path_matches_scopes(self):
        assert path_matches("src/repro/noc/router.py", "repro/noc/")
        assert path_matches("/abs/src/repro/noc/router.py", "repro/noc/")
        assert not path_matches("src/repro/nocturne/x.py", "repro/noc/")
        assert path_matches("src/repro/runner/plan.py",
                            "repro/runner/plan.py")

    def test_finding_render_is_clickable(self):
        finding = Finding(rule="D001", path="src/x.py", line=3, col=4,
                          message="m")
        assert finding.render().startswith("src/x.py:3:4: D001 error:")
