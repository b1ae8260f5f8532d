"""Tests for the protocol lint framework and each RPQ00x rule.

Every rule is exercised twice: a seeded violation snippet it must flag and
a clean snippet it must not.  The final test runs the full rule set over
the real package — ``python -m repro analyze`` must exit 0 on a clean
tree, so any rule regression shows up here first.
"""

import json
import pathlib

import pytest

from repro.analysis import ALL_RULES, Linter, ProjectSource, lint_package
from repro.analysis.rules import (
    ConfigAttributeRule,
    CreditLeakRule,
    IndexAtomicityRule,
    MessageFieldDriftRule,
    RuntimeExceptionHygieneRule,
    TerminationCounterRule,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_rule(rule_cls, sources):
    return Linter([rule_cls()]).run(ProjectSource.from_sources(sources))


MESSAGE_MODULE = """
from dataclasses import dataclass, field

@dataclass
class StatusMessage:
    src_machine: int
    dst_machine: int
    generation: int = 0
    sent: dict = field(default_factory=dict)
"""


class TestRPQ001MessageFieldDrift:
    def test_flags_unknown_field_and_aliasing(self):
        violations = run_rule(
            MessageFieldDriftRule,
            {
                "repro/runtime/message.py": MESSAGE_MODULE,
                "repro/runtime/termination.py": (
                    "def snapshot(self, dst):\n"
                    "    return StatusMessage(src_machine=self.id, dst_machine=dst,\n"
                    "                         sent=self.sent, bogus=1)\n"
                ),
            },
        )
        messages = [v.message for v in violations]
        assert any("no field 'bogus'" in m for m in messages)
        assert any("aliases live mutable state" in m for m in messages)

    def test_flags_positional_and_missing_required(self):
        violations = run_rule(
            MessageFieldDriftRule,
            {
                "repro/runtime/message.py": MESSAGE_MODULE,
                "repro/runtime/machine.py": (
                    "def send(self):\n    return StatusMessage(1)\n"
                ),
            },
        )
        messages = [v.message for v in violations]
        assert any("positional" in m for m in messages)
        assert any("required field 'dst_machine'" in m for m in messages)

    def test_clean_snippet_passes(self):
        violations = run_rule(
            MessageFieldDriftRule,
            {
                "repro/runtime/message.py": MESSAGE_MODULE,
                "repro/runtime/termination.py": (
                    "def snapshot(self, dst):\n"
                    "    return StatusMessage(src_machine=self.id, dst_machine=dst,\n"
                    "                         sent=dict(self.sent))\n"
                ),
            },
        )
        assert violations == []


class TestRPQ002CreditLeak:
    def test_flags_leaked_and_discarded_credits(self):
        violations = run_rule(
            CreditLeakRule,
            {
                "repro/runtime/machine.py": (
                    "def leak(self):\n"
                    "    credit = self.flow.try_acquire(1, 2, 3, True)\n"
                    "    return True\n"
                    "def discard(self):\n"
                    "    self.flow.try_acquire(1, 2, 3, True)\n"
                ),
            },
        )
        messages = [v.message for v in violations]
        assert any("it leaks" in m for m in messages)
        assert any("discarded" in m for m in messages)
        assert any("None-checked" in m for m in messages)

    def test_clean_ownership_transfer_passes(self):
        violations = run_rule(
            CreditLeakRule,
            {
                "repro/runtime/machine.py": (
                    "def flush(self, batch):\n"
                    "    credit = self.flow.try_acquire(1, 2, 3, True)\n"
                    "    if credit is None:\n"
                    "        return False\n"
                    "    batch.credit_key = credit\n"
                    "    return True\n"
                ),
            },
        )
        assert violations == []

    def test_release_ownership_passes(self):
        violations = run_rule(
            CreditLeakRule,
            {
                "repro/runtime/buffers.py": (
                    "def probe(self):\n"
                    "    credit = self.try_acquire(1, 2, 3, True)\n"
                    "    if credit is not None:\n"
                    "        self.release(credit)\n"
                ),
            },
        )
        assert violations == []


class TestRPQ003IndexAtomicity:
    INDEX_MODULE = (
        "class ReachabilityIndex:\n"
        "    def check_and_update(self, spid, v, depth):\n"
        "        return self._first_level.get(v)\n"
    )

    def test_flags_suspension_and_private_access(self):
        violations = run_rule(
            IndexAtomicityRule,
            {
                "repro/rpq/reachability.py": self.INDEX_MODULE,
                "repro/rpq/control.py": (
                    "def racy(self, index, spid, v, depth):\n"
                    "    old = index._first_level.get(v)\n"
                    "    yield\n"
                    "    index.check_and_update(spid, v, depth)\n"
                ),
            },
        )
        messages = [v.message for v in violations]
        assert any("_first_level" in m for m in messages)
        assert any("preemption point" in m for m in messages)

    def test_clean_atomic_call_passes(self):
        violations = run_rule(
            IndexAtomicityRule,
            {
                "repro/rpq/reachability.py": self.INDEX_MODULE,
                "repro/rpq/control.py": (
                    "def on_entry(self, index, spid, v, depth):\n"
                    "    return index.check_and_update(spid, v, depth)\n"
                ),
            },
        )
        assert violations == []


class TestRPQ004TerminationCounters:
    TRACKER_MODULE = (
        "class TerminationTracker:\n"
        "    def record_sent(self, stage, depth):\n"
        "        self.sent[(stage, depth)] += 1\n"
    )

    def test_flags_direct_mutation(self):
        violations = run_rule(
            TerminationCounterRule,
            {
                "repro/runtime/termination.py": self.TRACKER_MODULE,
                "repro/runtime/machine.py": (
                    "def boot(self, roots):\n"
                    "    self.tracker.sent[(0, 0)] += len(roots)\n"
                    "def wipe(self):\n"
                    "    self.tracker.processed.clear()\n"
                ),
            },
        )
        assert len(violations) == 2
        assert all(v.rule_id == "RPQ004" for v in violations)

    def test_tracker_methods_pass(self):
        violations = run_rule(
            TerminationCounterRule,
            {
                "repro/runtime/termination.py": self.TRACKER_MODULE,
                "repro/runtime/machine.py": (
                    "def boot(self, roots):\n"
                    "    self.tracker.record_bootstrap(len(roots))\n"
                    "def read(self, snap):\n"
                    "    return snap.sent, snap.processed\n"
                ),
            },
        )
        assert violations == []


class TestRPQ005ExceptionHygiene:
    def test_flags_bare_swallow_and_broad(self):
        violations = run_rule(
            RuntimeExceptionHygieneRule,
            {
                "repro/runtime/worker.py": (
                    "def a():\n"
                    "    try:\n"
                    "        step()\n"
                    "    except:\n"
                    "        pass\n"
                    "def b():\n"
                    "    try:\n"
                    "        step()\n"
                    "    except ValueError:\n"
                    "        pass\n"
                    "def c():\n"
                    "    try:\n"
                    "        step()\n"
                    "    except Exception:\n"
                    "        log()\n"
                ),
            },
        )
        assert len(violations) == 3

    def test_outside_runtime_is_ignored(self):
        violations = run_rule(
            RuntimeExceptionHygieneRule,
            {
                "repro/graph/loader.py": (
                    "def load():\n"
                    "    try:\n"
                    "        parse()\n"
                    "    except:\n"
                    "        pass\n"
                ),
            },
        )
        assert violations == []

    def test_reraise_passes(self):
        violations = run_rule(
            RuntimeExceptionHygieneRule,
            {
                "repro/runtime/worker.py": (
                    "def a():\n"
                    "    try:\n"
                    "        step()\n"
                    "    except Exception as exc:\n"
                    "        raise RuntimeError('bad') from exc\n"
                ),
            },
        )
        assert violations == []


class TestRPQ006ConfigAttributes:
    CONFIG_MODULE = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class CostModel:\n"
        "    edge_traverse: float = 1.0\n"
        "@dataclass\n"
        "class EngineConfig:\n"
        "    num_machines: int = 4\n"
        "    cost: CostModel = None\n"
        "    def with_(self, **kw):\n"
        "        pass\n"
    )

    def test_flags_misspelled_fields(self):
        violations = run_rule(
            ConfigAttributeRule,
            {
                "repro/config.py": self.CONFIG_MODULE,
                "repro/runtime/machine.py": (
                    "def f(config):\n"
                    "    bad = config.bufers_per_machine\n"
                    "    worse = config.cost.edge_cost\n"
                ),
            },
        )
        assert len(violations) == 2
        assert "bufers_per_machine" in violations[0].message

    def test_real_fields_and_methods_pass(self):
        violations = run_rule(
            ConfigAttributeRule,
            {
                "repro/config.py": self.CONFIG_MODULE,
                "repro/runtime/machine.py": (
                    "def f(config, run_config):\n"
                    "    a = config.num_machines\n"
                    "    b = config.cost.edge_traverse\n"
                    "    c = run_config.with_()\n"
                    "    return a, b, c\n"
                ),
            },
        )
        assert violations == []


class TestFrameworkAndRepo:
    def test_rule_catalogue_is_complete(self):
        ids = [rule_cls.rule_id for rule_cls in ALL_RULES]
        assert ids == [f"RPQ00{i}" for i in range(1, 7)]

    def test_violations_sorted_and_formatted(self):
        violations = run_rule(
            RuntimeExceptionHygieneRule,
            {
                "repro/runtime/z.py": "try:\n    x()\nexcept:\n    pass\n",
                "repro/runtime/a.py": "try:\n    x()\nexcept:\n    pass\n",
            },
        )
        assert [v.path for v in violations] == ["repro/runtime/a.py", "repro/runtime/z.py"]
        assert violations[0].format().startswith("repro/runtime/a.py:3: RPQ005")

    def test_repo_is_clean(self):
        violations = lint_package(ROOT / "src" / "repro")
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_cli_analyze_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "protocol lint: ok" in out

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 7):
            assert f"RPQ00{i}" in out

    def test_cli_analyze_rejects_missing_path(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["analyze", "--no-external", str(tmp_path / "gone")]) == 2
        assert "no such package directory" in capsys.readouterr().out

    def test_cli_analyze_flags_seeded_violation(self, tmp_path, capsys):
        pkg = tmp_path / "badpkg"
        (pkg / "runtime").mkdir(parents=True)
        (pkg / "runtime" / "worker.py").write_text(
            "def f():\n    try:\n        g()\n    except:\n        pass\n"
        )
        from repro.cli import main

        assert main(["analyze", "--no-external", str(pkg)]) == 1
        assert "RPQ005" in capsys.readouterr().out

    def test_cli_analyze_json_contract(self, capsys):
        from repro.cli import main

        rc = main(["analyze", "--no-external", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(report) == {"ok", "rules", "violations"}
        assert report["ok"] is True
        assert report["rules"][0] == "RPQ001"

    @pytest.mark.parametrize("flag", ["--static", "--update-baseline"])
    def test_cli_analyze_has_no_static_pass(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["analyze", flag])
        assert exc.value.code == 2
