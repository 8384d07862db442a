"""M-rules: state-bound declarations and the static exhaustion checks."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.memory.declarations import (
    EVICTION_MECHANISMS,
    StateBound,
    declarations_for_module,
    find_declaration,
    parse_declaration,
)
from repro.analysis.cli import rules_markdown
from repro.analysis.engine import analyze
from repro.analysis.memory.engine import MEMORY_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"
MEMORY_IDS = [rule.id for rule in MEMORY_RULES]


def write(tmp_path: Path, name: str, source: str, prelude: str = "") -> Path:
    path = tmp_path / name
    path.write_text(prelude + textwrap.dedent(source), encoding="utf-8")
    return path


TRUST = """\
__trust_boundary__ = {
    "scheme": "toy",
    "entry_points": ["Guard.handle"],
    "taint_params": ["packet"],
    "sanitizers": ["verify"],
    "sinks": ["send"],
}
"""

BOUNDS_CAP = """\
__state_bounds__ = {
    "Guard": {
        "table": {"bound": 4, "evicted_by": "cap", "keyed_by": "attacker"},
    },
}
"""


# -- declaration parsing -------------------------------------------------------


class TestDeclarations:
    def test_find_and_parse(self):
        import ast

        tree = ast.parse(BOUNDS_CAP)
        found = find_declaration(tree)
        assert found is not None
        raw, lineno = found
        assert lineno == 1
        decls = parse_declaration(raw)
        bound = decls["Guard"]["table"]
        assert bound.bound == 4
        assert bound.evicted_by == frozenset({"cap"})
        assert bound.keyed_by == "attacker"
        assert bound.describe() == (
            "Guard.table (bound 4, evicted by cap, attacker-keyed)"
        )

    def test_unknown_mechanisms_are_dropped(self):
        decls = parse_declaration(
            {
                "G": {
                    "t": {
                        "bound": 1,
                        "evicted_by": "cap+teleport",
                        "keyed_by": "attacker",
                    }
                }
            }
        )
        assert decls["G"]["t"].evicted_by == frozenset({"cap"})
        assert decls["G"]["t"].evicted_by <= EVICTION_MECHANISMS

    def test_malformed_entries_are_dropped_not_fatal(self):
        decls = parse_declaration(
            {"G": {"t": {"bound": "many"}, "u": "nope"}, "H": 3}
        )
        assert decls == {"G": {}}
        assert parse_declaration(None) == {}
        assert parse_declaration([1, 2]) == {}

    def test_missing_declaration_vs_honest_empty(self):
        import ast

        assert declarations_for_module(ast.parse("x = 1")) is None
        declared = declarations_for_module(ast.parse("__state_bounds__ = {}"))
        assert declared is not None and declared[0] == {}


# -- the static checks on toy modules ------------------------------------------


class TestM001:
    def test_undeclared_attacker_keyed_insert_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    self.table[packet.src] = packet
            """,
            prelude=TRUST,
        )
        findings = analyze([tmp_path], rule_ids=["M001"])
        assert [f.rule for f in findings] == ["M001"]
        assert "self.table" in findings[0].message

    def test_taint_propagates_through_assignment(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    key = (packet.src, packet.sport)
                    self.table[key] = 1
            """,
            prelude=TRUST,
        )
        assert [f.rule for f in analyze([tmp_path], rule_ids=["M001"])] == [
            "M001"
        ]

    def test_declared_bound_silences(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    self.table[packet.src] = packet
            """,
            prelude=TRUST + BOUNDS_CAP,
        )
        assert analyze([tmp_path], rule_ids=["M001"]) == []

    def test_internal_keys_and_cold_functions_do_not_fire(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    self.table[self.epoch] = packet.src

                def offline(self, packet):
                    self.other[packet.src] = 1
            """,
            prelude=TRUST,
        )
        # handle's key is internal; offline is not attacker-callable
        assert analyze([tmp_path], rule_ids=["M001"]) == []


class TestM002:
    def test_unenforced_cap_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def put(self, key, value):
                    self.table[key] = value
            """,
            prelude=BOUNDS_CAP,
        )
        findings = analyze([tmp_path], rule_ids=["M002"])
        assert [f.rule for f in findings] == ["M002"]
        assert "statically enforced" in findings[0].message

    def test_cap_check_or_eviction_silences(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def put(self, key, value):
                    if len(self.table) >= 4:
                        del self.table[next(iter(self.table))]
                    self.table[key] = value
            """,
            prelude=BOUNDS_CAP,
        )
        assert analyze([tmp_path], rule_ids=["M002"]) == []

    def test_sweep_only_bounds_carry_no_insert_obligation(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def put(self, key, value):
                    self.table[key] = value
            """,
            prelude=BOUNDS_CAP.replace('"cap"', '"sweep"'),
        )
        assert analyze([tmp_path], rule_ids=["M002"]) == []


class TestM003:
    PRELUDE = BOUNDS_CAP.replace('"cap"', '"sweep"')

    def test_unreachable_sweep_fires_at_declaration(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def put(self, key, value):
                    self.table[key] = value
            """,
            prelude=self.PRELUDE,
        )
        findings = analyze([tmp_path], rule_ids=["M003"])
        assert [f.rule for f in findings] == ["M003"]
        assert findings[0].path == str(path)
        assert findings[0].line == 1  # the __state_bounds__ assignment

    def test_scheduled_sweep_silences(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def start(self):
                    self.sim.schedule(1.0, self._sweep)

                def _sweep(self):
                    self.table.clear()
                    self.sim.schedule(1.0, self._sweep)
            """,
            prelude=self.PRELUDE,
        )
        assert analyze([tmp_path], rule_ids=["M003"]) == []


class TestM004:
    def test_early_return_between_insert_and_cap_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def put(self, key, value):
                    self.table[key] = value
                    if value is None:
                        return
                    if len(self.table) > 4:
                        self.table.pop(key)
            """,
            prelude=BOUNDS_CAP,
        )
        findings = analyze([tmp_path], rule_ids=["M004"])
        assert [f.rule for f in findings] == ["M004"]
        assert "can be bypassed" in findings[0].message

    def test_raise_between_insert_and_cap_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def put(self, key, value):
                    self.table[key] = value
                    if value is None:
                        raise ValueError(key)
                    if len(self.table) > 4:
                        self.table.pop(key)
            """,
            prelude=BOUNDS_CAP,
        )
        assert [f.rule for f in analyze([tmp_path], rule_ids=["M004"])] == [
            "M004"
        ]

    def test_evict_before_insert_is_bypass_proof(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def put(self, key, value):
                    if len(self.table) >= 4:
                        del self.table[next(iter(self.table))]
                    self.table[key] = value
                    if value is None:
                        return
            """,
            prelude=BOUNDS_CAP,
        )
        assert analyze([tmp_path], rule_ids=["M004"]) == []


class TestM005:
    PRELUDE = "__state_bounds__ = {}\n"

    def test_growing_unbudgeted_reschedule_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def _tick(self):
                    self.log.append(self.now)
                    self.sim.schedule(1.0, self._tick)
            """,
            prelude=self.PRELUDE,
        )
        findings = analyze([tmp_path], rule_ids=["M005"])
        assert [f.rule for f in findings] == ["M005"]
        assert "self.log" in findings[0].message

    def test_guarded_reschedule_is_a_budget(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def _tick(self):
                    self.log.append(self.now)
                    if self.active:
                        self.sim.schedule(1.0, self._tick)
            """,
            prelude=self.PRELUDE,
        )
        assert analyze([tmp_path], rule_ids=["M005"]) == []

    def test_sweep_idiom_is_net_non_growing(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def _sweep(self):
                    self.table = {k: v for k, v in self.table.items() if v}
                    self.table[0] = 1
                    self.sim.schedule(1.0, self._sweep)
            """,
            prelude=self.PRELUDE,
        )
        assert analyze([tmp_path], rule_ids=["M005"]) == []

    def test_undeclared_module_is_out_of_scope(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def _tick(self):
                    self.log.append(self.now)
                    self.sim.schedule(1.0, self._tick)
            """,
        )
        assert analyze([tmp_path], rule_ids=["M005"]) == []


class TestEngine:
    def test_inline_allow_suppresses(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Guard:
                def handle(self, packet):
                    self.table[packet.src] = packet  # repro: allow[M001] toy
            """,
            prelude=TRUST,
        )
        assert analyze([tmp_path], rule_ids=["M001"]) == []

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(KeyError):
            analyze([tmp_path], rule_ids=["M999"])

    def test_registry_is_consistent(self):
        from repro.analysis.memory.rules import MEMORY_CHECKS

        assert set(MEMORY_IDS) == set(MEMORY_CHECKS) | {"M006"}
        for rule in MEMORY_RULES:
            expected = "memory-runtime" if rule.id == "M006" else "memory"
            assert rule.family == expected
            assert rule.severity == "error"
        table = rules_markdown()
        for rule_id in MEMORY_IDS:
            assert rule_id in table


# -- seeded-mutation acceptance tests against repo sources --------------------


def mutate(tmp_path, relative: str, old: str, new: str) -> Path:
    """Copy one repo source file into tmp_path with ``old`` -> ``new``."""
    original = (REPO_SRC / relative).read_text(encoding="utf-8")
    mutated = original.replace(old, new)
    assert mutated != original, f"mutation anchor not found in {relative}"
    return write(tmp_path, Path(relative).name, mutated)


class TestAcceptanceMutations:
    def test_repo_clean_through_cli_with_baseline(self, repo_run):
        assert repo_run.exit_code == 0
        assert repo_run.findings_of(MEMORY_IDS) == []

    def test_deleting_pending_declaration_fires_m001(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/pipeline.py",
            '        "_pending": {\n'
            '            "bound": 4096,\n'
            '            "evicted_by": "sweep+cap",\n'
            '            "keyed_by": "attacker",\n'
            "        },\n",
            "",
        )
        findings = analyze([tmp_path], rule_ids=["M001"])
        assert findings, "undeclared attacker-keyed _pending must fire M001"
        assert all(f.rule == "M001" for f in findings)
        assert any("_pending" in f.message for f in findings)

    def test_deleting_verified_sources_cap_fires_m002(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/pipeline.py",
            "        self._verified_sources[source] = self.node.sim.now\n"
            "        if len(self._verified_sources) > 8192:\n"
            "            del self._verified_sources"
            "[next(iter(self._verified_sources))]\n",
            "        self._verified_sources[source] = self.node.sim.now\n",
        )
        findings = analyze([tmp_path], rule_ids=["M002"])
        assert [f.rule for f in findings] == ["M002"]
        assert "_verified_sources" in findings[0].message

    def test_unhooking_the_guard_sweep_fires_m003(self, tmp_path):
        mutate(
            tmp_path,
            "repro/guard/local_guard.py",
            "self._sweep, priority=BOUNDARY_PRIORITY",
            "self._manual_sweep, priority=BOUNDARY_PRIORITY",
        )
        findings = analyze([tmp_path], rule_ids=["M003"])
        assert findings, "an unscheduled sweep must fire M003"
        assert all(f.rule == "M003" for f in findings)
        assert any("sweep eviction" in f.message for f in findings)

    def test_early_return_inside_action_log_fires_m004(self, tmp_path):
        mutate(
            tmp_path,
            "repro/control/controller.py",
            "        self.actions.append(entry)\n"
            "        if len(self.actions) > ACTION_LOG_CAP:",
            "        self.actions.append(entry)\n"
            "        if not entry:\n"
            "            return\n"
            "        if len(self.actions) > ACTION_LOG_CAP:",
        )
        findings = analyze([tmp_path], rule_ids=["M004"])
        assert [f.rule for f in findings] == ["M004"]
        assert "actions" in findings[0].message

    def test_sweep_that_stops_evicting_fires_m005(self, tmp_path):
        # drop the held-queue eviction: the sweep now only rebuilds queues
        # while rescheduling itself forever — growth with no budget
        mutate(
            tmp_path,
            "repro/guard/local_guard.py",
            "            if live:\n"
            "                self._held[key] = live\n"
            "            else:\n"
            "                del self._held[key]\n"
            "                # the grant was lost: retry on the next query\n",
            "            if live:\n"
            "                self._held[key] = live\n",
        )
        findings = analyze([tmp_path], rule_ids=["M005"])
        assert [f.rule for f in findings] == ["M005"]
        assert "_sweep" in findings[0].message
