"""P-rules: hot-path inference, profile weighting, and the cost checks."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import analyze
from repro.analysis.perf.engine import PERF_RULES
from repro.analysis.perf.hotpath import (
    PerfProfile,
    compute_hot_paths,
    load_profile,
    module_dotted,
)
from repro.analysis.flow.core import load_modules

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"
PERF_IDS = [rule.id for rule in PERF_RULES]


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def qualnames(hot_paths) -> set:
    return {qualname for (_path, qualname) in hot_paths.functions}


# -- hot-path inference -------------------------------------------------------


class TestHotPathInference:
    def test_schedule_callback_and_callees_become_hot(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def start(self):
                    self.sim.schedule(0.5, self._tick)

                def _tick(self):
                    self._drain()

                def _drain(self):
                    pass

            def offline():
                pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Pump._tick" in qualnames(hot)
        assert "Pump._drain" in qualnames(hot)
        # start() only schedules; nothing schedules *it*
        assert "Pump.start" not in qualnames(hot)
        assert "offline" not in qualnames(hot)
        tick = next(
            f for f in hot.functions.values() if f.decl.qualname == "Pump._tick"
        )
        drain = next(
            f for f in hot.functions.values() if f.decl.qualname == "Pump._drain"
        )
        assert tick.depth == 0 and tick.root == "Pump._tick"
        assert drain.depth == 1 and drain.root == "Pump._tick"
        assert not tick.profiled
        assert tick.describe() == "hot path root Pump._tick"
        assert drain.describe() == "hot path via Pump._tick"

    def test_lambda_callback_marks_its_body_calls_hot(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def start(self):
                    self.sim.schedule(0.5, lambda: self._tick())

                def _tick(self):
                    pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Pump._tick" in qualnames(hot)

    def test_node_receive_is_always_hot(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Node:
                def receive(self, packet, link):
                    self.deliver(packet)

                def deliver(self, packet):
                    pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Node.receive" in qualnames(hot)
        assert "Node.deliver" in qualnames(hot)

    def test_cpu_submit_callback_is_a_root(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Server:
                def on_query(self, query):
                    self.cpu.submit(0.0001, self._serve, query)

                def _serve(self, query):
                    pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Server._serve" in qualnames(hot)

    def test_hub_names_do_not_drag_the_tree_in(self, tmp_path):
        # four foreign candidates for "send" — above the fan-out cap, so
        # the ambiguous call resolves to nothing
        write(
            tmp_path,
            "hub1.py",
            """
            class A:
                def send(self): pass
            class B:
                def send(self): pass
            """,
        )
        write(
            tmp_path,
            "hub2.py",
            """
            class C:
                def send(self): pass
            class D:
                def send(self): pass
            """,
        )
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def start(self):
                    self.sim.schedule(0.5, self._tick)

                def _tick(self):
                    send(self)
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Pump._tick" in qualnames(hot)
        assert not any(q.endswith(".send") for q in qualnames(hot))


# -- profile loading and weighting --------------------------------------------


class TestProfileWeighting:
    def test_missing_profile_is_none(self, tmp_path):
        assert load_profile(tmp_path / "absent.json") is None

    def test_malformed_profile_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_profile(bad)
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            load_profile(bad)

    def test_loads_bench_document(self, tmp_path):
        doc = {
            "benchmark": "simulator-event-loop",
            "value": 123.0,
            "detail": {
                "events_per_second": 123.0,
                "handlers": {"mod.Pump._tick": {"calls": 7, "seconds": 0.25}},
            },
        }
        path = tmp_path / "BENCH_profile.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        profile = load_profile(path)
        assert profile is not None
        assert profile.events_per_second == 123.0
        assert profile.handlers == {"mod.Pump._tick": (7, 0.25)}

    def test_profile_adds_roots_the_static_pass_cannot_see(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def _indirect(self):
                    pass
            """,
        )
        modules = load_modules([tmp_path])
        assert compute_hot_paths(modules).functions == {}
        profile = PerfProfile(
            events_per_second=1000.0,
            handlers={"mod.Pump._indirect": (100, 2.5)},
        )
        hot = compute_hot_paths(modules, profile)
        assert "Pump._indirect" in qualnames(hot)
        entry = next(iter(hot.functions.values()))
        assert entry.profiled
        assert (entry.calls, entry.seconds) == (100, 2.5)
        assert entry.describe() == "profiled hot path root Pump._indirect"
        path = entry.module.path
        assert hot.weight_for(path, "Pump._indirect") == (100, 2.5)
        assert hot.weight_for(path, "Pump.unknown") == (0, 0.0)

    def test_module_dotted(self):
        assert module_dotted("src/repro/netsim/node.py") == "repro.netsim.node"
        assert module_dotted("src/repro/analysis/perf/__init__.py") == (
            "repro.analysis.perf"
        )
        assert module_dotted("/tmp/x/mod.py") == "mod"


# -- the cost checks on toy modules -------------------------------------------

HOT_PRELUDE = """\
class Handler:
    def start(self):
        self.sim.schedule(0.5, self._on_event)
"""


def toy_findings(tmp_path, body: str, rule: str):
    """Analyze ``Handler`` with the dedented ``body`` as extra class members.

    ``body`` is re-indented one level so its ``def``s become methods of the
    hot ``Handler`` class; anything that must stay at module level goes in
    through :func:`write` directly.
    """
    methods = textwrap.indent(textwrap.dedent(body), "    ")
    write(tmp_path, "mod.py", HOT_PRELUDE + methods)
    return analyze([tmp_path], rule_ids=[rule])


class TestChecks:
    def test_p001_unslotted_instantiation(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            HOT_PRELUDE
            + """
    def _on_event(self):
        return Ticket()

class Ticket:
    def __init__(self):
        self.n = 0
""",
        )
        findings = analyze([tmp_path], rule_ids=["P001"])
        assert [f.rule for f in findings] == ["P001"]
        assert "Ticket" in findings[0].message

    def test_p001_ignores_slotted_and_exception_classes(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            HOT_PRELUDE
            + """
    def _on_event(self):
        Slotted()
        Frozen()
        raise Boom()

class Slotted:
    __slots__ = ("n",)

import dataclasses

@dataclasses.dataclass(slots=True)
class Frozen:
    n: int = 0

class Boom(Exception):
    pass
""",
        )
        assert analyze([tmp_path], rule_ids=["P001"]) == []

    def test_p002_reencoding(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self, msg):
                    return len(msg.encode()) + msg.wire_size()
            """,
            "P002",
        )
        assert [f.rule for f in findings] == ["P002", "P002"]

    def test_p002_inline_allow_suppresses(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self, msg):
                    return msg.encode()  # repro: allow[P002] template built once
            """,
            "P002",
        )
        assert findings == []

    def test_p003_lambda_and_partial_callbacks(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self):
                    self.sim.schedule(0.1, lambda: self.poke())
                    self.sim.schedule(0.1, partial(self.poke, 1))

                def poke(self, n=0):
                    pass
            """,
            "P003",
        )
        assert [f.rule for f in findings] == ["P003", "P003"]
        assert "lambda" in findings[0].message
        assert "partial" in findings[1].message

    def test_p004_formatting_fires_outside_error_paths_only(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self, packet):
                    label = f"pkt {packet}"
                    print(label)
                    self.log.debug("got %s", packet)
                    if packet is None:
                        raise ValueError(f"bad packet {packet}")
            """,
            "P004",
        )
        # three findings: the f-string, print, and log.debug — the f-string
        # inside the raise is an error path and must NOT be a fourth
        assert [f.rule for f in findings] == ["P004", "P004", "P004"]

    def test_p005_scans(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def __init__(self):
                    self.peers = []
                    self.table = {}

                def _on_event(self, src):
                    if src in self.peers:      # list: O(n)
                        return True
                    if src in self.table:      # dict: fine
                        return True
                    return sorted(self.peers)
            """,
            "P005",
        )
        assert [f.rule for f in findings] == ["P005", "P005"]
        assert "membership test over .peers" in findings[0].message
        assert "sorted()" in findings[1].message

    def test_p006_constant_delay_fires_computed_delay_does_not(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self):
                    self.sim.schedule(0.001, self.poke)
                    self.sim.schedule(self.jitter(), self.poke)

                def poke(self):
                    pass

                def jitter(self):
                    return 0.0
            """,
            "P006",
        )
        # the prelude's start() is not hot, so only _on_event's constant
        # push fires; the jitter() delay is call-shaped and exempt
        assert len(findings) == 1
        assert findings[0].rule == "P006"

    def test_cold_functions_are_never_checked(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            def cold(msg):
                print(f"cold {msg.encode()}")
            """,
        )
        assert analyze([tmp_path], rule_ids=PERF_IDS) == []

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(KeyError):
            analyze([tmp_path], rule_ids=["P999"])

    def test_registry_is_consistent(self):
        from repro.analysis.perf.rules import PERF_CHECKS

        assert set(PERF_IDS) == set(PERF_CHECKS)
        assert all(rule.family == "perf" for rule in PERF_RULES)


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
        assert repo_run.findings_of(PERF_IDS) == []

    def test_removing_interaction_slots_fires_p001(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/loadgen.py",
            '__slots__ = (\n        "lrs",',
            '_not_slots = (\n        "lrs",',
        )
        findings = analyze([tmp_path], rule_ids=["P001"])
        assert findings, "unslotted per-event _Interaction must fire P001"
        assert any("_Interaction" in f.message for f in findings)

    def test_inlining_fresh_encode_in_serve_fires_p002(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/loadgen.py",
            "self._socket.send(response, src, sport, src=dst, size=size, span=span)",
            "self._socket.send(response, src, sport, src=dst,"
            " size=response.wire_size(), span=span)",
        )
        findings = analyze([tmp_path], rule_ids=["P002"])
        assert [f.rule for f in findings] == ["P002"]
        assert "AnsSimulator._serve" in findings[0].message

    def test_reintroducing_tcp_deadline_lambda_fires_p003(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/recursive.py",
            "self.resolver.timeout * 3, self._tcp_fallback_fail, conn",
            "self.resolver.timeout * 3,"
            " lambda: self._tcp_fallback_fail(conn)",
        )
        findings = analyze([tmp_path], rule_ids=["P003"])
        assert [f.rule for f in findings] == ["P003"]
        assert "_retry_over_tcp" in findings[0].message

    def test_injecting_print_into_serve_fires_p004(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/loadgen.py",
            "self.requests_served += 1",
            'self.requests_served += 1\n        print(f"served {query}")',
        )
        findings = analyze([tmp_path], rule_ids=["P004"])
        assert findings
        assert all(f.rule == "P004" for f in findings)
        assert any("AnsSimulator._serve" in f.message for f in findings)

    def test_reverting_owns_to_list_scan_fires_p005(self, tmp_path):
        assert analyze(
            [REPO_SRC / "repro" / "netsim" / "node.py"], rule_ids=["P005"]
        ) == []
        mutate(
            tmp_path,
            "repro/netsim/node.py",
            "if address in self._address_set:",
            "if address in self.addresses:",
        )
        findings = analyze([tmp_path], rule_ids=["P005"])
        assert [f.rule for f in findings] == ["P005"]
        assert "Node.owns" in findings[0].message

    def test_p006_flags_batch_loops_and_spares_computed_delays(self, tmp_path):
        # the attack batch loop is real accepted debt (scripts/
        # analysis_baseline.json): the raw analyzer must keep flagging it
        findings = analyze(
            [REPO_SRC / "repro" / "attack" / "spoof.py"], rule_ids=["P006"]
        )
        assert any(
            "_emit_batch" in f.message and f.rule == "P006" for f in findings
        )
        # routing the delay through a call makes it non-constant-shaped,
        # which is exactly what the calendar-queue rewrite will not absorb
        mutate(
            tmp_path,
            "repro/attack/spoof.py",
            "sim.schedule(i * spacing, self._send_one, packet)",
            "sim.schedule(self._jitter(i * spacing),"
            " self._send_one, packet)",
        )
        mutated = analyze([tmp_path], rule_ids=["P006"])
        assert len(mutated) < len(findings)
