"""The four guard workloads: testbed builders, the sliced run and its outcome.

Each workload drives :class:`repro.experiments.testbed.GuardTestbed` through
public APIs only and simulates a fixed span split into equal simulated
slices.  A *rep* builds a fresh testbed, runs the span slice by slice while
timing each slice on the host clock, and then reads the modelled outcome
(guard, ANS and load-generator counters).  With a fixed seed the outcome
repeats exactly, so :func:`outcome_diff` against a recorded reference is the
benchmark's correctness check.

Spans cross the caps each workload's scaling probe is about.  At 250K
spoofed sources/s the top-requester tracker (4096) fills at 16.4 ms and the
RL1 buckets (8192) at 32.8 ms, so ``spoof-flood``'s 50 ms carry 12500
sources and its first quarter (12.5 ms) ends before the tracker fills.
``tcp-churn`` closes ~22K connections/s, so TIME_WAIT (8192 per stack)
fills at 0.363 s and 64 % of the last quarter of its 0.432 s runs past the
cap.  The closed-loop workloads have no cap to cross; 0.1 s is a few host
seconds per rep, so a run holds several reps.  Spans are kept this short
because the two O(n) paths behind the caps make a rep take 20–60 host
seconds at this commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import struct
import time
from ipaddress import IPv4Address

from repro.attack import SpoofingAttacker
from repro.attack.spoof import random_source
from repro.dns import LrsSimulator, TcpLoadClient
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed

#: Open-loop attack rate of both floods (paper §IV.E, Fig 6 right edge).
ATTACK_RATE = 250_000

#: Closed-loop client counts: Table III / Fig 6 LRS loops, Fig 7a TCP point.
LRS_LOOPS = 192
TCP_CONNECTIONS = 50


#: Equal simulated slices per rep.
SLICES = 800
QUARTER = SLICES // 4

#: Addresses whose cookies under the guard's key enter the outcome, so that
#: the check covers the seeded key as well as the counters.
COOKIE_PROBES = tuple(IPv4Address(f"198.51.100.{i}") for i in (1, 2, 3, 4))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    span: float  # simulated seconds per rep
    probes: bool  # interleave first-quarter probe slices (see ``run_rep``)


#: Why each workload exists is recorded in ``BENCHMARK.json``.
#: ``spoof-flood`` spends a few tenths of a host second in its first
#: quarter, inside one host-speed phase, and most of the run in its last,
#: so it probes the first quarter across the whole run for ``cost_growth``.
#: ``tcp-churn``'s growth spread no less with probes than without.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spoof-flood", 0.05, probes=True),
        Workload("cookie-flood", 0.1, probes=False),
        Workload("resolve-miss", 0.1, probes=False),
        Workload("tcp-churn", 0.432, probes=False),
    )
}


class Scenario:
    """One built testbed with its load generators, ready to run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.sources: set = set()
        self.attacker = None
        self.lrs = None
        self.tcp_client = None
        name = workload.name
        if name == "spoof-flood":
            bed = GuardTestbed(seed=seed)
            self.attacker = self._attacker(bed, carry_invalid_cookie=False)
        elif name == "cookie-flood":
            bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
            legit = bed.add_client("legit", via_local_guard=True)
            self.lrs = LrsSimulator(legit, ANS_ADDRESS, workload="plain", concurrency=LRS_LOOPS)
            self.attacker = self._attacker(bed, carry_invalid_cookie=True)
        elif name == "resolve-miss":
            bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="referral")
            client = bed.add_client("lrs")
            self.lrs = LrsSimulator(
                client, ANS_ADDRESS, workload="referral",
                concurrency=LRS_LOOPS, cache_cookies=False,
            )
        elif name == "tcp-churn":
            bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer", guard_policy="tcp")
            self.client_node = bed.add_client("lrs")
            self.tcp_client = TcpLoadClient(
                self.client_node, ANS_ADDRESS, concurrency=TCP_CONNECTIONS
            )
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.bed = bed

    def _attacker(self, bed: GuardTestbed, *, carry_invalid_cookie: bool) -> SpoofingAttacker:
        sources = self.sources

        def counted_random_source(rng):
            # the default strategy, drawing exactly as it does, plus a note
            # of each source so a run can show it crossed the 8192 caps
            address = random_source(rng)
            sources.add(address)
            return address

        node = bed.add_client("attacker")
        return SpoofingAttacker(
            node, ANS_ADDRESS, rate=ATTACK_RATE,
            source_strategy=counted_random_source,
            carry_invalid_cookie=carry_invalid_cookie,
        )

    def start(self) -> None:
        for generator in (self.attacker, self.lrs, self.tcp_client):
            if generator is not None:
                generator.start()

    def guard_packets(self) -> int:
        """Packets the guard node received: delivered, forwarded or dropped."""
        node = self.bed.guard_node
        return node.packets_delivered + node.packets_forwarded + node.packets_dropped

    def closed_connections(self) -> dict[str, int]:
        """Connections closed per TCP stack (opened minus still open)."""
        if self.tcp_client is None:
            return {}
        bed = self.bed
        return {
            "client": self.tcp_client.stats.sent - self.client_node.tcp.open_connections,
            "guard": bed.guard.stats()["tcp_connections_accepted"]
            - bed.guard_node.tcp.open_connections,
        }

    def checkpoint(self) -> dict:
        """Modelled counters so far, read without changing any."""
        node = self.bed.guard_node
        return {
            "events": self.bed.sim.events_processed,
            "guard": self.bed.guard.stats(),
            "guard_node": [node.packets_delivered, node.packets_forwarded, node.packets_dropped],
        }

    def outcome(self) -> dict:
        """Every modelled statistic of the run; repeats exactly per seed.

        The counters are the same on every seed for these workloads; the
        two digests (spoofed sources drawn, cookies under the seeded key)
        are what makes the outcome differ from seed to seed.
        """
        bed = self.bed
        load = {}
        if self.lrs is not None:
            load["lrs"] = dataclasses.asdict(self.lrs.stats)
        if self.tcp_client is not None:
            load["tcp"] = dataclasses.asdict(self.tcp_client.stats)
        sources = hashlib.blake2b(digest_size=8)
        for address in sorted(map(int, self.sources)):
            sources.update(address.to_bytes(4, "big"))
        outcome = self.checkpoint() | {
            "ans": bed.ans.stats_snapshot(),
            "load": load,
            "attack_sent": self.attacker.packets_sent if self.attacker else 0,
            "distinct_sources": len(self.sources),
            "closed_connections": self.closed_connections(),
            "sources_digest": sources.hexdigest(),
        }
        # read after guard.stats(): computing these cookies bumps its counter
        cookies = bed.guard.cookies
        outcome["cookie_digest"] = hashlib.blake2b(
            b"".join(cookies.cookie(address) for address in COOKIE_PROBES), digest_size=8
        ).hexdigest()
        return outcome


#: Host speed on shared machines drifts by up to 1.9x with other tenants'
#: load, switching within a second, for the same work.  A fixed burst of
#: pure-Python work, independent of the program but of the kinds its hot
#: paths do (frozen dataclass copies, an event heap, struct packing, bytes
#: joins), is timed at least every ``CALIBRATION_EVERY_S`` of host time;
#: each stretch of simulation between two bursts is scaled to a host that
#: runs the burst in ``CALIBRATION_REF_S``, so that drift cancels and code
#: changes show.
CALIBRATION_ITERS = 400
CALIBRATION_REF_S = 0.001
CALIBRATION_EVERY_S = 0.02


@dataclasses.dataclass(frozen=True)
class _Record:
    name: bytes
    ttl: int
    data: bytes


def calibration_burst() -> float:
    """Host seconds for the fixed calibration burst."""
    heap: list = []
    wire: list[bytes] = []
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ITERS):
        record = _Record(b"www.foo.com", i & 255, struct.pack("!I", i))
        record = dataclasses.replace(record, ttl=record.ttl + 1)
        heapq.heappush(heap, (i * 40503 & 1023, i, record))
        if len(heap) > 256:
            _, _, oldest = heapq.heappop(heap)
            wire.append(oldest.name + oldest.data)
        if len(wire) > 64:
            wire.clear()
    return time.perf_counter() - t0


@dataclasses.dataclass
class Rep:
    """Host timings and modelled outcome of one rep."""

    slice_s: list[float]  # host wall seconds per slice
    scaled_s: list[float]  # the same scaled to the reference host speed, if calibrated
    burst_s: list[float]  # calibration bursts, in the order they ran
    probe_s: list[float]  # host wall seconds per first-quarter probe slice
    probe_scaled_s: list[float]
    probe_diffs: list[str]  # probe checkpoints that differ from the rep's own
    guard_packets: int
    outcome: dict


def timed_slice(sim, until: float, bursts: list[float] | None,
                events: int | None) -> tuple[float, float, int | None]:
    """Simulate up to ``until``; returns (wall, scaled, events per stretch).

    With ``bursts`` a calibration burst follows every stretch of about
    ``CALIBRATION_EVERY_S``: the slice is split by event count, sized from
    the last stretch's event rate, which leaves the modelled run unchanged.
    Each stretch is scaled by the mean of the bursts around it.
    """
    clock = time.perf_counter
    if bursts is None:
        t0 = clock()
        sim.run(until=until)
        return clock() - t0, 0.0, None
    wall = scaled = 0.0
    while True:
        before = sim.events_processed
        t0 = clock()
        sim.run(until=until, max_events=events)
        elapsed = clock() - t0
        wall += elapsed
        bursts.append(calibration_burst())
        scaled += elapsed * 2 * CALIBRATION_REF_S / (bursts[-2] + bursts[-1])
        ran = sim.events_processed - before
        finished = events is None or ran < events
        if ran and elapsed > 0:
            events = max(1, int(ran * CALIBRATION_EVERY_S / elapsed))
        if finished:
            return wall, scaled, events


def run_rep(workload: Workload, seed: int, *, scale: float = 1.0, on_slice=None,
            calibrate: bool = False) -> Rep:
    """Build, start and run one rep, timing each simulated slice.

    ``calibrate`` runs calibration bursts between stretches of simulation
    (``timed_slice``) and, on a workload with ``probes``, follows each slice
    with one slice of a fresh copy of the scenario, restarted every
    quarter, so that first-quarter slices are timed across the same host
    time as the rep's last quarter.  Each probe's counters at the end of
    its quarter must equal the rep's own.  ``scale`` shrinks the span (the
    self-test runs tiny spans); ``on_slice(index, scenario)`` runs before
    each slice, untimed.
    """
    scenario = Scenario(workload, seed)
    scenario.start()
    sim = scenario.bed.sim
    span = workload.span * scale
    bursts = [calibration_burst()] if calibrate else None
    rep = Rep([], [], bursts or [], [], [], [], 0, {})
    events = probe = probe_events = None
    checkpoints = []
    for k in range(SLICES):
        if on_slice is not None:
            on_slice(k, scenario)
        wall, scaled, events = timed_slice(sim, span * (k + 1) / SLICES, bursts, events)
        rep.slice_s.append(wall)
        rep.scaled_s.append(scaled)
        if k == QUARTER - 1:
            first_quarter = scenario.checkpoint()
        if not (calibrate and workload.probes):
            continue
        if probe is None:
            probe, probe_k, probe_events = Scenario(workload, seed), 0, None
            probe.start()
        probe_k += 1
        wall, scaled, probe_events = timed_slice(
            probe.bed.sim, span * probe_k / SLICES, bursts, probe_events)
        rep.probe_s.append(wall)
        rep.probe_scaled_s.append(scaled)
        if probe_k == QUARTER:
            checkpoints.append(probe.checkpoint())
            probe = None
    rep.probe_diffs = [diff for checkpoint in checkpoints
                       for diff in outcome_diff(checkpoint, first_quarter)]
    rep.guard_packets = scenario.guard_packets()
    rep.outcome = scenario.outcome()
    return rep


def first_event(workload: Workload, seed: int) -> None:
    """Set-up as the user pays it: build, start, process one event."""
    scenario = Scenario(workload, seed)
    scenario.start()
    scenario.bed.sim.run(max_events=1)


def outcome_diff(outcome: dict, reference: dict) -> list[str]:
    """Dotted keys whose values differ between an outcome and its reference."""
    diffs = []

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                walk(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        elif a != b:
            diffs.append(path)

    walk(outcome, reference, "")
    return diffs
