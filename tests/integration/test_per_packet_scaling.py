"""Per-packet work must not grow with the keys an attacker holds in a table.

A spoofed flood picks the sources RL1 keys its token buckets by, and
connection churn picks the 4-tuples TCP's TIME_WAIT remembers.  Each test
times one per-packet operation with the table well below its cap and
again at or past it, over interleaved rounds, and asserts that the median
per-call costs stay within ``MAX_RATIO`` of each other.  An O(n) pass over
the table per packet (a ``min()`` over a heavy-hitter summary, a TIME_WAIT
rebuild per close) puts the ratio at ten or more.
"""

import gc
import statistics
import time
from ipaddress import IPv4Address

from repro.guard.core import UnverifiedResponseLimiter
from repro.netsim import Node, Simulator
from repro.netsim.tcp import TIME_WAIT_CAP, TcpConnection

ROUNDS = 7
CALLS = 2000
MAX_RATIO = 3.0

SERVER_IP = IPv4Address("10.0.0.2")


def per_call_seconds(operation, items) -> float:
    """Host seconds per ``operation(item)`` over ``items``, GC paused."""
    gc.disable()
    try:
        start = time.perf_counter()
        for item in items:
            operation(item)
        return (time.perf_counter() - start) / len(items)
    finally:
        gc.enable()


def cost_ratio(build, below: int, past: int) -> float:
    """Median per-call cost with ``past`` keys held over that with ``below``.

    ``build(keys)`` makes a fresh table holding ``keys`` entries (untimed)
    and returns the timed operation with its ``CALLS`` inputs.  The two
    sides alternate round by round so host-speed drift hits both alike.
    """
    small, large = [], []
    for _ in range(ROUNDS):
        small.append(per_call_seconds(*build(below)))
        large.append(per_call_seconds(*build(past)))
    return statistics.median(large) / statistics.median(small)


def rl1_after(held: int):
    """RL1 after ``held`` distinct sources, and ``CALLS`` fresh ones."""
    limiter = UnverifiedResponseLimiter()
    for n in range(held):
        limiter.allow(IPv4Address(0x0B000000 + n), 0.0)
    fresh = [IPv4Address(0x0B000000 + held + n) for n in range(CALLS)]
    return limiter, fresh


def stack_after(lingering: int):
    """A stack after ``lingering`` clean closes, and ``CALLS`` established
    connections ready to close."""
    stack = Node(Simulator(seed=0), "server").tcp

    def established(start: int, count: int) -> list[TcpConnection]:
        conns = []
        for n in range(start, start + count):
            conn = TcpConnection(stack, SERVER_IP, 53, IPv4Address(0x0C000000 + n), 1024)
            conn.established_at = 0.0
            assert stack._admit(conn)
            conns.append(conn)
        return conns

    for conn in established(0, lingering):
        conn._teardown(error=False)
    return stack, established(lingering, CALLS)


def test_rl1_fresh_source_cost_flat_past_its_caps():
    below, past = 1000, 9000  # under 4096 sources all batch long / LRU full
    limiter, _ = rl1_after(past)
    assert len(limiter._buckets) == limiter._max_buckets < past

    def build(held):
        limiter, fresh = rl1_after(held)
        return (lambda source: limiter.allow(source, 0.0)), fresh

    assert cost_ratio(build, below, past) < MAX_RATIO


def test_clean_close_cost_flat_at_the_time_wait_cap():
    stack, _ = stack_after(TIME_WAIT_CAP)
    assert len(stack._time_wait) == TIME_WAIT_CAP

    def build(lingering):
        _, conns = stack_after(lingering)
        return (lambda conn: conn._teardown(error=False)), conns

    assert cost_ratio(build, 1000, TIME_WAIT_CAP) < MAX_RATIO
