"""TCP corner cases: RSTs, half-close, retransmission exhaustion, windows."""

from ipaddress import IPv4Address

import pytest

from repro.netsim import (
    Link,
    MAX_RETRANSMITS,
    MSS,
    Node,
    Packet,
    Simulator,
    TcpFlags,
    TcpSegment,
    TcpState,
)
from repro.netsim import tcp
from repro.netsim.tcp import SEND_WINDOW_SEGMENTS, TIME_WAIT_LINGER, TcpConnection

SERVER_IP = IPv4Address("10.0.0.2")


def pair(seed=0, **link_kwargs):
    sim = Simulator(seed=seed)
    client = Node(sim, "client")
    client.add_address("10.0.0.1")
    server = Node(sim, "server")
    server.add_address(SERVER_IP)
    Link(sim, client, server, delay=0.001, **link_kwargs)
    return sim, client, server


class TestRstHandling:
    def test_rst_during_handshake_kills_client(self):
        sim, client, server = pair()
        closes = []
        conn = client.tcp.connect(SERVER_IP, 53, on_close=lambda c, e: closes.append(e))
        # forge a RST from the server before any listener exists
        rst = TcpSegment(sport=53, dport=conn.local_port, seq=0, ack=0, flags=TcpFlags.RST)
        server.send(Packet(src=SERVER_IP, dst=IPv4Address("10.0.0.1"), segment=rst))
        sim.run(until=1.0)
        assert conn.state is TcpState.CLOSED
        assert closes == [True]

    def test_rst_mid_stream(self):
        sim, client, server = pair()
        server_conns = []
        server.tcp.listen(53, server_conns.append)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        assert conn.state is TcpState.ESTABLISHED
        server_conns[0].abort()
        sim.run(until=0.5)
        assert conn.state is TcpState.CLOSED
        assert client.tcp.open_connections == 0


class TestRetransmissionExhaustion:
    def test_connection_aborts_after_max_retries(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        # the server vanishes: all data segments will be lost
        link = client.links[0]
        link.loss = 1.0
        conn.send(b"doomed")
        sim.run(until=120.0)
        assert conn.state is TcpState.CLOSED
        assert conn._retransmits == 0 or conn.state is TcpState.CLOSED

    def test_retransmit_counter_resets_on_progress(self):
        sim, client, server = pair(seed=8, loss=0.3)
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(data)

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(
            SERVER_IP, 53, on_established=lambda c: c.send(b"z" * 8000)
        )
        sim.run(until=60.0)
        assert b"".join(received) == b"z" * 8000


class TestHalfClose:
    def test_client_close_then_server_keeps_sending(self):
        """Passive side may keep sending after receiving FIN (CLOSE_WAIT)."""
        sim, client, server = pair()
        got = []

        def on_connection(conn):
            def on_data(c, data):
                if data == b"":  # client's FIN (EOF)
                    c.send(b"parting-gift")
                    c.close()

            conn.on_data = on_data

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(
            SERVER_IP, 53,
            on_established=lambda c: c.close(),
            on_data=lambda c, data: got.append(data),
        )
        sim.run(until=5.0)
        assert b"".join(got).replace(b"", b"") == b"parting-gift"
        assert client.tcp.open_connections == 0
        assert server.tcp.open_connections == 0


class TestWindowing:
    def test_send_window_bounds_inflight(self):
        sim, client, server = pair()
        # a black-hole server: accept the handshake then drop all data ACKs
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        client.links[0].loss = 1.0  # nothing gets through any more
        conn.send(b"q" * (MSS * (SEND_WINDOW_SEGMENTS + 10)))
        # only a window's worth was put in flight
        assert len(conn._inflight) <= SEND_WINDOW_SEGMENTS

    def test_window_refills_as_acks_arrive(self):
        sim, client, server = pair()
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(len(data))

        server.tcp.listen(53, on_connection)
        total = MSS * (SEND_WINDOW_SEGMENTS + 8)
        client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(b"w" * total))
        sim.run(until=10.0)
        assert sum(received) == total


class TestDuplicateDelivery:
    def test_duplicate_segment_not_delivered_twice(self):
        sim, client, server = pair()
        chunks = []
        server_conns = []

        def on_connection(conn):
            server_conns.append(conn)
            conn.on_data = lambda c, data: chunks.append(data)

        server.tcp.listen(53, on_connection)
        conn = client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(b"once"))
        sim.run(until=0.5)
        # replay the exact data segment
        dup = TcpSegment(
            sport=conn.local_port, dport=53,
            seq=conn.iss + 1, ack=server_conns[0].snd_nxt,
            flags=TcpFlags.ACK, data=b"once",
        )
        client.send(Packet(src=IPv4Address("10.0.0.1"), dst=SERVER_IP, segment=dup))
        sim.run(until=1.0)
        assert b"".join(chunks) == b"once"


class TestBoundedRetransmission:
    def test_per_connection_budget_overrides_stack_default(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53, max_retransmits=2)
        sim.run(until=0.1)
        client.links[0].loss = 1.0  # blackhole from here on
        conn.send(b"doomed")
        sim.run(until=10.0)
        assert conn.state is TcpState.CLOSED
        assert conn.aborted_by_retries
        assert client.tcp.retry_exhaustions == 1

    def test_tight_budget_aborts_much_faster(self):
        def abort_time(budget):
            sim, client, server = pair()
            server.tcp.listen(53, lambda conn: None)
            closed = []
            conn = client.tcp.connect(
                SERVER_IP, 53, max_retransmits=budget,
                on_close=lambda c, e: closed.append(sim.now),
            )
            sim.run(until=0.1)
            client.links[0].loss = 1.0
            conn.send(b"x")
            sim.run(until=120.0)
            return closed[0]

        assert abort_time(2) < abort_time(MAX_RETRANSMITS) / 3

    def test_transfer_survives_bursty_loss(self):
        """A Gilbert-Elliott channel loses bursts; retransmission recovers."""
        import random

        from repro.netsim import GilbertElliottLoss

        sim, client, server = pair(seed=11)
        link = client.links[0]
        link.loss_model = GilbertElliottLoss(
            random.Random(99),
            p_good_to_bad=0.1,
            p_bad_to_good=0.3,
            loss_bad=1.0,
            start_bad=True,
        )
        received = []

        def on_connection(conn):
            conn.on_data = lambda c, data: received.append(data)

        server.tcp.listen(53, on_connection)
        client.tcp.connect(SERVER_IP, 53, on_established=lambda c: c.send(b"b" * 6000))
        sim.run(until=60.0)
        assert b"".join(received) == b"b" * 6000
        assert link.loss_model.drops > 0


class TestResetAll:
    def test_silent_reset_leaves_peer_guessing(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        conn = client.tcp.connect(SERVER_IP, 53)
        sim.run(until=0.1)
        server.tcp.reset_all(send_rst=False)
        assert server.tcp.open_connections == 0
        # the client heard nothing: still established until its own timers fire
        assert conn.state is TcpState.ESTABLISHED

    def test_rst_reset_notifies_peer(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None)
        errors = []
        conn = client.tcp.connect(SERVER_IP, 53, on_close=lambda c, e: errors.append(e))
        sim.run(until=0.1)
        server.tcp.reset_all(send_rst=True)
        sim.run(until=0.5)
        assert server.tcp.open_connections == 0
        assert conn.state is TcpState.CLOSED
        assert errors == [True]


class TestTimeWaitLinger:
    def exchange(self, sim, client, server, syn_cookies=True):
        """One complete request/response conversation, cleanly closed."""

        def on_connection(conn):
            def on_data(c, data):
                if data:
                    c.send(b"resp")
                    c.close()

            conn.on_data = on_data

        try:
            server.tcp.listen(53, on_connection, syn_cookies=syn_cookies)
        except Exception:
            pass  # already listening from a previous call
        conn = client.tcp.connect(
            SERVER_IP, 53,
            on_established=lambda c: c.send(b"req"),
            on_data=lambda c, data: c.close() if data else None,
        )
        sim.run(until=sim.now + 1.0)
        assert client.tcp.open_connections == 0
        assert server.tcp.open_connections == 0
        return conn

    def test_stale_duplicate_swallowed_not_cookie_failure(self):
        sim, client, server = pair()
        conn = self.exchange(sim, client, server)
        # replay the client's final pure ACK after full teardown
        stale = TcpSegment(
            sport=conn.local_port, dport=53,
            seq=conn.snd_nxt, ack=conn.rcv_nxt, flags=TcpFlags.ACK,
        )
        client.send(Packet(src=IPv4Address("10.0.0.1"), dst=SERVER_IP, segment=stale))
        sim.run(until=sim.now + 0.5)
        assert server.tcp.cookie_failures == 0
        assert server.tcp.stale_segments >= 1
        assert server.tcp.open_connections == 0

    def test_fresh_syn_clears_linger_entry(self):
        """A new connect reusing the same 4-tuple must not be blackholed."""
        from repro.netsim.tcp import TIME_WAIT_LINGER

        sim, client, server = pair()
        conn = self.exchange(sim, client, server)
        key = (SERVER_IP, 53, IPv4Address("10.0.0.1"), conn.local_port)
        assert key in server.tcp._time_wait
        established = []
        # reconnect from the very same ephemeral port, inside the linger
        reconn = client.tcp.connect(
            SERVER_IP, 53, src=IPv4Address("10.0.0.1"),
            on_established=lambda c: established.append(c),
        )
        reconn.local_port = conn.local_port
        client.tcp.connections.pop(reconn.key, None)
        client.tcp.connections[reconn.key] = reconn
        sim.run(until=sim.now + min(0.5, TIME_WAIT_LINGER / 2))
        assert established

    def test_rst_to_listener_ignored(self):
        sim, client, server = pair()
        server.tcp.listen(53, lambda conn: None, syn_cookies=True)
        rst = TcpSegment(sport=4444, dport=53, seq=9, ack=7, flags=TcpFlags.RST | TcpFlags.ACK)
        client.send(Packet(src=IPv4Address("10.0.0.1"), dst=SERVER_IP, segment=rst))
        sim.run(until=0.5)
        assert server.tcp.cookie_failures == 0
        assert server.tcp.open_connections == 0

    def test_stale_data_segment_not_counted_as_forged_cookie(self):
        sim, client, server = pair()
        self.exchange(sim, client, server)
        server.tcp._time_wait.clear()  # pretend the linger already expired
        stale = TcpSegment(
            sport=50000, dport=53, seq=123456, ack=987654,
            flags=TcpFlags.ACK, data=b"old-request",
        )
        client.send(Packet(src=IPv4Address("10.0.0.1"), dst=SERVER_IP, segment=stale))
        sim.run(until=sim.now + 0.5)
        assert server.tcp.cookie_failures == 0
        assert server.tcp.stale_segments >= 1


class TestTimeWaitCap:
    """TIME_WAIT at its cap: expired entries go first, then the oldest."""

    CAP = 4
    PEER = IPv4Address("10.0.0.1")

    @pytest.fixture
    def stack(self, monkeypatch):
        monkeypatch.setattr(tcp, "TIME_WAIT_CAP", self.CAP)
        _, _, server = pair()
        return server.tcp

    def close(self, stack, port, at):
        """Cleanly close the connection from ``port`` at simulated ``at``."""
        stack.node.sim.run(until=at)
        conn = TcpConnection(stack, SERVER_IP, 53, self.PEER, port)
        stack._forget(conn, linger=True)
        return conn.key

    def test_expired_entries_go_before_live_ones(self, stack):
        old = [self.close(stack, 1000 + i, 0.0) for i in range(2)]
        live = [self.close(stack, 2000 + i, TIME_WAIT_LINGER / 2) for i in range(2)]
        new = self.close(stack, 3000, TIME_WAIT_LINGER * 1.2)
        # both expired entries are freed, not just the oldest one
        assert list(stack._time_wait) == live + [new]
        assert not set(old) & set(stack._time_wait)

    def test_oldest_live_entry_displaced_first(self, stack):
        keys = [self.close(stack, 1000 + i, i * 0.1) for i in range(self.CAP + 1)]
        assert list(stack._time_wait) == keys[1:]

    def test_reclosed_key_moves_to_newest(self, stack):
        first, second, third = (self.close(stack, 1000 + i, i * 0.1) for i in range(3))
        assert self.close(stack, 1000, 0.3) == first
        assert list(stack._time_wait) == [second, third, first]
        assert stack._time_wait[first] == pytest.approx(0.3 + TIME_WAIT_LINGER)
        fourth = self.close(stack, 1003, 0.4)
        fifth = self.close(stack, 1004, 0.5)
        # the re-closed key outlives the entries that were newer at first close
        assert list(stack._time_wait) == [third, first, fourth, fifth]

    def test_cap_holds_over_many_closes(self, stack):
        for i in range(3 * self.CAP):
            self.close(stack, 1000 + i, i * 0.05)
            assert len(stack._time_wait) <= self.CAP
        assert len(stack._time_wait) == self.CAP
