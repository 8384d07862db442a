"""Per-layer tracing installed from the benchmark's own files.

:class:`Tracer` replaces each layer's entry points (class methods and
module functions of ``repro``) with timing wrappers, and puts the
originals back on :meth:`Tracer.uninstall`.  Timed runs never install it.

Each wrapped call is a span: name, start, end and the enclosing span.  A
layer's self time is the duration of its spans minus the part their child
spans cover, so the per-layer self times plus the time no span covers add
up to the traced wall time.  Self time, inclusive time and call counts are
kept per quarter of the simulated span (``Tracer.quarter``), which is how
the ``*.q1`` / ``*.q4`` per-call costs come from the same run as the
slice timings.  Spans are kept in memory, up to ``SPAN_CAP`` of them, and
written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

#: (layer, "module:Class.method" | "module:Class.*" | "module:function").
#: ``Class.*`` wraps every method the class itself defines, dunders
#: excluded; adapters and load models are wrapped whole, the netsim,
#: codec and core layers at their entry points only, so that tiny
#: helpers (hashing, comparisons) are not each charged a wrapper.  Code
#: no wrapper covers (closures, lambdas) is charged to the layer whose
#: span encloses it, and event callbacks outside every span to
#: ``netsim.sim``, whose root span is ``Simulator.run``.
ENTRY_POINTS = [
    ("netsim.sim", "repro.netsim.simulator:Simulator.run"),
    ("netsim.sim", "repro.netsim.simulator:Simulator.schedule"),
    ("netsim.sim", "repro.netsim.simulator:Simulator.schedule_at"),
    ("netsim.node", "repro.netsim.node:Node.receive"),
    ("netsim.node", "repro.netsim.node:Node.send"),
    ("netsim.node", "repro.netsim.node:Node.deliver"),
    ("netsim.node", "repro.netsim.node:Node.forward"),
    ("netsim.node", "repro.netsim.udp:UdpStack.demux"),
    ("netsim.node", "repro.netsim.udp:UdpStack.send"),
    ("netsim.node", "repro.netsim.udp:UdpSocket.send"),
    ("netsim.link", "repro.netsim.link:Link.transmit"),
    ("netsim.cpu", "repro.netsim.cpu:Cpu.submit"),
    ("netsim.cpu", "repro.netsim.cpu:Cpu.charge"),
    ("netsim.tcp", "repro.netsim.tcp:TcpStack.demux"),
    # scheduled through the CPU model when a stack charges per segment
    ("netsim.tcp", "repro.netsim.tcp:TcpStack._process"),
    ("netsim.tcp", "repro.netsim.tcp:TcpStack._send_packet"),
    ("netsim.tcp", "repro.netsim.tcp:TcpStack.connect"),
    ("netsim.tcp", "repro.netsim.tcp:TcpConnection.send"),
    ("netsim.tcp", "repro.netsim.tcp:TcpConnection.close"),
    ("netsim.tcp", "repro.netsim.tcp:TcpConnection.abort"),
    ("netsim.tcp", "repro.netsim.tcp:TcpConnection.handle"),
    ("netsim.tcp", "repro.netsim.tcp:TcpConnection._on_retransmit"),
    ("dnswire", "repro.dnswire.name:Name.__init__"),
    ("dnswire", "repro.dnswire.name:Name.from_text"),
    ("dnswire", "repro.dnswire.name:Name.decode"),
    ("dnswire", "repro.dnswire.message:Message.encode"),
    ("dnswire", "repro.dnswire.message:Message.decode"),
    ("dnswire", "repro.dnswire.message:Message.wire_size"),
    ("dnswire", "repro.dnswire.message:Message.freeze"),
    ("dnswire", "repro.dnswire.builder:make_query"),
    ("dnswire", "repro.dnswire.builder:make_response"),
    ("dnswire", "repro.dnswire.builder:make_truncated_response"),
    ("dnswire", "repro.dnswire.builder:a_record"),
    ("dnswire", "repro.dnswire.builder:ns_record"),
    ("dnswire", "repro.dnswire.cookie_ext:attach_cookie"),
    ("dnswire", "repro.dnswire.cookie_ext:extract_cookie"),
    ("dnswire", "repro.dnswire.cookie_ext:strip_cookie"),
    ("dnswire", "repro.dnswire.cookie_ext:is_cookie_request"),
    ("guard.core", "repro.guard.core.cookie:CookieFactory.*"),
    ("guard.core", "repro.guard.core.ratelimit:TopRequesterTracker.observe"),
    ("guard.core", "repro.guard.core.ratelimit:UnverifiedResponseLimiter.allow"),
    ("guard.core", "repro.guard.core.ratelimit:VerifiedRequestLimiter.allow"),
    ("guard.core", "repro.guard.core.ratelimit:RateEstimator.observe"),
    ("guard.core", "repro.guard.core.ratelimit:RateEstimator.rate_now"),
    ("guard.core", "repro.guard.core.dns_scheme:encode_cookie_name"),
    ("guard.core", "repro.guard.core.dns_scheme:decode_cookie_name"),
    ("guard.core", "repro.guard.core.dns_scheme:delegation_owner"),
    ("guard.core", "repro.guard.core.dns_scheme:fabricated_referral"),
    ("guard.core", "repro.guard.core.dns_scheme:cookie_name_answer"),
    ("guard.core", "repro.guard.core.admission:should_shed"),
    ("guard.core", "repro.guard.core.admission:fallback_policy"),
    ("guard.core", "repro.guard.core.admission:reap_deadline"),
    ("guard.core", "repro.guard.core.local_policy:outbound_action"),
    ("guard.adapter", "repro.guard.pipeline:RemoteDnsGuard.*"),
    ("guard.local", "repro.guard.local_guard:LocalDnsGuard.*"),
    ("guard.tcp_proxy", "repro.guard.tcp_scheme:TcpProxy.*"),
    ("dns.ans", "repro.dns.loadgen:AnsSimulator.*"),
    ("dns.lrs", "repro.dns.loadgen:LrsSimulator.*"),
    ("dns.lrs", "repro.dns.loadgen:_Interaction.*"),
    ("dns.lrs", "repro.dns.loadgen:TcpLoadClient.*"),
    ("attack.spoof", "repro.attack.spoof:SpoofingAttacker.*"),
]

LAYERS = sorted({layer for layer, _ in ENTRY_POINTS})
QUARTERS = 4

#: Spans kept in memory and written out; later spans are counted only.
SPAN_CAP = 50_000


class Tracer:
    """Span recorder and per-layer, per-quarter accounting."""

    def __init__(self):
        self.quarter = 0
        self.self_ns = {layer: [0] * QUARTERS for layer in LAYERS}
        self.calls = defaultdict(lambda: [0] * QUARTERS)  # by entry name
        self.layer_of: dict[str, str] = {}  # entry name -> layer
        self.incl_ns = defaultdict(lambda: [0] * QUARTERS)  # by entry name
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id)
        self.span_count = 0
        self.heap_peak = 0
        self.cpu_refused = 0
        self.gc_ns = 0
        self.gc_collections = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child_ns, span_id] per open span
        self._patches: list[tuple] = []
        self._gc_start = 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for layer, target in ENTRY_POINTS:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, _, attr = qualname.partition(".")
                cls = getattr(module, class_name, None)
                if cls is None:
                    self.missing.append(target)
                    continue
                attrs = (
                    [a for a in vars(cls) if not a.startswith("__")]
                    if attr == "*"
                    else [attr]
                )
                for name in attrs:
                    self._patch_method(layer, cls, name, target)
            else:
                self._patch_function(layer, module, qualname, target)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_method(self, layer, cls, attr, target) -> None:
        raw = vars(cls).get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(layer, f"{cls.__name__}.{attr}", raw.__func__))
        elif inspect.isfunction(raw):
            wrapped = self._wrap(layer, f"{cls.__name__}.{attr}", raw)
        else:
            if raw is None:
                self.missing.append(target)
            return  # properties and plain attributes stay as they are
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, layer, module, name, target) -> None:
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(target)
            return
        wrapped = self._wrap(layer, name, original)
        # rebind every ``from module import name`` copy inside the package
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, name, None) is original
            ):
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapped)

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        layer_self = self.self_ns[layer]
        self.layer_of[name] = layer
        calls = self.calls[name]
        incl = self.incl_ns[name]
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            quarter = tracer.quarter
            span_id = tracer.span_count
            tracer.span_count = span_id + 1
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                layer_self[quarter] += duration - frame[0]
                incl[quarter] += duration
                calls[quarter] += 1
                parent = None
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if span_id < SPAN_CAP:
                    spans.append((span_id, name, start, end, parent))
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    # -- read-out --------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_ns[layer]) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(self.count(name) for name, of in self.layer_of.items() if of == layer)

    def count(self, name: str) -> int:
        return sum(self.calls[name])

    def per_call_ns(self, name: str, quarter: int) -> float:
        calls = self.calls[name][quarter]
        return self.incl_ns[name][quarter] / calls if calls else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start_ns": start,
                     "end_ns": end, "parent": parent}
                ) + "\n")


def _note_heap(tracer: Tracer, args, result) -> None:
    pending = args[0].pending_events
    if pending > tracer.heap_peak:
        tracer.heap_peak = pending


def _note_cpu_refusal(tracer: Tracer, args, result) -> None:
    if result is False:
        tracer.cpu_refused += 1


#: Post-call probes by entry name: modelled quantities read where they change.
_AFTER = {
    "Simulator.schedule_at": _note_heap,
    "Cpu.submit": _note_cpu_refusal,
}
