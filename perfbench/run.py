"""Guard benchmark: host time per simulated slice on four guard workloads.

Run from the repository root::

    python3 perfbench/run.py --workload spoof-flood --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up
time, real-time factor, guard packets per host second, per-slice host time
(median and tail), cost growth from the first to the last quarter of the
span, and peak memory; times are host time scaled to a reference host
speed (``workloads.calibration_burst``).  ``--trace 1`` runs the same rep
untraced and then traced, and reports the per-layer metrics.  Every rep's
modelled outcome is checked against ``perfbench/reference.json``;
``--seed n`` runs simulator seed ``n mod SEEDS``, so every seed has a
recorded reference (simulator seed ``HELD_OUT`` is kept for rechecking a
claim).  The last line of standard output is the JSON result; the line
before it is a JSON report with the host fingerprint, sample counts and
quartiles.

``--record`` re-records the reference outcomes of one workload, for a
change that alters the modelled behaviour on purpose.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

#: Recorded simulator seeds; seed ``HELD_OUT`` is not used while tuning.
SEEDS = 11
HELD_OUT = 10

#: Set-up probes per timed run (fresh processes, median reported).
SETUP_PROBES = 7

#: ``slice_ms_tail`` percentile (nearest rank): 40 of a rep's 800 slices
#: lie beyond it.  The highest percentile with ten beyond (p98.75) spread
#: up to six times more between runs.
TAIL_PERCENTILE = 95


def _load_program():
    """Put ``src`` and this directory on the path and import the workloads."""
    if not (ROOT / "src" / "repro").is_dir():
        raise ImportError(f"no program source at {ROOT / 'src' / 'repro'}")
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads  # noqa: PLC0415 - needs the path set up first

    return workloads


# -- statistics --------------------------------------------------------------------


def tail(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[-(-TAIL_PERCENTILE * len(ordered) // 100) - 1]  # rank ceil(p * n)


def spread(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


# -- host fingerprint --------------------------------------------------------------


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
    }


# -- reference outcomes ------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)["outcomes"].get(workload, {})


def check(outcome: dict, reference: dict | None, wl) -> list[str]:
    """Keys where the outcome differs from the reference (a single
    ``"<no reference>"`` entry when the seed has none)."""
    if reference is None:
        return ["<no reference>"]
    return wl.outcome_diff(json.loads(json.dumps(outcome)), reference)


# -- set-up probes -----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side: set up, process the first event, print the clock."""
    wl = _load_program()
    wl.first_event(wl.WORKLOADS[workload], seed)
    # perf_counter is CLOCK_MONOTONIC, shared with the parent process
    print(repr(time.perf_counter()))


def setup_times(wl, workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Process start to first simulated event, in ``probes`` fresh processes.

    Returns the wall times and the same scaled to the reference host speed
    by calibration bursts timed just before and after each probe.
    """
    wall, scaled = [], []
    for _ in range(probes):
        before = [wl.calibration_burst() for _ in range(3)]
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        wall.append(float(child.stdout.strip().splitlines()[-1]) - started)
        speed = statistics.median(before + [wl.calibration_burst() for _ in range(3)])
        scaled.append(wall[-1] * wl.CALIBRATION_REF_S / speed)
    return wall, scaled


# -- timed runs --------------------------------------------------------------------


def slice_metrics(reps: list[list[float]], quarter_probes: list[list[float]], span: float,
                  guard_packets: list[int]) -> dict:
    """End-to-end statistics of the slice times of a run's reps; the
    first quarter pools each rep's own with its probe slices."""
    q = len(reps[0]) // 4
    slice_ms = [s * 1e3 for times in reps for s in times]
    firsts = [times[:q] + probe for times, probe in zip(reps, quarter_probes)]
    last = [s for times in reps for s in times[-q:]]
    return {
        "rtf": [sum(times) / span for times in reps],
        "pkts_per_s": [pkts / sum(times) for pkts, times in zip(guard_packets, reps)],
        "slice_ms": slice_ms,
        "growth": [statistics.median(times[-q:]) / statistics.median(first)
                   for times, first in zip(reps, firsts)],
        "cost_growth": statistics.median(last) / statistics.median(
            [s for first in firsts for s in first]),
    }


def end_to_end(wl, workload: str, seed: int, seconds: float, *,
               reference: dict | None, scale: float = 1.0,
               probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Untraced reps for ``seconds``; returns (result, report)."""
    spec = wl.WORKLOADS[workload]
    setup_wall, setup = setup_times(wl, workload, seed, probes)
    reps, failures = [], []
    attempted = 0
    started = time.perf_counter()
    while True:
        gc.collect()
        rep_started = time.perf_counter()
        attempted += 1
        try:
            rep = wl.run_rep(spec, seed, scale=scale, calibrate=True)
        except Exception:  # a failing rep is counted, the run goes on
            failures.append({"rep": attempted, "error": traceback.format_exc()})
            traceback.print_exc(file=sys.stderr)
        else:
            reps.append(rep)
            diff = check(rep.outcome, reference, wl) + ["probe." + d for d in rep.probe_diffs]
            if diff:
                failures.append({"rep": attempted, "differs": diff[:20]})
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - rep_started) > seconds:
            break
    if not reps:
        raise RuntimeError(f"every rep of {workload} raised")

    span = spec.span * scale
    packets = [rep.guard_packets for rep in reps]
    scaled = slice_metrics([rep.scaled_s for rep in reps], [rep.probe_scaled_s for rep in reps],
                           span, packets)
    wall = slice_metrics([rep.slice_s for rep in reps], [rep.probe_s for rep in reps],
                         span, packets)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    values = {
        "setup_s": (statistics.median(setup), "s", setup),
        "rtf": (statistics.median(scaled["rtf"]), "s/s", scaled["rtf"]),
        "pkts_per_s": (statistics.median(scaled["pkts_per_s"]), "1/s", scaled["pkts_per_s"]),
        "slice_ms_p50": (statistics.median(scaled["slice_ms"]), "ms", scaled["slice_ms"]),
        "slice_ms_tail": (tail(scaled["slice_ms"]), "ms", scaled["slice_ms"]),
        "cost_growth": (scaled["cost_growth"], "ratio", scaled["growth"]),
        "peak_rss_mb": (rss_mb, "MB", [rss_mb]),
    }
    unscaled = {
        "setup_s": statistics.median(setup_wall),
        "rtf": statistics.median(wall["rtf"]),
        "pkts_per_s": statistics.median(wall["pkts_per_s"]),
        "slice_ms_p50": statistics.median(wall["slice_ms"]),
        "slice_ms_tail": tail(wall["slice_ms"]),
        "cost_growth": wall["cost_growth"],
        "burst_ms": spread([b * 1e3 for rep in reps for b in rep.burst_s]),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in values.items()},
    }
    outcome = reps[0].outcome
    report = {
        "workload": workload,
        "sim_seed": seed,
        "span_s": span,
        "slices_per_rep": wl.SLICES,
        "slice_sim_ms": span / wl.SLICES * 1e3,
        "reps": len(reps),
        "slices": len(scaled["slice_ms"]),
        "probe_slices": sum(len(rep.probe_s) for rep in reps),
        "tail_percentile": TAIL_PERCENTILE,
        "setup_probes": len(setup),
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "distinct_sources": outcome["distinct_sources"],
        "closed_connections": outcome["closed_connections"],
        "spread": {k: spread(samples) for k, (_, _, samples) in values.items()},
        "wall": unscaled,
    }
    return result, report


# -- traced run --------------------------------------------------------------------


def per_layer(wl, workload: str, seed: int, *, reference: dict | None,
              scale: float = 1.0, write_spans: bool = True) -> tuple[dict, dict]:
    """One untraced and one traced rep of the same seed; per-layer metrics."""
    from tracer import LAYERS, Tracer  # noqa: PLC0415 - imported only for traced runs

    spec = wl.WORKLOADS[workload]
    failures = []
    gc.collect()
    started = time.perf_counter()
    plain = wl.run_rep(spec, seed, scale=scale)
    plain_wall = time.perf_counter() - started
    diff = check(plain.outcome, reference, wl)
    if diff:
        failures.append({"rep": "untraced", "differs": diff[:20]})

    tracer = Tracer()
    time_wait_peak = 0

    def on_slice(index, scenario):
        nonlocal time_wait_peak
        tracer.quarter = index * 4 // wl.SLICES
        if scenario.tcp_client is not None:
            for node in (scenario.client_node, scenario.bed.guard_node):
                # TIME_WAIT has no public size; read the table the cap bounds
                time_wait_peak = max(time_wait_peak, len(getattr(node.tcp, "_time_wait", ())))

    gc.collect()
    tracer.install()
    try:
        started = time.perf_counter()
        traced = wl.run_rep(spec, seed, scale=scale, on_slice=on_slice)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    diff = check(traced.outcome, reference, wl)
    if diff:
        failures.append({"rep": "traced", "differs": diff[:20]})
    if write_spans:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")

    out = traced.outcome
    guard = out["guard"]
    span = spec.span * scale
    pkts = traced.guard_packets
    self_s = {layer: tracer.layer_self_s(layer) for layer in LAYERS}
    covered = sum(self_s.values())
    ran = {layer: tracer.layer_calls(layer) > 0 for layer in LAYERS}
    segments = tracer.count("TcpStack.demux")
    submits = tracer.count("Cpu.submit")
    rl1 = "UnverifiedResponseLimiter.allow"
    replies = guard["referrals_fabricated"] + guard["cookies_granted"] + guard["truncations_sent"]
    closed = out["closed_connections"]
    quarter = wl.SLICES // 4

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def tcp_ns_per_segment(quarter):
        return ratio(tracer.self_ns["netsim.tcp"][quarter], tracer.calls["TcpStack.demux"][quarter])

    # name: (value, unit, applies to this workload)
    values = {
        "netsim.sim.events": (out["events"], "count", True),
        "netsim.sim.self_s": (self_s["netsim.sim"], "s", True),
        "netsim.sim.heap_peak": (tracer.heap_peak, "count", True),
        "netsim.node.calls": (tracer.count("Node.receive") + tracer.count("Node.send"), "count", True),
        "netsim.node.self_s": (self_s["netsim.node"], "s", True),
        "netsim.link.self_s": (self_s["netsim.link"], "s", True),
        "netsim.cpu.submits": (submits, "count", True),
        "netsim.cpu.self_s": (self_s["netsim.cpu"], "s", True),
        "netsim.cpu.refused_ratio": (ratio(tracer.cpu_refused, submits), "ratio", submits > 0),
        "netsim.cpu.guard_busy_ratio": (guard["cpu_busy_seconds"] / span, "ratio", True),
        "netsim.tcp.segments": (segments, "count", ran["netsim.tcp"]),
        "netsim.tcp.self_s": (self_s["netsim.tcp"], "s", ran["netsim.tcp"]),
        "netsim.tcp.ns_per_segment.q1": (tcp_ns_per_segment(0), "ns", segments > 0),
        "netsim.tcp.ns_per_segment.q4": (tcp_ns_per_segment(3), "ns", segments > 0),
        "netsim.tcp.time_wait_peak": (time_wait_peak, "count", ran["netsim.tcp"]),
        "netsim.tcp.retransmits": (
            tracer.count("TcpConnection._on_retransmit"), "count", ran["netsim.tcp"]),
        "netsim.tcp.closed_min": (min(closed.values(), default=0), "count", bool(closed)),
        "dnswire.self_s": (self_s["dnswire"], "s", True),
        "dnswire.name_builds": (tracer.count("Name.__init__"), "count", True),
        "dnswire.msg_encodes": (tracer.count("Message.encode"), "count", True),
        "dnswire.msg_decodes": (tracer.count("Message.decode"), "count", True),
        "dnswire.ns_per_pkt": (ratio(self_s["dnswire"] * 1e9, pkts), "ns", pkts > 0),
        "guard.core.self_s": (self_s["guard.core"], "s", ran["guard.core"]),
        "guard.core.md5": (guard["cookie_computations"], "count", True),
        "guard.core.rl1_calls": (tracer.count(rl1), "count", True),
        "guard.core.rl1_ns_per_call.q1": (
            tracer.per_call_ns(rl1, 0), "ns", tracer.calls[rl1][0] > 0),
        "guard.core.rl1_ns_per_call.q4": (
            tracer.per_call_ns(rl1, 3), "ns", tracer.calls[rl1][3] > 0),
        "guard.adapter.self_s": (self_s["guard.adapter"], "s", True),
        "guard.adapter.ns_per_pkt": (ratio(self_s["guard.adapter"] * 1e9, pkts), "ns", pkts > 0),
        "guard.local.self_s": (self_s["guard.local"], "s", ran["guard.local"]),
        "guard.tcp_proxy.self_s": (self_s["guard.tcp_proxy"], "s", ran["guard.tcp_proxy"]),
        "guard.wasted_reply_ratio": (
            ratio(guard["unroutable_replies"], replies), "ratio", replies > 0),
        "dns.ans.self_s": (self_s["dns.ans"], "s", True),
        "dns.lrs.self_s": (self_s["dns.lrs"], "s", ran["dns.lrs"]),
        "attack.self_s": (self_s["attack.spoof"], "s", ran["attack.spoof"]),
        "attack.distinct_sources": (out["distinct_sources"], "count", ran["attack.spoof"]),
        "host.gc_s": (tracer.gc_ns / 1e9, "s", True),
        "host.gc_collections": (tracer.gc_collections, "count", True),
        "trace.overhead_ratio": (wall / plain_wall, "ratio", True),
        # the traced rep's own slice growth, beside its q1/q4 per-call costs
        "trace.cost_growth": (statistics.median(traced.slice_s[-quarter:])
                              / statistics.median(traced.slice_s[:quarter]), "ratio", True),
        "trace.wall_s": (wall, "s", True),
        "trace.unwrapped_s": (wall - covered, "s", True),
    }
    result = {
        "correct": not failures,
        "attempted": 2,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in values.items()},
    }
    report = {
        "workload": workload,
        "sim_seed": seed,
        "span_s": span,
        "slices_per_rep": wl.SLICES,
        "spans_recorded": len(tracer.spans),
        "spans_total": tracer.span_count,
        "missing_entry_points": tracer.missing,
        "not_applicable": sorted(k for k, (_, _, applies) in values.items() if not applies),
        "failures": failures,
        "self_s_by_layer": self_s,
        "accounting": {"wall_s": wall, "layers_s": covered, "unwrapped_s": wall - covered},
    }
    return result, report


# -- reference recording -----------------------------------------------------------


def record(wl, workload: str) -> None:
    """Re-record the reference outcome of ``workload`` for every seed."""
    spec = wl.WORKLOADS[workload]
    outcomes = {str(seed): wl.run_rep(spec, seed).outcome for seed in range(SEEDS)}
    outcomes = json.loads(json.dumps(outcomes))
    try:
        with open(REFERENCE_PATH) as f:
            data = json.load(f)
    except FileNotFoundError:
        data = {"outcomes": {}}
    data.update(seeds=SEEDS, held_out=HELD_OUT)
    data["outcomes"][workload] = outcomes
    with open(REFERENCE_PATH, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        wl = _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    if args.record:
        record(wl, args.workload)
        return 0

    seed = args.seed % SEEDS
    reference = load_reference(args.workload).get(str(seed))
    if args.trace:
        result, report = per_layer(wl, args.workload, seed, reference=reference)
    else:
        result, report = end_to_end(wl, args.workload, seed, args.seconds, reference=reference)
    report["seed"] = args.seed
    report["host"] = host_fingerprint()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
