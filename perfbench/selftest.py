"""Self-test of the benchmark itself, on tiny spans (under a minute).

    python3 perfbench/selftest.py

For every workload it records a tiny-span reference, then checks that an
untraced run passes the outcome check and prints every end-to-end metric
of ``BENCHMARK.json`` with its unit, that a traced run prints every
per-layer metric with its unit and accounts for its wall time, that a
perturbed reference makes every rep fail, and that another seed's
reference fails too.  It also checks that ``reference.json`` holds an
outcome for every workload and seed.
"""

from __future__ import annotations

import copy
import json
import sys

import run

SCALE = 0.05

#: Reference fields changed one at a time; each must fail the outcome check.
PERTURBATIONS = (
    ("events",), ("guard", "queries_seen"), ("ans", "requests_served"),
    ("sources_digest",), ("cookie_digest",),
)


def metric_problems(result: dict, expected: dict, label: str) -> list[str]:
    problems = []
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"{label}: metric {name} missing")
        elif metrics[name]["unit"] != unit:
            problems.append(f"{label}: {name} unit {metrics[name]['unit']!r} != {unit!r}")
    extra = set(metrics) - set(expected)
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def tiny_reference(wl, spec, seed: int) -> dict:
    return json.loads(json.dumps(wl.run_rep(spec, seed, scale=SCALE).outcome))


def perturb(value):
    return value + 1 if isinstance(value, int) else "not-" + value


def check_workload(wl, name: str, e2e: dict, layered: dict) -> list[str]:
    spec = wl.WORKLOADS[name]
    reference = tiny_reference(wl, spec, 0)
    problems = []

    result, report = run.end_to_end(wl, name, 0, 0.0, reference=reference, scale=SCALE,
                                    probes=1)
    if not result["correct"]:
        problems.append(f"{name}: untraced run fails its own reference: {report['failures']}")
    if bool(report["probe_slices"]) != spec.probes:
        problems.append(f"{name}: {report['probe_slices']} first-quarter probe slices")
    problems += metric_problems(result, e2e, f"{name} --trace 0")

    traced, report = run.per_layer(wl, name, 0, reference=reference, scale=SCALE,
                                   write_spans=False)
    if not traced["correct"]:
        problems.append(f"{name}: traced run changes the modelled outcome")
    problems += metric_problems(traced, layered, f"{name} --trace 1")
    accounting = report["accounting"]
    if not 0 <= accounting["unwrapped_s"] <= 0.05 * accounting["wall_s"]:
        problems.append(f"{name}: layer self times do not account for wall time: {accounting}")
    if report["missing_entry_points"]:
        problems.append(f"{name}: entry points not found: {report['missing_entry_points']}")

    for path in PERTURBATIONS:
        perturbed = copy.deepcopy(reference)
        holder = perturbed
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = perturb(holder[path[-1]])
        bad, _ = run.end_to_end(wl, name, 0, 0.0, reference=perturbed, scale=SCALE, probes=1)
        if bad["correct"] or bad["failed"] != bad["attempted"]:
            problems.append(f"{name}: perturbed reference {'.'.join(path)} still passes")

    other, _ = run.end_to_end(wl, name, 0, 0.0, reference=tiny_reference(wl, spec, 1),
                              scale=SCALE, probes=1)
    if other["correct"] or other["failed"] != other["attempted"]:
        problems.append(f"{name}: seed 0 passes the outcome check of seed 1")
    return problems


def main() -> int:
    wl = run._load_program()
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(declared) != sorted(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared} != {sorted(wl.WORKLOADS)}")
    for name in wl.WORKLOADS:
        seeds = set(run.load_reference(name))
        if seeds != {str(seed) for seed in range(run.SEEDS)}:
            problems.append(f"{name}: reference.json seeds {sorted(seeds)}")
        problems += check_workload(wl, name, e2e, layered)
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
