"""Self-test of the benchmark itself, on a tiny generated graph.

    python3 hkbench/selftest.py

Checks that op lists are a pure function of their inputs and differ across
seeds, that mutation edges never collide with each other or with the base
graph, that the answer checker flags a corrupted answer, and -- through a
miniature traced run of every workload against a real server -- that the
runs are correct and print exactly the metric names and units listed in
``BENCHMARK.json``.  Takes well under a minute.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from run import ROOT, run_workload
from workloads import WORKLOADS, build_ops

TINY = "chung-lu,n=3000,seed=11"


def _edges(ops):
    batches = ops.warmup_mutations + ops.measured_mutations + ops.probe_mutations
    return [edge for batch in batches for edge in batch.add]


def check_op_lists(graph) -> list[str]:
    failures = []
    for name, workload in WORKLOADS.items():
        first = build_ops(workload, 7, graph, 40)
        if first != build_ops(workload, 7, graph, 40):
            failures.append(f"{name}: two op lists from seed 7 differ")
        if first == build_ops(workload, 8, graph, 40):
            failures.append(f"{name}: seeds 7 and 8 give the same op list")
        for seed in (7, 8, 9):
            ops = build_ops(workload, seed, graph, 40)
            edges = _edges(ops)
            if not edges:
                failures.append(f"{name} seed {seed}: no mutation edges")
            if len(set(edges)) != len(edges):
                failures.append(f"{name} seed {seed}: an edge is added twice")
            bad = [(u, v) for u, v in edges if u == v or graph.has_edge(u, v)]
            if bad:
                failures.append(f"{name} seed {seed}: edges {bad[:3]} are loops or in the base graph")
            for method, _ in workload.methods if not workload.writes else ():
                seeds = [query.seed_node for query in ops.measured if query.method == method]
                if len(set(seeds)) != len(seeds):
                    failures.append(f"{name} seed {seed}: a measured {method} seed repeats")
    return failures


def check_answer_checker(graph) -> list[str]:
    from checks import bound_violations, exact_vector

    failures = []
    degrees = np.asarray(graph.degrees)
    for method in ("tea+", "fora"):
        exact = exact_vector(graph, method, 5)
        order = np.argsort(-(exact / np.maximum(degrees, 1)))[:20]
        top = [[int(node), float(exact[node])] for node in order]
        if bound_violations(top, exact, degrees, 1e-3):
            failures.append(f"{method}: the exact answer is flagged")
        top[3][1] *= 3.0
        if not bound_violations(top, exact, degrees, 1e-3):
            failures.append(f"{method}: a corrupted answer is not flagged")
    return failures


def check_mini_runs() -> list[str]:
    failures = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [workload["name"] for workload in declared["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json lists other workloads than workloads.py")
    for name in WORKLOADS:
        result = run_workload(
            name, 3, 1, trace=True, graph_spec=TINY, setups=1, measured=12,
            trace_slice=6, min_answered=0,
        )
        if not result.correct:
            failures.extend(f"{name}: {problem}" for problem in result.problems)
        if result.failed:
            failures.append(f"{name}: {result.failed} of {result.attempted} operations failed")
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(result.result_line(trace))
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name}: result keys {sorted(line)}")
            printed = {metric: body["unit"] for metric, body in line["metrics"].items()}
            wanted = {metric["name"]: metric["unit"] for metric in declared[key]}
            if printed != wanted:
                missing = sorted(set(wanted) - set(printed))
                extra = sorted(set(printed) - set(wanted))
                units = sorted(m for m in set(printed) & set(wanted) if printed[m] != wanted[m])
                failures.append(
                    f"{name} {key}: missing {missing}, not in BENCHMARK.json {extra}, unit differs {units}"
                )
    return failures


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.registry import build_from_spec

    graph = build_from_spec(TINY)
    failures = []
    for title, check in (
        ("op lists", lambda: check_op_lists(graph)),
        ("answer checker", lambda: check_answer_checker(graph)),
        ("mini runs", check_mini_runs),
    ):
        found = check()
        print(f"{title:15s} {'ok' if not found else 'FAILED'}", flush=True)
        failures.extend(found)
    for failure in failures:
        print("  " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
