"""Repository benchmark: replay a seeded op list against the shipped server.

    python3 hkbench/run.py --workload push-bound --seed 1 --seconds 20 --trace 0

Starts ``python -m repro.cli serve --generate chung-lu,n=100000,seed=11``
(every flag but ``--port`` at its default) in a child process, replays the
workload's op list -- a warm-up slice, then a measured slice, each to
completion -- over two keep-alive ``http.client`` connections in a closed
loop, checks the answers and the server's own instruments, and prints every
metric with its unit.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1`` (which
adds the in-process traced replay of :mod:`layers`).

Run from the root of a checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    PPR_METHODS,
    bound_violations,
    check_delta,
    cross_check,
    exact_vector,
    sweep_conductance,
)
from replay import run_phase, run_sequential
from server import Client, Reading, Server
from workloads import GRAPH_SPEC, MIN_MEASURED, PROBE_GAP_S, WORKLOADS, build_ops

ROOT = Path(__file__).resolve().parent.parent

#: Server start-ups per run; ``setup_s`` is their median.  The first
#: ``SETUPS // 2 + 1`` come before the replay (the last of them is the server
#: measured) and the rest after it, so the samples span the run instead of
#: one fast or slow moment of the machine: back to back on an idle 2-vCPU
#: guest, one start-up took between 1.75 and 2.58 s, with the same CPU time
#: in the server as wall time.
SETUPS = 5


@dataclass
class RunResult:
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    environment: dict
    notes: list[str] = field(default_factory=list)
    #: Push operations the server reported for the measured phase.
    server_push_ops: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems

    def result_line(self, trace: bool) -> str:
        chosen = self.per_layer if trace else self.end_to_end
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
        })


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(root: Path, graph, spec: str, workload: str, seed: int) -> dict:
    import importlib.util

    return {
        "cpu_count": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "graph_spec": spec,
        "graph_n": graph.num_nodes,
        "graph_m": graph.num_edges,
        "workload": workload,
        "seed": seed,
    }


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def _snapshots(graph, mutations):
    """The client's copy of the graph after each successful mutation."""
    from repro.dynamic.delta import DeltaGraph

    views = [DeltaGraph(graph)]
    for record in mutations:
        views.append(views[-1].apply(add=record.op.add))
    return views


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    root: Path = ROOT,
    graph_spec: str = GRAPH_SPEC,
    setups: int = SETUPS,
    measured: int | None = None,
    trace_slice: int | None = None,
    min_answered: int = MIN_MEASURED,
) -> RunResult:
    """One run of workload ``name``; see the module docstring."""
    from repro.service.registry import build_from_spec

    workload = WORKLOADS[name]
    setup_times = []
    server = None
    try:
        for _ in range(setups // 2 + 1):
            if server is not None:
                server.stop()
            server = Server(root, graph_spec)
            setup_times.append(server.setup_s)
        build_started = time.perf_counter()
        graph = build_from_spec(graph_spec)
        build_s = time.perf_counter() - build_started
        count = measured if measured is not None else workload.measured_count(seconds)
        ops = build_ops(workload, seed, graph, count)

        clients = [Client(server.port) for _ in range(workload.clients)]
        warm = run_phase(clients, graph_spec, workload, ops.warmup, ops.warmup_mutations)
        before = Reading(clients[0], graph_spec)
        phase = run_phase(clients, graph_spec, workload, ops.measured, ops.measured_mutations)
        after = Reading(clients[0], graph_spec)
        check_records = run_sequential(clients[0], graph_spec, ops.checks)
        probe_records = run_sequential(
            clients[0], graph_spec, ops.probe_mutations, gap_s=PROBE_GAP_S
        )
        served_edges = clients[0].get_json("/graphs")["graphs"][0]["num_edges"]
        peak_rss = server.peak_rss_mib()
        for client in clients:
            client.close()
    finally:
        if server is not None:
            server.stop()
    for _ in range(setups - setups // 2 - 1):
        spare = Server(root, graph_spec)
        setup_times.append(spare.setup_s)
        spare.stop()

    records = warm.records + phase.records + check_records + probe_records
    problems: list[str] = []
    notes: list[str] = []

    # The client's graph at every epoch the server went through (mutations
    # are posted one at a time, so completion order is epoch order).
    warm_mutations = [record for record in warm.mutations() if record.ok]
    phase_mutations = [record for record in phase.mutations() if record.ok]
    views = _snapshots(
        graph, warm_mutations + phase_mutations + [r for r in probe_records if r.ok]
    )
    if served_edges != views[-1].num_edges:
        problems.append(
            f"/graphs reports {served_edges} edges, the replayed mutations give "
            f"{views[-1].num_edges}"
        )
    problems += _answer_problems(check_records, views[len(warm_mutations) + len(phase_mutations)])
    problems += cross_check(before, after, phase)

    answered = [record for record in phase.queries() if record.ok]
    if len(answered) < min_answered:
        problems.append(f"only {len(answered)} answered queries; p90 needs {min_answered}")
    latencies_ms = [record.seconds * 1000.0 for record in answered]
    p90 = _percentile(latencies_ms, 90)
    notes.append(
        f"latency_p90_ms: {len(latencies_ms)} samples, "
        f"{sum(1 for value in latencies_ms if value > p90)} beyond p90"
    )
    if workload.writes:
        mutation_ms = [record.seconds * 1000.0 for record in phase_mutations]
        notes.append(f"mutation_p50_ms: {len(mutation_ms)} writer posts in the measured phase")
    else:
        mutation_ms = [record.seconds * 1000.0 for record in probe_records if record.ok]
        notes.append(f"mutation_p50_ms: {len(mutation_ms)} probe posts after the measured phase")
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_qps": (len(answered) / phase.wall_s, "1/s"),
        "latency_p50_ms": (_percentile(latencies_ms, 50), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "mutation_p50_ms": (_percentile(mutation_ms, 50) if mutation_ms else 0.0, "ms"),
        "server_peak_rss_mb": (peak_rss, "MiB"),
        "cluster_conductance_mean": (
            _conductance_mean(
                [r for r in warm.queries() + phase.queries() if r.ok],
                views, warm_mutations + phase_mutations,
            ),
            "ratio",
        ),
    }

    per_layer = {"registry.build_s": (build_s, "s")}
    per_layer.update(_server_layers(before, after, phase))
    if trace:
        from layers import layer_metrics, replay_pass, slice_steps

        steps = slice_steps(workload, ops, trace_slice or workload.trace_slice)
        # A warm-up pass first (the first pass over a slice also pays for
        # heap growth and lazy imports), then untraced and traced passes
        # alternated twice; the faster of each pair is kept, so a slow
        # moment of the machine does not pass for tracing overhead.
        replay_pass(graph, graph_spec, steps, traced=False, rng_seed=seed)
        passes = [
            replay_pass(graph, graph_spec, steps, traced=traced, rng_seed=seed)
            for traced in (False, True, False, True)
        ]
        untraced = min(passes[0::2], key=lambda result: result.wall_s)
        traced = min(passes[1::2], key=lambda result: result.wall_s)
        problems.extend(traced.problems)
        per_layer.update(layer_metrics(traced, untraced))

    return RunResult(
        end_to_end,
        per_layer,
        attempted=len(records),
        failed=sum(1 for record in records if not record.ok),
        problems=problems,
        environment=environment(root, graph, graph_spec, name, seed),
        notes=notes,
        server_push_ops=sum(
            record.payload["counters"]["push_operations"]
            for record in answered
            if not record.payload["cached"]
        ),
    )


def _answer_problems(check_records, view) -> list[str]:
    """Check answers against the dense exact vector on ``view``'s graph."""
    graph = view.compacted()
    degrees = np.asarray(graph.degrees)
    exact: dict = {}
    problems = []
    for record in check_records:
        query = record.op
        if not record.ok:
            problems.append(f"check query {query} failed with status {record.status}")
            continue
        key = (query.method in PPR_METHODS, query.seed_node)
        if key not in exact:
            exact[key] = exact_vector(graph, query.method, query.seed_node)
        delta = check_delta(query.method, query.params, graph.num_nodes)
        problems.extend(
            f"{query.method} seed {query.seed_node}: {problem}"
            for problem in bound_violations(record.payload["top"], exact[key], degrees, delta)
        )
    return problems


def _conductance_mean(answered, views, mutations) -> float:
    """Mean best sweep-prefix conductance of the returned rankings.

    Each ranking is scored on the graph as of the last mutation completed
    before its query was sent.
    """
    done = sorted(record.sent_at + record.seconds for record in mutations)
    values = []
    for record in answered:
        view = views[bisect.bisect_right(done, record.sent_at)]
        ranking = [node for node, _ in record.payload["top"]]
        values.append(sweep_conductance(view, ranking, view.total_volume))
    return float(np.mean(values))


def _server_layers(before: Reading, after: Reading, phase) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the server's instruments and the client."""
    answered = [record for record in phase.queries() if record.ok]
    queue_waits = [
        span["duration_ms"]
        for trace in after.traces
        if trace["trace_id"] > before.last_trace_id()
        for span in trace["spans"]
        if span["name"] == "queue_wait"
    ]
    batcher = [reading.stats["queue"]["batcher"] for reading in (before, after)]
    cycles = batcher[1]["cycles"] - batcher[0]["cycles"]
    hits = after.stats["cache"]["hits"] - before.stats["cache"]["hits"]
    misses = after.stats["cache"]["misses"] - before.stats["cache"]["misses"]
    rejected = sum(1 for record in phase.queries() if record.status == 429)
    return {
        "http.overhead_ms_p50": (
            _percentile([r.seconds * 1000.0 - r.payload["latency_ms"] for r in answered], 50),
            "ms",
        ),
        "service.rejected_ratio": (rejected / max(len(phase.queries()), 1), "ratio"),
        "batcher.queue_wait_ms_p50": (_percentile(queue_waits, 50) if queue_waits else 0.0, "ms"),
        "batcher.batch_size_mean": (
            (batcher[1]["collected"] - batcher[0]["collected"]) / cycles if cycles else 0.0,
            "count",
        ),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "dynamic.epoch_end": (float(after.epoch()), "count"),
        "dynamic.delta_edges_end": (float(after.delta_edges()), "count"),
    }


def print_run(result: RunResult, trace: bool) -> None:
    print("environment " + json.dumps(result.environment, sort_keys=True))
    for title, metrics in (("end-to-end", result.end_to_end), ("per-layer", result.per_layer)):
        for name, (value, unit) in metrics.items():
            print(f"{title:10s} {name:30s} {value:14.6g} {unit}")
    for note in result.notes:
        print("note       " + note)
    for problem in result.problems:
        print("PROBLEM    " + problem)
    print(result.result_line(trace), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    print_run(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
