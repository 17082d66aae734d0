"""In-process replay of an op-list slice, layer by layer, with spans.

The replay calls each layer's public functions in the order the
micro-batcher uses them for one request: admission (``normalize_request`` +
``estimate_walks``), the result cache, ``build_plan`` (push and start
sampling), ``execute_plans`` (walk kernel, with the plan's ``finalize``
timed inside it), and the HTTP envelope (``QueryResponse.to_dict`` +
``json.dumps``).  Mutations go through ``GraphRegistry.mutate`` with the
cache's invalidation hook wired as the service wires it.

The push layer is timed by a standalone ``hk_push_plus`` / ``forward_push``
call with the plan's parameters, made just before ``build_plan``.  Push is
deterministic, so the standalone call must do exactly the push operations
the plan does; the replay checks that.  Its span is a child of the request
but stands in for the push *inside* the plan: the plan's self time is its
span minus the standalone push, and the request's duration excludes it.

Spans are recorded by this file only (no program code is touched).  The
slice is replayed untraced and traced; the ratio of the two wall times is
the tracing overhead.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from workloads import TOP_K, Mutation, Query, mutation_trigger


class Spans:
    """Spans kept in memory: ``[name, request, parent, start, end]``."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, request, parent, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][4] = time.perf_counter()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per request, each span name's self time (duration minus children)."""
        durations = [end - start for _, _, _, start, end in self.records]
        own = list(durations)
        for index, (_, _, parent, _, _) in enumerate(self.records):
            if parent is not None:
                own[parent] -= durations[index]
        out: dict[int, dict[str, float]] = {}
        for index, (name, request, _, _, _) in enumerate(self.records):
            per = out.setdefault(request, {})
            per[name] = per.get(name, 0.0) + own[index]
            if self.records[index][2] is None:  # a root span: the whole request
                per["@request"] = durations[index]
        return out


class NoSpans:
    """The untraced pass: same calls, nothing recorded."""

    _null = nullcontext()

    def span(self, name: str, request: int):
        return self._null


#: Span name -> the layer (repo module) its self time belongs to.
LAYER_OF_SPAN = {
    "admit": "service",
    "cache": "cache",
    "push": "push",
    "plan": "plan",
    "engine": "engine",
    "finalize": "finalize",
    "serialize": "http",
}
REQUEST_LAYERS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))


@dataclass
class OpSample:
    method: str
    cached: bool
    estimated_walks: int = 0
    walks: int = 0
    steps: int = 0
    push_ops: int = 0
    response_bytes: int = 0


@dataclass
class PassResult:
    wall_s: float
    samples: list[OpSample] = field(default_factory=list)
    spans: Spans | None = None
    problems: list[str] = field(default_factory=list)


def _push_probe(entry, request, counters):
    """The plan's push phase as a standalone call (``None`` if it has none)."""
    from repro.estimators import resolve

    graph = entry.graph
    spec = resolve(request.method)
    if request.method == "tea+":
        from repro.hkpr.hk_push_plus import hk_push_plus

        hkpr, kwargs = spec.split_params(graph, request.params)
        hop_cap = kwargs.get("max_hop") or hkpr.max_hop_tea_plus(graph)
        budget = kwargs.get("push_budget") or hkpr.push_budget_tea_plus(graph)
        weights = entry.poisson_weights(hkpr.t)
        return lambda: hk_push_plus(
            graph, request.seed_node, hkpr.eps_r, hkpr.delta, hop_cap, budget,
            weights, counters=counters,
        )
    if request.method == "fora":
        from repro.hkpr.params import default_delta
        from repro.ppr.fora import walk_count
        from repro.ppr.push import forward_push

        full = spec.with_defaults(request.params)
        delta = full.get("delta", default_delta(graph))
        omega = walk_count(graph, full["eps_r"], delta, full["p_f"])
        r_max = full.get("r_max")
        if r_max is None:  # ForaPlan's cost-balancing default
            balanced = math.sqrt(
                full["eps_r"] ** 2 * delta
                / (max(graph.num_edges, 1) * math.log(2.0 * graph.num_nodes / full["p_f"]))
            )
            r_max = max(min(balanced, 1.0 / omega) if omega > 0 else balanced, 1e-12)
        return lambda: forward_push(
            graph, request.seed_node, alpha=full["alpha"], r_max=r_max, counters=counters,
        )
    return None


def replay_pass(
    base_graph, graph_name: str, steps: list, *, traced: bool, rng_seed: int
) -> PassResult:
    """Replay ``steps`` (``Query`` / ``Mutation``) in process, one thread."""
    from repro.engine import get_backend
    from repro.engine.multi import execute_plans
    from repro.service.cache import ResultCache
    from repro.service.planner import build_plan, estimate_walks, normalize_request
    from repro.service.registry import GraphRegistry
    from repro.service.service import QueryResponse
    from repro.utils.counters import OperationCounters

    registry = GraphRegistry()
    registry.add_graph(graph_name, base_graph)
    cache = ResultCache(1024, group_of=lambda key: str(key[0]))
    registry.add_invalidation_hook(cache.invalidate_group)
    backend = get_backend(None)
    rng = np.random.default_rng(rng_seed)
    spans = Spans() if traced else NoSpans()
    result = PassResult(0.0, spans=spans if traced else None)

    started = time.perf_counter()
    for rid, step in enumerate(steps):
        if isinstance(step, Mutation):
            with spans.span("mutate", rid):
                registry.mutate(graph_name, add=step.add)
            continue
        query: Query = step
        with spans.span("request", rid):
            submitted = time.perf_counter()
            with spans.span("admit", rid):
                entry = registry.get(graph_name)
                request = normalize_request(
                    graph_name, query.method, query.seed_node, query.params,
                    top_k=TOP_K, entry=entry,
                )
                estimated = max(0, estimate_walks(entry, request))
            hit = None
            if request.cache_eligible():
                with spans.span("cache", rid):
                    hit = cache.get(request.cache_key())
            sample = OpSample(query.method, cached=hit is not None)
            if hit is None:
                probe_counters = OperationCounters()
                probe = _push_probe(entry, request, probe_counters)
                if probe is not None:
                    with spans.span("push", rid):
                        probe()
                with spans.span("plan", rid):
                    plan, _ = build_plan(entry, request)
                finalize = plan.finalize

                def timed_finalize(endpoints, _finalize=finalize):
                    with spans.span("finalize", rid):
                        return _finalize(endpoints)

                plan.finalize = timed_finalize
                with spans.span("engine", rid):
                    (answer,) = execute_plans(backend, entry.graph, [plan], rng)
                with spans.span("cache", rid):
                    cache.put(request.cache_key(), answer)
                counters = plan.counters
                sample.estimated_walks = estimated
                sample.walks = counters.random_walks
                sample.steps = counters.walk_steps
                sample.push_ops = probe_counters.push_operations
                if probe is not None and probe_counters.push_operations != counters.push_operations:
                    result.problems.append(
                        f"{query.method} seed {query.seed_node}: standalone push did "
                        f"{probe_counters.push_operations} pushes, the plan "
                        f"{counters.push_operations}"
                    )
            else:
                answer = hit
            with spans.span("serialize", rid):
                response = QueryResponse(
                    request=request, result=answer, cached=hit is not None,
                    latency_seconds=time.perf_counter() - submitted, batch_size=1,
                    entry=entry,
                )
                body = json.dumps(response.to_dict()).encode()
            sample.response_bytes = len(body)
        result.samples.append(sample)
    result.wall_s = time.perf_counter() - started
    return result


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(traced: PassResult, untraced: PassResult) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass, ``name -> (value, unit)``."""
    samples = traced.samples
    selves = traced.spans.self_times()
    query_ids = sorted(rid for rid, per in selves.items() if "admit" in per)
    mutation_ids = sorted(rid for rid, per in selves.items() if "mutate" in per)
    per_query = [selves[rid] for rid in query_ids]
    executed = [(per, sample) for per, sample in zip(per_query, samples) if not sample.cached]

    def ms(per, name):
        return per.get(name, 0.0) * 1000.0

    def method_push(method):
        return [ms(per, "push") for per, sample in executed if sample.method == method]

    def method_ops(method):
        return [sample.push_ops for _, sample in executed if sample.method == method]

    layer_self = {layer: 0.0 for layer in REQUEST_LAYERS}
    request_total = 0.0
    for per in per_query:
        probe = per.get("push", 0.0)
        for name, layer in LAYER_OF_SPAN.items():
            layer_self[layer] += per.get(name, 0.0)
        layer_self["plan"] -= probe  # the probe stands in for the plan's own push
        request_total += per["@request"] - probe

    push_total_s = sum(per.get("push", 0.0) for per, _ in executed)
    push_ops = sum(sample.push_ops for _, sample in executed)
    engine_s = sum(per.get("engine", 0.0) for per, _ in executed)
    walks = sum(sample.walks for _, sample in executed)
    steps = sum(sample.steps for _, sample in executed)
    estimated = sum(sample.estimated_walks for _, sample in executed)
    metrics = {
        "service.admit_ms_p50": (_p50([ms(per, "admit") for per in per_query]), "ms"),
        "service.walk_estimate_ratio": (estimated / max(walks, 1), "ratio"),
        "push.teaplus_ms_p50": (_p50(method_push("tea+")), "ms"),
        "push.fora_ms_p50": (_p50(method_push("fora")), "ms"),
        "push.us_per_op": (push_total_s * 1e6 / push_ops if push_ops else 0.0, "us"),
        "push.teaplus_ops_mean": (_mean(method_ops("tea+")), "count"),
        "push.fora_ops_mean": (_mean(method_ops("fora")), "count"),
        "plan.other_ms_p50": (_p50([ms(per, "plan") - ms(per, "push") for per, _ in executed]), "ms"),
        "engine.kernel_ms_p50": (_p50([ms(per, "engine") for per, _ in executed]), "ms"),
        "engine.walks_mean": (_mean([sample.walks for _, sample in executed]), "count"),
        "engine.steps_per_s": (steps / engine_s if engine_s > 0 else 0.0, "1/s"),
        "finalize.ms_p50": (_p50([ms(per, "finalize") for per, _ in executed]), "ms"),
        "http.serialize_ms_p50": (_p50([ms(per, "serialize") for per in per_query]), "ms"),
        "http.response_kb_mean": (_mean([s.response_bytes for s in samples]) / 1024.0, "KiB"),
        "dynamic.mutate_ms_p50": (_p50([ms(selves[rid], "mutate") for rid in mutation_ids]), "ms"),
        "trace.overhead_ratio": (traced.wall_s / untraced.wall_s, "ratio"),
    }
    for layer in REQUEST_LAYERS:
        metrics[f"self_share.{layer}"] = (layer_self[layer] / request_total, "ratio")
    return metrics


def slice_steps(workload, ops, count: int) -> list:
    """The first ``count`` measured queries, with the edge batches the
    writer posts among them (read-write) or the quiet probe batches after
    them (other workloads)."""
    queries = ops.measured[:count]
    if not workload.writes:
        return list(queries) + list(ops.probe_mutations)
    steps: list = []
    pending = list(enumerate(ops.measured_mutations))
    for done, query in enumerate(queries, start=1):
        steps.append(query)
        while pending and mutation_trigger(workload, pending[0][0]) <= done:
            steps.append(pending.pop(0)[1])
    return steps
