"""Workload definitions and seeded op lists.

Every op list is a pure function of ``(workload, seed, graph, sizes)``: the
same arguments always give the same list, and the program under test only
ever sees the generated requests.

The measured queries of a workload are a fixed set, drawn once (like the
paper's fixed sets of query seeds); ``--seed`` decides their order, the
warm-up queries and the mutation edges.  A set drawn afresh per ``--seed``
is not steady enough on this power-law graph: the few hub seeds in each
draw set most of a run's work, and with them push-bound throughput moved by
18% across five seeds.

Seed nodes are drawn by *stratified* uniform sampling: the non-isolated
nodes are sorted by degree, cut into as many equal strata as seeds are
needed, and one node is drawn uniformly from each stratum.  Every node is
equally likely to be picked and none twice, and the set covers the degree
range evenly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The graph every workload runs on (the server is started with this spec).
GRAPH_SPEC = "chung-lu,n=100000,seed=11"

#: Ranked entries requested per query (the server's default ``top_k``).
TOP_K = 20

#: Fewest measured queries per run: ``latency_p90_ms`` needs at least ten
#: samples beyond the 90th percentile.
MIN_MEASURED = 100

PUSH_DELTA = 1e-3
WALKS = 100_000


@dataclass(frozen=True)
class Query:
    method: str
    seed_node: int
    params: dict

    def body(self, graph: str) -> dict:
        return {
            "graph": graph,
            "method": self.method,
            "seed_node": self.seed_node,
            "params": self.params,
            "top_k": TOP_K,
        }


@dataclass(frozen=True)
class Mutation:
    """One ``POST /graphs/<name>/edges`` batch of fresh edges."""

    add: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(method, params)`` pairs the queries cycle through, in order.
    methods: tuple[tuple[str, dict], ...]
    #: Measured queries per second of ``--seconds``: the workload's median
    #: throughput on a 2-vCPU guest, so the measured slice lasts about
    #: ``--seconds`` -- except where ``MIN_MEASURED`` asks for more queries.
    rate: float
    warmup: int
    #: Queries replayed in process by the traced per-layer run.
    trace_slice: int
    #: Keep-alive client connections, one thread each (at most the 2 CPUs).
    clients: int = 2
    #: Read-write only: size of the hot seed set, its Zipf exponent, reader
    #: queries per posted edge batch, and edges per batch (see ``READ_WRITE``).
    hot_set: int = 0
    zipf: float = 0.0
    queries_per_mutation: int = 0
    edges_per_mutation: int = 0

    @property
    def writes(self) -> bool:
        return self.queries_per_mutation > 0

    def measured_count(self, seconds: float) -> int:
        return max(MIN_MEASURED, int(round(self.rate * seconds)))


#: The read-write traffic mix, taken from published or in-repo workloads
#: rather than tuned here:
#:
#: * ``hot_set=64``: the hot seeds of ``benchmarks/bench_walk_index.py``
#:   (``NUM_HUBS``), the repository's hot-seed serving benchmark.  Drawn here
#:   by degree stratum, not as the 64 top-degree hubs, so tea+ costs stay
#:   those of the other workloads.
#: * ``zipf=0.99``: the request skew of YCSB's "zipfian" distribution
#:   (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB",
#:   SoCC 2010), the standard skewed key-popularity law of serving benchmarks.
#: * ``queries_per_mutation=7``, ``edges_per_mutation=16``: the interleaved
#:   load of ``benchmarks/bench_dynamic_updates.py`` (4 clients x 40 queries
#:   against 24 batches of ``EDGES_PER_MUTATION=16`` edges: 160 / 24 = 6.7
#:   queries per batch, rounded to 7).
#:
#: Each batch invalidates the graph's cached results, so a query can hit the
#: cache only if the same (method, seed) was asked since the last batch; the
#: mix gives ``cache.hit_ratio`` between 0.06 and 0.10.
READ_WRITE = {"hot_set": 64, "zipf": 0.99, "queries_per_mutation": 7, "edges_per_mutation": 16}


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The push loop and its Theorem-2 check carry most of the server time.
        # delta=1e-3 runs the same early-exit path as the paper's 1/n, at a
        # cost that lets one run hold 100+ queries.  ``MIN_MEASURED`` sets
        # its measured slice: 100 queries at 3.6/s take about 28 s.
        Workload(
            name="push-bound",
            methods=(("tea+", {"delta": PUSH_DELTA}), ("fora", {"delta": PUSH_DELTA})),
            rate=3.6,
            warmup=6,
            trace_slice=12,
        ),
        # Zero pushes: the bypass for push changes, where the walk kernel,
        # finalize, serialisation and HTTP carry the time.  One client: each
        # query's latency is then its own path, with the fixed keep-alive
        # stall in it, and runs spread about a third less than with two
        # (measured alternating the two on a 2-vCPU guest).
        Workload(
            name="walk-bound",
            methods=(
                ("monte-carlo", {"num_walks": WALKS}),
                ("mc-ppr", {"num_walks": WALKS}),
            ),
            rate=8.0,
            warmup=8,
            trace_slice=20,
            clients=1,
        ),
        # The only workload with writes: result-cache hits, per-graph
        # invalidation and DeltaGraph overlay reads happen here alone.
        Workload(
            name="read-write",
            methods=(
                ("monte-carlo", {"num_walks": WALKS}),
                ("tea+", {"delta": PUSH_DELTA}),
            ),
            rate=5.4,
            warmup=10,
            trace_slice=30,
            **READ_WRITE,
        ),
    )
}


@dataclass(frozen=True)
class OpList:
    """The seeded inputs of one run."""

    warmup: tuple[Query, ...]
    measured: tuple[Query, ...]
    #: Read-write: edge batches, one per ``queries_per_mutation`` reader
    #: queries of each phase.  Others: empty.
    warmup_mutations: tuple[Mutation, ...]
    measured_mutations: tuple[Mutation, ...]
    #: Queries sent after the measured phase whose answers are checked
    #: against the exact vector (read-write: on the mutated graph).
    checks: tuple[Query, ...]
    #: Edge batches posted on a quiet server after the measured phase of a
    #: workload without writes, so every workload reports ``mutation_p50_ms``.
    probe_mutations: tuple[Mutation, ...]


#: Edge batches in the quiet mutation probe, edges per batch (the
#: read-write writer's), and the idle time before each post.  The read-write
#: writer posts after its connection has idled through reader queries; a
#: probe post sent right after the previous response instead waits out the
#: client's delayed ACK (43.8 ms against 2.6 ms, measured with gaps from
#: 0.05 to 0.5 s alike), so the probe idles too and times the mutation path,
#: not the ACK timer.
PROBE_BATCHES = 20
PROBE_EDGES = READ_WRITE["edges_per_mutation"]
PROBE_GAP_S = 0.1


#: Seed of the one draw that fixes each workload's measured query set.
SAMPLE_SEED = 0


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    # A stable, platform-independent seed (str hashes are salted per process).
    tag = sum((index + 1) * ord(char) for index, char in enumerate(workload))
    return np.random.default_rng([seed, tag, stream])


def candidate_seeds(degrees: np.ndarray) -> np.ndarray:
    """Non-isolated nodes, sorted by (degree, node id)."""
    nodes = np.flatnonzero(degrees > 0)
    return nodes[np.lexsort((nodes, degrees[nodes]))]


def stratified_seeds(
    candidates: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct nodes, one uniform draw per equal degree stratum."""
    if count > len(candidates):
        raise ValueError(f"need {count} seeds, graph has {len(candidates)}")
    picks = np.array(
        [stratum[rng.integers(len(stratum))] for stratum in np.array_split(candidates, count)],
        dtype=np.int64,
    )
    rng.shuffle(picks)
    return picks


def _interleave(workload: Workload, per_method: list, total: int) -> list[Query]:
    """Queries whose method cycles with position, nodes taken in order."""
    out = []
    for position in range(total):
        index = position % len(workload.methods)
        method, params = workload.methods[index]
        out.append(Query(method, int(per_method[index][position // len(workload.methods)]), params))
    return out


def _uniform_queries(
    workload: Workload, candidates: np.ndarray, warmup: int, measured: int, seed: int
) -> tuple[list[Query], list[Query]]:
    """Each method's measured seeds: the fixed stratified set, seed-ordered.

    Warm-up seeds are drawn per ``seed`` from the nodes outside that set.
    """
    methods = len(workload.methods)
    warm_lists, measured_lists = [], []
    for index in range(methods):
        fixed = stratified_seeds(
            candidates, -(-measured // methods), _rng(workload.name, SAMPLE_SEED, index)
        )
        rng = _rng(workload.name, seed, index)
        measured_lists.append(rng.permutation(fixed))
        rest = np.setdiff1d(candidates, fixed)
        warm_lists.append(rng.choice(rest, -(-warmup // methods), replace=False))
    return _interleave(workload, warm_lists, warmup), _interleave(workload, measured_lists, measured)


def _zipf_weights(workload: Workload) -> np.ndarray:
    weights = np.arange(1, workload.hot_set + 1, dtype=float) ** -workload.zipf
    return weights / weights.sum()


def _zipf_quota(weights: np.ndarray, count: int) -> np.ndarray:
    """Rank counts summing to ``count`` (largest remainder of ``count * w``)."""
    exact = weights * count
    quota = np.floor(exact).astype(int)
    short = count - quota.sum()
    quota[np.argsort(-(exact - quota), kind="stable")[:short]] += 1
    return quota


def _hot_queries(
    workload: Workload, hot: np.ndarray, warmup: int, measured: int, seed: int
) -> tuple[list[Query], list[Query]]:
    """Zipf-skewed queries over the fixed hot set.

    The measured slice asks each (method, hot seed) pair exactly its Zipf
    quota of times, in a ``seed``-dependent order; warm-up queries are
    plain Zipf draws.
    """
    methods = len(workload.methods)
    weights = _zipf_weights(workload)
    rng = _rng(workload.name, seed, 0)
    warm_lists, measured_lists = [], []
    for _ in range(methods):
        warm_lists.append(hot[rng.choice(len(hot), size=-(-warmup // methods), p=weights)])
        quota = _zipf_quota(weights, -(-measured // methods))
        measured_lists.append(rng.permutation(np.repeat(hot, quota)))
    return _interleave(workload, warm_lists, warmup), _interleave(workload, measured_lists, measured)


def fresh_edges(
    graph, batches: int, per_batch: int, rng: np.random.Generator, taken: set[tuple[int, int]]
) -> list[Mutation]:
    """Batches of uniform edges absent from ``graph`` and ``taken`` (updated)."""
    out = []
    for _ in range(batches):
        batch = []
        while len(batch) < per_batch:
            u, v = (int(node) for node in rng.integers(graph.num_nodes, size=2))
            key = (min(u, v), max(u, v))
            if u == v or key in taken or graph.has_edge(u, v):
                continue
            taken.add(key)
            batch.append(key)
        out.append(Mutation(tuple(batch)))
    return out


def build_ops(workload: Workload, seed: int, graph, measured: int) -> OpList:
    """The op list of one run of ``workload`` on ``graph`` (pure)."""
    degrees = np.asarray(graph.degrees)
    candidates = candidate_seeds(degrees)
    taken: set[tuple[int, int]] = set()
    if not workload.writes:
        warm, meas = _uniform_queries(workload, candidates, workload.warmup, measured, seed)
        checks = tuple(_answer_sample(workload, meas))
        probe = fresh_edges(graph, PROBE_BATCHES, PROBE_EDGES, _rng(workload.name, seed, 90), taken)
        return OpList(tuple(warm), tuple(meas), (), (), checks, tuple(probe))

    hot = stratified_seeds(candidates, workload.hot_set, _rng(workload.name, SAMPLE_SEED, 0))
    warm, meas = _hot_queries(workload, hot, workload.warmup, measured, seed)
    per = workload.queries_per_mutation
    mutation_rng = _rng(workload.name, seed, 1)
    warm_mut = fresh_edges(graph, len(warm) // per, workload.edges_per_mutation, mutation_rng, taken)
    meas_mut = fresh_edges(graph, len(meas) // per, workload.edges_per_mutation, mutation_rng, taken)
    # The two hottest seeds under every method, asked on the final graph.
    checks = tuple(
        Query(method, int(node), params)
        for node in hot[:2]
        for method, params in workload.methods
    )
    return OpList(tuple(warm), tuple(meas), tuple(warm_mut), tuple(meas_mut), checks, ())


def _answer_sample(workload: Workload, measured: list[Query]) -> list[Query]:
    """The first two measured queries of each method (checked for accuracy)."""
    sample = []
    for method, _ in workload.methods:
        sample.extend([query for query in measured if query.method == method][:2])
    return sample


def mutation_trigger(workload: Workload, batch: int) -> int:
    """Reader completions after which edge batch ``batch`` of a phase is posted.

    Mid-window, so no batch lands on a phase boundary.
    """
    per = workload.queries_per_mutation
    return batch * per + per // 2
