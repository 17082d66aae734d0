"""Answer accuracy, cluster quality and instrument cross-checks."""

from __future__ import annotations

import math

import numpy as np

#: Failure probability behind every bound checked (the paper's default).
P_F = 1e-6
EPS_R = 0.5
#: Heat constant and teleport probability the workloads use (the defaults).
HEAT_T = 5.0
PPR_ALPHA = 0.15

PPR_METHODS = ("fora", "mc-ppr")


def check_delta(method: str, params: dict, num_nodes: int) -> float:
    """The delta of the (d, eps_r, delta) bound an answer must meet.

    Push methods carry their own ``delta``.  Plain Monte-Carlo with a fixed
    ``num_walks`` meets the bound for the delta at which that many walks
    is the Section-3 walk count ``2(1+eps_r/3) ln(n/p_f) / (eps_r^2 delta)``.
    """
    if "delta" in params:
        return float(params["delta"])
    walks = params["num_walks"]
    return 2.0 * (1.0 + EPS_R / 3.0) * math.log(num_nodes / P_F) / (EPS_R**2 * walks)


def exact_vector(graph, method: str, seed_node: int) -> np.ndarray:
    """The dense exact HKPR or PPR vector of ``seed_node`` on ``graph``."""
    if method in PPR_METHODS:
        from repro.ppr.exact import exact_ppr

        return exact_ppr(graph, seed_node, alpha=PPR_ALPHA).to_dense(graph)
    from repro.hkpr.exact import exact_hkpr_dense

    return exact_hkpr_dense(graph, seed_node, HEAT_T)


def bound_violations(top, exact: np.ndarray, degrees: np.ndarray, delta: float) -> list[str]:
    """Entries of a returned ranking outside the (d, eps_r, delta) bound.

    ``top`` is the response's ``[[node, value], ...]``.  For a node whose
    exact normalized value ``rho/d`` exceeds delta the normalized error must
    be at most ``eps_r * rho/d``; for the rest at most ``eps_r * delta``.
    (FORA's bound on raw PPR implies this degree-normalized one.)
    """
    problems = []
    for node, value in top:
        degree = float(degrees[node])
        if degree == 0:
            continue
        truth = exact[node] / degree
        error = abs(value / degree - truth)
        limit = EPS_R * truth if truth > delta else EPS_R * delta
        if error > limit * (1 + 1e-9):
            problems.append(
                f"node {node}: |{value / degree:.3e} - {truth:.3e}| > {limit:.3e}"
            )
    return problems


def sweep_conductance(graph, ranking, total_volume: int) -> float:
    """Best conductance over the prefixes of ``ranking`` (a sweep cut)."""
    members: set[int] = set()
    volume = cut = 0
    best = math.inf
    for node in ranking:
        neighbours = graph.neighbors(node)
        inside = sum(1 for other in neighbours if int(other) in members)
        members.add(int(node))
        volume += len(neighbours)
        cut += len(neighbours) - 2 * inside
        denominator = min(volume, total_volume - volume)
        if denominator > 0:
            best = min(best, cut / denominator)
    return best


def cross_check(before, after, phase) -> list[str]:
    """Measured-phase deltas of the server's instruments against the client.

    ``before`` and ``after`` are :class:`server.Reading`\\ s taken with no
    op in flight; ``phase`` is the measured :class:`replay.Phase`.
    """
    queries = phase.queries()
    answered = [record for record in queries if record.ok]
    cached = sum(1 for record in answered if record.payload.get("cached"))
    rejected = sum(1 for record in queries if record.status == 429)
    timeouts = sum(1 for record in queries if record.status == 504)
    mutations = [record for record in phase.mutations() if record.ok]
    added = sum(len(record.op.add) for record in mutations)

    def delta(read) -> float:
        return read(after) - read(before)

    pairs = [
        ("queries_total{ok,cached}", delta(lambda r: r.queries("ok") + r.queries("cached")), len(answered)),
        ("queries_total{cached}", delta(lambda r: r.queries("cached")), cached),
        ("/stats cache_hits_total", delta(lambda r: r.stats["cache_hits_total"]), cached),
        ("result_cache_hits_total", delta(lambda r: r.cache_hits()), cached),
        ("queries_total{rejected}", delta(lambda r: r.queries("rejected")), rejected),
        ("/stats rejected_total", delta(lambda r: r.stats["rejected_total"]), rejected),
        ("queries_total{timeout}", delta(lambda r: r.queries("timeout")), timeouts),
        ("/stats timeouts_total", delta(lambda r: r.stats["timeouts_total"]), timeouts),
        ("/stats epoch", delta(lambda r: r.epoch()), len(mutations)),
        ("graph_edges", delta(lambda r: r.graph_edges()), added),
    ]
    return [
        f"{name}: server delta {server:g} != client count {client}"
        for name, server, client in pairs
        if server != client
    ]
