"""Closed-loop replay of an op list against the running server."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

from server import Client, edges_path
from workloads import Mutation, Query, Workload, mutation_trigger


@dataclass
class Record:
    """One operation as the client saw it."""

    kind: str  # "query" or "mutation"
    op: object
    status: int
    seconds: float
    sent_at: float
    payload: dict | None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.payload is not None


def _send(client: Client, graph: str, op) -> Record:
    if isinstance(op, Query):
        kind, path, body = "query", "/query", op.body(graph)
    else:
        kind, path, body = "mutation", edges_path(graph), {"add": [list(edge) for edge in op.add]}
    sent_at = time.perf_counter()
    status, raw, seconds = client.call("POST", path, body)
    payload = None
    if status == 200:
        try:
            payload = json.loads(raw)
        except ValueError:
            status = -1
    return Record(kind, op, status, seconds, sent_at, payload)


@dataclass
class Phase:
    records: list[Record]
    wall_s: float

    def queries(self) -> list[Record]:
        return [record for record in self.records if record.kind == "query"]

    def mutations(self) -> list[Record]:
        return [record for record in self.records if record.kind == "mutation"]


def run_phase(
    clients: list[Client],
    graph: str,
    workload: Workload,
    queries: tuple[Query, ...],
    mutations: tuple[Mutation, ...],
) -> Phase:
    """Replay one slice to completion, closed loop.

    Without writes, every client thread takes the next query from the shared
    list as soon as its previous one completes (one thread per client).  With writes, the first
    client is the reader and sends the queries in order; the second is the
    writer and posts edge batch ``j`` once the reader has completed
    :func:`~workloads.mutation_trigger` queries of the phase, and the reader
    sends its next query only after that post has completed.  Every query
    therefore runs at a known epoch, and which queries hit the result cache
    is a function of the op list alone.
    """
    records: list[Record] = []
    lock = threading.Condition()
    state = {"next": 0, "done": 0, "posted": 0}
    triggers = [mutation_trigger(workload, batch) for batch in range(len(mutations))]
    errors: list[BaseException] = []

    def shared_loop(client: Client) -> None:
        while True:
            with lock:
                index = state["next"]
                if index >= len(queries):
                    return
                state["next"] = index + 1
            record = _send(client, graph, queries[index])
            with lock:
                records.append(record)

    def reader(client: Client) -> None:
        for query in queries:
            record = _send(client, graph, query)
            with lock:
                records.append(record)
                state["done"] += 1
                lock.notify_all()
                due = sum(1 for trigger in triggers if trigger <= state["done"])
                lock.wait_for(lambda: state["posted"] >= due)

    def writer(client: Client) -> None:
        for trigger, mutation in zip(triggers, mutations):
            with lock:
                lock.wait_for(lambda: state["done"] >= trigger)
            record = _send(client, graph, mutation)
            with lock:
                records.append(record)
                state["posted"] += 1
                lock.notify_all()

    def guarded(target, client):
        def body():
            try:
                target(client)
            except BaseException as error:  # noqa: BLE001 - re-raised after join
                errors.append(error)
                with lock:  # release the other thread of a read-write pair
                    state["done"], state["posted"] = len(queries), len(mutations)
                    lock.notify_all()
        return body

    if workload.writes:
        targets = [(reader, clients[0]), (writer, clients[1])]
    else:
        targets = [(shared_loop, client) for client in clients]
    threads = [threading.Thread(target=guarded(target, client)) for target, client in targets]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return Phase(records, wall)


def run_sequential(client: Client, graph: str, ops, gap_s: float = 0.0) -> list[Record]:
    """Send ``ops`` one after another on one connection (quiet server),
    with the connection idle for ``gap_s`` seconds before each."""
    records = []
    for op in ops:
        time.sleep(gap_s)
        records.append(_send(client, graph, op))
    return records
