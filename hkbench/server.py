"""The shipped server as a child process, and a keep-alive JSON client."""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import quote

#: How long a starting server may take to answer ``/healthz``.
START_TIMEOUT_S = 60.0
#: Per-request socket timeout (the server's own backstop is 60 s).
REQUEST_TIMEOUT_S = 120.0


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    # PR_SET_PDEATHSIG: the server gets SIGTERM if the benchmark dies first.
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``python -m repro.cli serve --generate <spec>`` with default flags.

    Only ``--port`` is set (to a free port), so runs never collide on the
    default one.
    """

    def __init__(self, root: Path, graph_spec: str) -> None:
        self.port = _free_port()
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--generate", graph_spec,
             "--port", str(self.port)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_die_with_parent if sys.platform.startswith("linux") else None,
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        #: Spawn to the first 200 on ``/healthz``.
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    if response.status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy within {START_TIMEOUT_S:g} s")

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the server process."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Client:
    """One keep-alive ``http.client`` connection (one per replay thread)."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str, body: dict | None = None):
        """``(status, raw body, seconds)``; seconds run from send to body read.

        A connection error is status 0; the connection is then rebuilt.
        """
        data = None if body is None else json.dumps(body)
        headers = {} if data is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        try:
            self._conn.request(method, path, data, headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            elapsed = time.perf_counter() - started
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S
            )
            return 0, b"", elapsed
        return response.status, raw, time.perf_counter() - started

    def get_json(self, path: str) -> dict:
        status, raw, _ = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return json.loads(raw)

    def get_text(self, path: str) -> str:
        status, raw, _ = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return raw.decode()

    def close(self) -> None:
        self._conn.close()


def edges_path(graph: str) -> str:
    return f"/graphs/{quote(graph, safe='')}/edges"


_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_metrics(text: str) -> list[tuple[str, dict, float]]:
    """Samples of a Prometheus text exposition as ``(name, labels, value)``."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = dict(_LABEL.findall(match.group(2) or ""))
        samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def metric_sum(samples, name: str, **labels) -> float:
    """Sum of ``name`` over every sample whose labels include ``labels``."""
    return sum(
        value
        for sample_name, sample_labels, value in samples
        if sample_name == name
        and all(sample_labels.get(key) == want for key, want in labels.items())
    )


class Reading:
    """The server's own instruments at one quiet moment."""

    def __init__(self, client: Client, graph: str) -> None:
        self.metrics = parse_metrics(client.get_text("/metrics"))
        self.stats = client.get_json("/stats")
        self.traces = client.get_json("/trace/recent?n=100000")["traces"]
        self.graph = graph

    def queries(self, outcome: str) -> float:
        return metric_sum(self.metrics, "queries_total", outcome=outcome)

    def cache_hits(self) -> float:
        return metric_sum(self.metrics, "result_cache_hits_total")

    def graph_edges(self) -> float:
        return metric_sum(self.metrics, "graph_edges", graph=self.graph)

    def epoch(self) -> int:
        return int(self.stats["graph_storage"][self.graph]["epoch"])

    def delta_edges(self) -> int:
        return int(self.stats["graph_storage"][self.graph]["delta_edges"])

    def last_trace_id(self) -> int:
        return max((trace["trace_id"] for trace in self.traces), default=0)
