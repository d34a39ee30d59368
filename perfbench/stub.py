"""Local chat-completions stub for the http-stub workload.

Answers ``POST /seed/<run seed>/chat/completions`` from the synthetic world,
rebuilt from the request body alone: the model name picks the role and the
messages are the prompt.  The run seed sits in the URL path because the
synthetic backend keys its agents' random choices on it.  Every request
takes a fixed service time, and every 50th request since the last reset is
answered with 503 to exercise the client's retry path.

``GET /stats`` returns the counters since the last reset; ``POST /reset``
returns them and starts a new count.  The counters are accepted
connections, requests, injected 503s, other failures, peak concurrent
requests and each request's service time.

Run as ``python3 perfbench/stub.py [--port N]``: it prints the port it
listens on, then serves until its standard input closes, so it never
outlives the process that started it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable

ROLE_OF_MODEL = {"m-base": "base", "m-hyp": "hypothesis_agent", "m-ref": "reflection_agent"}
SERVICE_S = 0.005
FAIL_EVERY = 50
SERVICE_HEADER = "X-Stub-Service-Us"

_PATH_RE = re.compile(r"^/seed/(-?\d+)/chat/completions$")

Answer = Callable[[int, dict], str]


def synthetic_answerer() -> Answer:
    """The answer function: the default synthetic world over the 50/50
    dataset, one backend per run seed."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from vistaopt import (
        GenerationRequest,
        SyntheticBackend,
        SyntheticWorldConfig,
        default_taxonomy,
        make_synthetic_dataset,
    )

    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    world = SyntheticWorldConfig()
    backends: dict[int, SyntheticBackend] = {}
    lock = threading.Lock()

    def answer(seed: int, body: dict) -> str:
        with lock:
            backend = backends.get(seed)
            if backend is None:
                backend = backends[seed] = SyntheticBackend(world, dataset, taxonomy, seed)
        request = GenerationRequest(
            role=ROLE_OF_MODEL[body["model"]],
            messages=tuple((m["role"], m["content"]) for m in body["messages"]),
        )
        return backend.generate(request)

    return answer


class StubState:
    """Counters since the last reset; shared by the handler threads."""

    def __init__(self, answer: Answer):
        self.answer = answer
        self._lock = threading.Lock()
        self._zero()

    def _zero(self) -> None:
        self.connections = 0
        self.requests = 0
        self.injected = 0
        self.failed = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self.service_s: list[float] = []

    def snapshot(self) -> dict:
        with self._lock:
            return self._snapshot()

    def _snapshot(self) -> dict:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "injected": self.injected,
            "failed": self.failed,
            "in_flight_max": self.in_flight_max,
            "service_s": list(self.service_s),
        }

    def reset(self) -> dict:
        with self._lock:
            snap = self._snapshot()
            self._zero()
            return snap

    def connected(self) -> None:
        with self._lock:
            self.connections += 1

    def begin(self) -> int:
        """Count a request and return its number since the last reset."""
        with self._lock:
            self.requests += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
            return self.requests

    def end(self, status: int, service_s: float) -> None:
        with self._lock:
            self.in_flight -= 1
            self.service_s.append(service_s)
            if status == 503:
                self.injected += 1
            elif status != 200:
                self.failed += 1

    def respond(self, number: int, path: str, raw: bytes) -> tuple[int, dict]:
        """Status and JSON body for the ``number``-th request since reset."""
        if number % FAIL_EVERY == 0:
            return 503, {"error": {"message": "injected failure"}}
        match = _PATH_RE.match(path)
        if match is None:
            return 404, {"error": {"message": f"no route {path}"}}
        try:
            text = self.answer(int(match.group(1)), json.loads(raw))
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": {"message": f"bad request: {exc!r}"}}
        return 200, {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so connection reuse is visible

    def setup(self) -> None:
        super().setup()
        self.server.state.connected()

    def log_message(self, format: str, *args) -> None:
        pass

    def _send(self, status: int, payload: dict, service_s: float | None = None) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if service_s is not None:
            self.send_header(SERVICE_HEADER, str(round(service_s * 1e6)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.state.snapshot())
        else:
            self._send(404, {"error": {"message": f"no route {self.path}"}})

    def do_POST(self) -> None:
        start = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        state = self.server.state
        if self.path == "/reset":
            self._send(200, state.reset())
            return
        number = state.begin()
        status, payload = state.respond(number, self.path, raw)
        remaining = SERVICE_S - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)
        service_s = time.perf_counter() - start
        state.end(status, service_s)
        self._send(status, payload, service_s)


def make_server(answer: Answer, port: int = 0) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", port), StubHandler)
    server.daemon_threads = True
    server.state = StubState(answer)
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    server = make_server(synthetic_answerer(), args.port)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
