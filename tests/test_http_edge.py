"""Tests for the HTTP edge (``repro.service.http``).

The contracts under test:

* handler threads are reused — sequential requests run on one handler,
  concurrent requests each get their own (no head-of-line blocking), and
  ``server_close()`` leaves no handler thread behind;
* responses are compact JSON whose content is exactly the in-process
  envelope (hit, miss, 429, 404), with the edge's trace id;
* a request the edge cannot parse gets a structured ``400
  invalid-request`` envelope carrying its trace id, never a dropped
  connection.

The raw-socket helper reads each response until the server closes the
connection, so a handler is back on the idle stack before the next
request is sent and the thread counts are exact.
"""

from __future__ import annotations

import json
import socket
import sys
import threading

import pytest

from repro import KMeans, diabetes_like
from repro.obs import trace_id_of
from repro.service import ExplainRequest, ExplanationService, make_server


@pytest.fixture(scope="module")
def dataset():
    return diabetes_like(n_rows=1_500, n_groups=3, seed=7)


@pytest.fixture(scope="module")
def clustering(dataset):
    return KMeans(3).fit(dataset, rng=0)


def make_service(dataset, clustering) -> ExplanationService:
    service = ExplanationService(auto_tenant_budget=1.0)
    service.register_dataset("diabetes", dataset, clustering)
    return service


class _Serving:
    """A bound server running ``serve_forever`` on a background thread."""

    def __init__(self, service):
        self.server = make_server(service, port=0)
        self.port = self.server.server_address[1]
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)


@pytest.fixture()
def serve():
    servers = []

    def start(service) -> _Serving:
        serving = _Serving(service)
        servers.append(serving)
        return serving

    yield start
    for serving in servers:
        serving.close()


def exchange(port: int, raw_request: bytes) -> tuple[int, bytes]:
    """Send one raw request; return (status, body) once the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw_request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head, "the server closed the connection without a response"
    return int(head.split(b" ", 2)[1]), body


def post(port: int, body: bytes, path: str = "/v1/explain") -> tuple[int, bytes]:
    return exchange(
        port,
        f"POST {path} HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body,
    )


def post_json(port: int, body: dict) -> tuple[int, dict]:
    status, raw = post(port, json.dumps(body).encode())
    return status, json.loads(raw)


def handler_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name == "http-handler"}


class _StubService:
    """Answers every explain with 200; optionally holds each at a barrier."""

    def __init__(self, barrier: "threading.Barrier | None" = None):
        self.barrier = barrier

    def explain(self, request) -> dict:
        if self.barrier is not None:
            try:
                self.barrier.wait(timeout=10)
            except threading.BrokenBarrierError:
                return {"status": "error", "code": 503, "error": {}}
        return {"status": "ok", "code": 200, "meta": {}}


REQUEST = {"tenant": "t", "dataset": "d"}


class TestHandlerThreadReuse:
    def test_sequential_requests_share_one_handler(self, serve):
        before = handler_threads()
        serving = serve(_StubService())
        for _ in range(20):
            assert post_json(serving.port, REQUEST)[0] == 200
        assert len(handler_threads() - before) == 1
        serving.close()
        assert handler_threads() - before == set()

    def test_blocked_requests_each_get_their_own_handler(self, serve):
        k = 4
        before = handler_threads()
        service = _StubService()
        serving = serve(service)
        for _ in range(2):
            # Every request blocks until all k are inside explain() at once:
            # a handler serving two of them in turn would break the barrier.
            service.barrier = threading.Barrier(k)
            statuses = []

            def call():
                statuses.append(post_json(serving.port, REQUEST)[0])

            clients = [threading.Thread(target=call) for _ in range(k)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
                assert not client.is_alive()
            assert statuses == [200] * k
            # The second round reuses the first round's k handlers.
            assert len(handler_threads() - before) == k
        serving.close()
        assert handler_threads() - before == set()

    def test_idle_stack_survives_contention(self, serve):
        """More clients than cores hammer the idle stack with a short
        switch interval: a lost or duplicated slot would leak a handler
        past server_close() or start more handlers than clients."""
        clients_n, rounds = 12, 15
        before = handler_threads()
        serving = serve(_StubService())
        statuses = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def call():
                for _ in range(rounds):
                    statuses.append(post_json(serving.port, REQUEST)[0])

            clients = [threading.Thread(target=call) for _ in range(clients_n)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=60)
                assert not client.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert statuses == [200] * (clients_n * rounds)
        assert 1 <= len(handler_threads() - before) <= clients_n
        serving.close()
        assert handler_threads() - before == set()


class TestCompactEnvelopes:
    def test_http_bodies_match_the_in_process_envelopes(
        self, serve, dataset, clustering
    ):
        serving = serve(make_service(dataset, clustering))
        reference = make_service(dataset, clustering)
        requests = [
            {"tenant": "a", "dataset": "diabetes", "seed": 0},  # miss
            {"tenant": "a", "dataset": "diabetes", "seed": 0},  # hit
            {"tenant": "a", "dataset": "nope"},  # 404
            {"tenant": "a", "dataset": "diabetes", "seed": 1},
            {"tenant": "a", "dataset": "diabetes", "seed": 2},
            {"tenant": "a", "dataset": "diabetes", "seed": 3},  # 429
        ]
        seen = []
        for body in requests:
            status, raw = post(serving.port, json.dumps(body).encode())
            served = json.loads(raw)
            # Compact: the bytes are the decoded content re-encoded with no
            # whitespace between tokens.
            assert raw == json.dumps(served, separators=(",", ":")).encode() + b"\n"
            trace_id = trace_id_of(served)
            assert trace_id
            envelope = reference.explain(
                ExplainRequest.from_json({**body, "trace_id": trace_id})
            )
            # The content the pretty-printing edge served before.
            assert served == json.loads(json.dumps(envelope, indent=2))
            assert status == envelope["code"]
            seen.append(served.get("meta", {}).get("cache", status))
        assert seen == ["miss", "hit", 404, "miss", "miss", 429]


class TestMalformedRequests:
    @pytest.fixture()
    def port(self, serve, dataset, clustering):
        return serve(make_service(dataset, clustering)).port

    def assert_structured_400(self, status: int, raw: bytes) -> dict:
        envelope = json.loads(raw)
        assert status == 400 and envelope["code"] == 400
        assert envelope["error"]["reason"] == "invalid-request"
        assert envelope["error"]["trace_id"]
        return envelope

    def test_non_numeric_content_length(self, port):
        status, raw = exchange(
            port, b"POST /v1/explain HTTP/1.0\r\nContent-Length: abc\r\n\r\n"
        )
        envelope = self.assert_structured_400(status, raw)
        assert "Content-Length" in envelope["error"]["message"]

    def test_non_utf8_body(self, port):
        status, raw = post(port, b'{"tenant": "\xff\xfe", "dataset": "diabetes"}')
        self.assert_structured_400(status, raw)

    def test_json_nested_too_deep(self, port):
        status, raw = post(port, b"[" * 100_000)
        self.assert_structured_400(status, raw)
