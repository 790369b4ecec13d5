"""HTTP front: routes, status mapping, client retry, restore portability,
connection reuse, request framing and the input contract."""

import itertools
import json
import socket
import sys
import threading
import time
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.serve import (
    Backpressure,
    ServeClient,
    ServeError,
    ServeServer,
    StreamCluster,
)


@pytest.fixture()
def served():
    with ServeServer(StreamCluster(num_shards=2)) as server:
        with ServeClient(server.address) as client:
            yield client, server


def wave(n=700, seed=0, at=520, width=8):
    rng = np.random.default_rng(seed)
    values = np.sin(2 * np.pi * np.arange(n) / 80) + 0.05 * rng.standard_normal(n)
    values[at : at + width] += 8.0
    return values


class TestRoutes:
    def test_health(self, served):
        client, _ = served
        health = client.health()
        assert health["ok"] is True
        assert health["uptime_seconds"] >= 0
        assert health["shards"] == 2
        assert set(health["queue_depths"]) == {"shard-0", "shard-1"}
        assert all(depth >= 0 for depth in health["queue_depths"].values())

    def test_create_append_scores_stats(self, served):
        client, _ = served
        created = client.create_stream("acme", "s1", "diff", np.arange(40.0))
        assert created["train_len"] == 40
        client.append("acme", "s1", np.arange(25.0))
        out = client.scores("acme", "s1")
        assert out["total"] == 25 and len(out["scores"]) == 25
        paged = client.scores("acme", "s1", start=20)
        assert paged["start"] == 20 and len(paged["scores"]) == 5
        stats = client.stream_stats("acme", "s1")
        assert stats["points_seen"] == 65
        assert stats["detector"] == "diff"

    def test_unknown_stream_is_404(self, served):
        client, _ = served
        with pytest.raises(ServeError) as caught:
            client.scores("acme", "ghost")
        assert caught.value.status == 404

    def test_unknown_route_is_404(self, served):
        client, _ = served
        with pytest.raises(ServeError) as caught:
            client.request("GET", "/v2/nothing")
        assert caught.value.status == 404

    def test_bad_payloads_are_400(self, served):
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        with pytest.raises(ServeError) as caught:
            client.request(
                "POST", "/v1/streams/acme/s1/append", {"values": []}
            )
        assert caught.value.status == 400
        with pytest.raises(ServeError) as caught:
            client.request("POST", "/v1/streams", {"tenant": "only"})
        assert caught.value.status == 400
        with pytest.raises(ServeError) as caught:
            client.create_stream("acme", "s2", "warp-drive", [])
        assert caught.value.status == 400

    def test_metrics_endpoint_shape(self, served):
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(30.0))
        client.append("acme", "s1", np.arange(15.0))
        client.scores("acme", "s1")
        payload = client.metrics()
        assert payload["totals"]["points_ingested"] == 15
        assert payload["totals"]["scores_emitted"] == 15
        assert {row["tenant"] for row in payload["tenants"]} == {"acme"}
        assert set(payload["queue_depths"]) == {"shard-0", "shard-1"}


class TestBackpressureMapping:
    def test_client_retries_through_429(self, served):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        calls = {"n": 0}
        original = server.cluster.append

        def flaky(tenant, stream, values):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise Backpressure("shard-0", 0.01)
            return original(tenant, stream, values)

        server.cluster.append = flaky
        result = client.append("acme", "s1", [1.0, 2.0])
        assert result["queued"] == 2
        assert calls["n"] == 3  # two 429s absorbed by the retry loop

    def test_429_carries_retry_after_hint(self, served):
        _, server = served

        def full(tenant, stream, values):
            raise Backpressure("shard-0", 0.25)

        server.cluster.append = full
        with ServeClient(server.address, max_retries=1) as impatient:
            with pytest.raises(Backpressure) as caught:
                impatient.append("acme", "s1", [1.0])
        assert caught.value.retry_after == pytest.approx(0.25, abs=0.01)


class TestRestoreOverHttp:
    def test_snapshot_restores_into_another_server(self):
        # the snapshot payload is a portable JSON object: capture over
        # HTTP on one server, POST it to a different server, and the
        # continuation scores must match the uninterrupted stream's
        values = wave(seed=5)
        with ServeServer(StreamCluster(num_shards=2)) as origin, ServeClient(
            origin.address
        ) as a:
            a.create_stream("acme", "s1", "moving_zscore(k=30)", values[:250])
            for start in range(250, 460, 30):
                a.append("acme", "s1", values[start : start + 30])
            snap = a.snapshot("acme", "s1")
            cut = snap["scores_total"]
            for start in range(460, 700, 30):
                a.append("acme", "s1", values[start : start + 30])
            original = a.scores("acme", "s1", start=cut)["scores"]

            with ServeServer(
                StreamCluster(num_shards=1)
            ) as target, ServeClient(target.address) as b:
                restored = b.restore(snap)
                assert restored["points_seen"] == snap["points_seen"]
                for start in range(460, 700, 30):
                    b.append("acme", "s1", values[start : start + 30])
                replayed = b.scores("acme", "s1", start=cut)["scores"]
                assert b.metrics()["totals"]["restores"] == 1
        assert replayed == original

    def test_restore_into_occupied_name_is_400(self, served):
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(30.0))
        snap = client.snapshot("acme", "s1")
        with pytest.raises(ServeError) as caught:
            client.restore(snap)
        assert caught.value.status == 400


def counter(server, name):
    return server.cluster.registry.counter(name).value


def raw_exchange(server, data: bytes, *, wait=1.0):
    """Send ``data`` on a new socket; the bytes received and whether the
    server closed the connection (False: ``wait`` passed in silence)."""
    split = urlsplit(server.address)
    with socket.create_connection(
        (split.hostname, split.port), timeout=wait
    ) as sock:
        sock.sendall(data)
        received = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except TimeoutError:
                return received, False
            if not chunk:
                return received, True
            received += chunk


def responses(data: bytes):
    """``(status, headers, body)`` for every response in a byte stream."""
    parsed = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, value in (line.split(":", 1) for line in lines[1:])
        }
        length = int(headers.get("content-length", 0))
        parsed.append((int(lines[0].split()[1]), headers, rest[:length]))
        data = rest[length:]
    return parsed


def post(path: str, body: bytes, *, length=None) -> bytes:
    size = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {size}\r\n\r\n"
    ).encode() + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
LAST_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"


class TestConnectionReuse:
    def test_one_thread_opens_one_connection(self, served):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        for _ in range(10):
            client.append("acme", "s1", np.arange(5.0))
        assert client.scores("acme", "s1")["total"] == 50
        assert counter(server, "serve_http_connections_total") == 1
        assert counter(server, "serve_http_requests_total") == 12
        client.close()  # the next request opens a new connection
        client.health()
        assert counter(server, "serve_http_connections_total") == 2

    def test_each_thread_holds_its_own_connection(self, served):
        # a shared client under thread churn: interleaved use of one
        # connection would garble responses, a lost count would show
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        errors = []

        def work():
            try:
                for _ in range(10):
                    client.append("acme", "s1", [1.0, 2.0])
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert client.scores("acme", "s1")["total"] == 160
        # the main thread's connection plus one per worker thread
        assert counter(server, "serve_http_connections_total") == 9
        assert counter(server, "serve_http_requests_total") == 82

    def test_counters_are_described(self, served):
        client, _ = served
        text = client.metrics_text()
        assert "# HELP serve_http_connections_total " in text
        assert "# HELP serve_http_requests_total " in text
        assert "serve_http_requests_total 1" in text


class _Peer:
    """A scripted TCP peer: connection ``i`` answers ``script[i]`` GETs
    (0 past the script's end), then closes without a response byte."""

    def __init__(self, script) -> None:
        self.script = list(script)
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        # stop listening after three connections, so a client that
        # retries without bound fails on a refused connect, not a hang
        with self.listener:
            while self.accepted < 3:
                try:
                    conn, _ = self.listener.accept()
                except OSError:
                    return
                self._answer(conn)

    def _answer(self, conn) -> None:
        answers = (
            self.script[self.accepted]
            if self.accepted < len(self.script)
            else 0
        )
        self.accepted += 1
        with conn:
            while conn.recv(65536) and answers:
                answers -= 1
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
                )

    def close(self) -> None:
        try:
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        except OSError:
            pass  # already closed after its last connection
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture()
def peer_for():
    peers = []

    def make(script):
        peers.append(_Peer(script))
        return peers[-1]

    yield make
    for peer in peers:
        peer.close()


class TestReopenOnce:
    def test_failure_on_a_new_connection_is_not_retried(self, peer_for):
        peer = peer_for([])
        with ServeClient(peer.address, timeout=2.0) as client:
            with pytest.raises(OSError):
                client.health()
        assert peer.accepted == 1  # never sent twice

    def test_reused_connection_is_reopened_once(self, peer_for):
        peer = peer_for([1, 1])
        with ServeClient(peer.address, timeout=2.0) as client:
            assert client.health() == {}
            # the peer dropped the idle connection: reopened transparently
            assert client.health() == {}
        assert peer.accepted == 2

    def test_reopened_connection_failing_raises(self, peer_for):
        peer = peer_for([1])
        with ServeClient(peer.address, timeout=2.0) as client:
            client.health()
            with pytest.raises(OSError):
                client.health()
        assert peer.accepted == 2

    def test_reopen_reaches_a_restarted_server(self):
        first = ServeServer(StreamCluster(num_shards=1)).start()
        port = urlsplit(first.address).port
        with ServeClient(first.address) as client:
            assert client.health()["ok"] is True
            first.close()
            with ServeServer(StreamCluster(num_shards=1), port=port) as second:
                assert client.health()["ok"] is True
                assert counter(second, "serve_http_connections_total") == 1


class TestShutdown:
    def test_closed_server_fails_a_kept_alive_client_fast(self):
        server = ServeServer(StreamCluster(num_shards=1)).start()
        with ServeClient(server.address, timeout=5.0) as client:
            client.create_stream("acme", "s1", "diff", np.arange(20.0))
            assert client.health()["ok"] is True
            server.close()
            for call in (client.health, lambda: client.scores("acme", "s1")):
                started = time.monotonic()
                with pytest.raises(OSError):
                    call()
                assert time.monotonic() - started < 1.0


class TestFraming:
    def test_negative_content_length_is_400_within_1s(self, served):
        _, server = served
        started = time.monotonic()
        data, closed = raw_exchange(
            server, post("/v1/streams", b"{}", length=-1)
        )
        assert time.monotonic() - started < 1.0
        [(status, headers, body)] = responses(data)
        assert status == 400 and closed
        assert headers["connection"] == "close"
        assert "Content-Length" in json.loads(body)["error"]

    def test_non_integer_length_leftover_is_never_a_request(self, served):
        # the body is a whole request: parsed as the next request line,
        # it would answer a second time on the same connection
        _, server = served
        data, closed = raw_exchange(
            server, post("/v1/streams", HEALTHZ, length="abc")
        )
        assert [status for status, _, _ in responses(data)] == [400]
        assert closed

    def test_conflicting_lengths_are_400(self, served):
        _, server = served
        data, closed = raw_exchange(
            server,
            b"POST /v1/streams HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n"
            b"Content-Length: 3\r\n\r\n{}",
        )
        assert [status for status, _, _ in responses(data)] == [400]
        assert closed

    def test_oversized_length_is_413_before_reading(self, served):
        _, server = served
        data, closed = raw_exchange(
            server, post("/v1/streams", b"", length=64 * 1024 * 1024 + 1)
        )
        assert [status for status, _, _ in responses(data)] == [413]
        assert closed

    def test_chunked_body_is_411(self, served):
        _, server = served
        data, closed = raw_exchange(
            server,
            b"POST /v1/streams HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        )
        assert [status for status, _, _ in responses(data)] == [411]
        assert closed

    @pytest.mark.parametrize(
        "path, status",
        [("/v2/nothing", 404), ("/v1/streams/acme/s1/snapshot", 200)],
        ids=["unknown-route", "snapshot"],
    )
    def test_body_a_route_ignores_is_drained(self, served, path, status):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        data, closed = raw_exchange(server, post(path, HEALTHZ) + LAST_HEALTHZ)
        # exactly two answers: the route's, then the real /healthz
        assert [s for s, _, _ in responses(data)] == [status, 200]
        assert closed

    def test_expect_100_continue_is_answered_before_the_body(self, served):
        _, server = served
        split = urlsplit(server.address)
        body = json.dumps(
            {"tenant": "acme", "stream": "s9", "detector": "diff"}
        ).encode()
        with socket.create_connection(
            (split.hostname, split.port), timeout=1.0
        ) as sock:
            sock.sendall(
                b"POST /v1/streams HTTP/1.1\r\nHost: t\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            assert sock.recv(65536).startswith(b"HTTP/1.1 201")


class TestInputContract:
    """Bad requests get a 4xx with a JSON ``error``, and the same client
    keeps working after each, on the same connection or a reopened one."""

    @pytest.mark.parametrize(
        "method, path, body, status",
        [
            ("POST", "/v1/streams/acme/s1/append", b'{"values": [1, 2', 400),
            ("POST", "/v1/streams/acme/s1/append", b"[1.0, 2.0]", 400),
            ("POST", "/v1/streams/acme/s1/append", b'"values"', 400),
            ("POST", "/v1/streams/acme/s1/append", b'{"values": []}', 400),
            ("POST", "/v1/streams/acme/s1/append", b"{}", 400),
            ("POST", "/v1/streams/acme/s1/append", b'{"values": 3}', 400),
            ("POST", "/v1/streams/acme/s1/append", b'{"values": ["a"]}', 400),
            ("POST", "/v1/streams/acme/s1/append", b'{"values": [null]}', 400),
            ("POST", "/v1/streams/acme/s1/append", b'{"values": [true]}', 400),
            (
                "POST",
                "/v1/streams/acme/s1/append",
                b'{"values": [[1.0, 2.0], [3.0, 4.0]]}',
                400,
            ),
            ("POST", "/v1/streams/acme/s1/append", b'{"values": [[1], 2]}', 400),
            ("POST", "/v1/streams", b"\xff\xfe", 400),
            ("POST", "/v1/streams/acme/ghost/append", b'{"values": [1]}', 404),
            ("POST", "/v1/streams/nobody/s1/append", b'{"values": [1]}', 404),
            ("GET", "/v1/streams/nobody/s1/scores", None, 404),
            ("GET", "/v1/streams/acme/ghost", None, 404),
            ("POST", "/v1/streams/acme/ghost/snapshot", None, 404),
        ],
        ids=[
            "malformed-json",
            "array-body",
            "string-body",
            "empty-values",
            "missing-values",
            "scalar-values",
            "non-numeric-values",
            "null-values",
            "boolean-values",
            "nested-values",
            "ragged-values",
            "not-utf8",
            "unknown-stream-append",
            "unknown-tenant-append",
            "unknown-tenant-scores",
            "unknown-stream-stats",
            "unknown-stream-snapshot",
        ],
    )
    def test_rejected_then_client_still_works(
        self, served, method, path, body, status
    ):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        client.append("acme", "s1", [1.0, 2.0, 3.0])
        got, _, data = client._exchange(method, path, body)
        assert got == status
        assert isinstance(json.loads(data)["error"], str)
        # nothing was ingested, and the next request succeeds
        assert client.scores("acme", "s1")["total"] == 3
        assert counter(server, "serve_http_connections_total") == 1

    @pytest.mark.parametrize(
        "train",
        [None, 3.0, [[1.0, 2.0], [3.0, 4.0]]],
        ids=["null-train", "scalar-train", "nested-train"],
    )
    def test_malformed_train_is_400_and_its_shard_keeps_scoring(
        self, served, train
    ):
        client, server = served
        body = {"tenant": "acme", "stream": "bad", "detector": "diff"}
        status, _, data = client._exchange(
            "POST", "/v1/streams", json.dumps({**body, "train": train}).encode()
        )
        assert status == 400
        assert "train" in json.loads(data)["error"]
        # never created, so no append can reach the shard worker with it
        with pytest.raises(ServeError) as caught:
            client.append("acme", "bad", [1.0])
        assert caught.value.status == 404
        ring = server.cluster.ring
        neighbour = next(
            tenant
            for tenant in (f"t{i}" for i in itertools.count())
            if ring.route(tenant) == ring.route("acme")
        )
        client.create_stream(neighbour, "s1", "diff", np.arange(20.0))
        client.append(neighbour, "s1", [1.0, 2.0])
        assert client.scores(neighbour, "s1")["total"] == 2


def stop_acme_worker(cluster):
    cluster.worker_for("acme").close()


def break_scores(cluster):
    def scores(tenant, stream, *, start=0):
        raise ZeroDivisionError("injected")

    cluster.scores = scores


class TestServerErrors:
    """A route that fails inside the server is answered, never dropped."""

    @pytest.mark.parametrize(
        "fault, status",
        [(stop_acme_worker, 503), (break_scores, 500)],
        ids=["stopped-worker", "unmapped-error"],
    )
    def test_answered_on_the_same_connection(self, served, fault, status):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        fault(server.cluster)
        requests = counter(server, "serve_http_requests_total")
        with pytest.raises(ServeError) as caught:
            client.scores("acme", "s1")
        assert caught.value.status == status
        # sent once, answered, and the kept-alive connection still open
        assert counter(server, "serve_http_requests_total") == requests + 1
        assert counter(server, "serve_http_connections_total") == 1
        assert client.health()["ok"] is True
