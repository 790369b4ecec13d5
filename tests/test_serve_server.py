"""HTTP front: routes, status mapping, client retry, restore portability,
connection reuse, request framing, the HTTP/1.1 codec's refusals and the
input contract."""

import base64
import itertools
import json
import socket
import sys
import threading
import time
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.serve import (
    Backpressure,
    ServeClient,
    ServeError,
    ServeServer,
    StreamCluster,
)
from repro.stream import replay

from test_serve_shard import (
    SERVED_DETECTORS,
    kill_worker,
    relabelled,
    spiked,
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

    @pytest.mark.parametrize("detector", SERVED_DETECTORS)
    def test_served_scores_match_local_replay(self, served, detector):
        # every score survives the JSON round trip: the scores read
        # over HTTP equal a local left-to-right replay of the detector
        client, _ = served
        series = spiked(seed=3)
        trace = replay(series, detector, batch_size=64)
        client.create_stream("acme", "s1", detector, series.train)
        for start in range(250, 900, 64):
            client.append("acme", "s1", series.values[start : start + 64])
        served_scores = client.scores("acme", "s1")["scores"]
        np.testing.assert_array_equal(
            np.where(np.isfinite(served_scores), served_scores, -np.inf),
            trace.scores[250:],
        )


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

    @pytest.mark.parametrize(
        "field, value", [("state", 5), ("scores_total", -7)]
    )
    def test_restore_payload_contract_is_400(self, served, field, value):
        # these were a 500 with a server traceback and a 201 whose later
        # score reads were misnumbered
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(30.0))
        snap = client.snapshot("acme", "s1")
        snap.update({"stream": "acme/s2", field: value})
        with pytest.raises(ServeError) as caught:
            client.restore(snap)
        assert caught.value.status == 400
        assert field in str(caught.value)

    @pytest.mark.parametrize(
        "held, label",
        [
            ("diff", "streaming_zscore(k=48)"),
            ("moving_zscore(k=25)", "moving_zscore(k=50)"),
            ("streaming_zscore(k=48)", "streaming_zscore(k=40)"),
        ],
    )
    def test_restore_label_for_another_detector_is_400(
        self, served, held, label
    ):
        # was a 201: the stream reported the label and scored as the blob
        client, _ = served
        client.create_stream("acme", "s1", held, wave()[:120])
        snap = client.snapshot("acme", "s1")
        snap.update({"stream": "acme/s2", "detector": label})
        with pytest.raises(ServeError) as caught:
            client.restore(snap)
        assert caught.value.status == 400
        assert "names another detector" in str(caught.value)
        with pytest.raises(ServeError) as missing:
            client.scores("acme", "s2")
        assert missing.value.status == 404


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


class _Answerer:
    """A scripted TCP peer: the first request of each connection gets
    ``response``; then the peer waits for the client to close
    (``hold``) or closes the connection itself."""

    def __init__(self, response: bytes, *, hold: bool) -> None:
        self.response = response
        self.hold = hold
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        with self.listener:
            while True:
                try:
                    conn, _ = self.listener.accept()
                except OSError:
                    return
                self.accepted += 1
                with conn:
                    if conn.recv(65536):
                        conn.sendall(self.response)
                    while self.hold and conn.recv(65536):
                        pass  # a reused connection is never answered

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture()
def answerer():
    peers = []

    def make(response, *, hold=False):
        peers.append(_Answerer(response, hold=hold))
        return peers[-1]

    yield make
    for peer in peers:
        peer.close()


class TestClientFraming:
    """The client reads a response with the same head reader as the
    server; an answer it cannot frame is a ConnectionError."""

    def test_connection_close_answer_closes_the_connection(self, answerer):
        # the peer keeps the connection open: a client that reused it
        # would wait for an answer that never comes
        peer = answerer(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
            b"Connection: close\r\n\r\n{}",
            hold=True,
        )
        with ServeClient(peer.address, timeout=1.0) as client:
            assert client.health() == {}
            assert client.health() == {}
        assert peer.accepted == 2

    @pytest.mark.parametrize(
        "response, message",
        [
            (b"HTTP/1.1 2OO OK\r\nContent-Length: 2\r\n\r\n{}", "status line"),
            (b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}", "status line"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}", "cut short"),
            (b"HTTP/1.1 200 OK\r\n\r\n{}", "Content-Length"),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                b"Content-Length: 3\r\n\r\n{}",
                "Content-Length",
            ),
        ],
        ids=[
            "malformed-status-line",
            "not-http",
            "short-body",
            "no-length",
            "conflicting-lengths",
        ],
    )
    def test_unframable_answer_is_a_connection_error(
        self, answerer, response, message
    ):
        peer = answerer(response)
        with ServeClient(peer.address, timeout=1.0) as client:
            with pytest.raises(ConnectionError, match=message):
                client.health()
        assert peer.accepted == 1  # a new connection is never retried


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


def refusal(server, data: bytes) -> int:
    """The status of the one answer to ``data``, checked as a refusal:
    a JSON ``error``, ``Connection: close``, the connection closed, and
    the server still answering on a new connection."""
    received, closed = raw_exchange(server, data)
    [(status, headers, body)] = responses(received)
    assert closed
    assert headers["connection"] == "close"
    assert isinstance(json.loads(body)["error"], str)
    [(healthy, _, _)] = responses(raw_exchange(server, LAST_HEALTHZ)[0])
    assert healthy == 200
    return status


def get(version=b"HTTP/1.1", *lines: bytes) -> bytes:
    return b"GET /healthz " + version + b"\r\n" + b"".join(lines) + b"\r\n"


class TestHeadRefusals:
    """Heads the codec cannot trust: one JSON refusal, then close."""

    def test_request_line_over_64k_is_414(self, served):
        _, server = served
        data = b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\nHost: t\r\n\r\n"
        assert refusal(server, data) == 414

    def test_more_than_100_header_lines_is_431(self, served):
        _, server = served
        assert refusal(server, get(b"HTTP/1.1", *[b"X-N: 1\r\n"] * 101)) == 431

    def test_header_line_over_64k_is_431(self, served):
        _, server = served
        line = b"X-Big: " + b"a" * 65536 + b"\r\n"
        assert refusal(server, get(b"HTTP/1.1", line)) == 431

    def test_header_line_without_colon_is_400(self, served):
        _, server = served
        assert refusal(server, get(b"HTTP/1.1", b"Host t\r\n")) == 400

    def test_folded_header_line_is_400(self, served):
        _, server = served
        lines = (b"X-Long: a\r\n", b"  folded\r\n")
        assert refusal(server, get(b"HTTP/1.1", *lines)) == 400

    def test_whitespace_before_colon_is_400(self, served):
        _, server = served
        assert refusal(server, get(b"HTTP/1.1", b"Host : t\r\n")) == 400

    @pytest.mark.parametrize(
        "line",
        [b"GET /healthz HTTP/1.1 extra", b"GET", b"", b"GET  HTTP/1.1"],
        ids=["four-words", "one-word", "empty", "no-target"],
    )
    def test_malformed_request_line_is_400(self, served, line):
        _, server = served
        assert refusal(server, line + b"\r\nHost: t\r\n\r\n") == 400

    def test_http_0_9_request_is_400(self, served):
        # the two-word form has no headers; it is refused without them
        _, server = served
        assert refusal(server, b"GET /healthz\r\n") == 400

    @pytest.mark.parametrize(
        "version", [b"HTTP/1", b"HTTP/0.9", b"http/1.1", b"HTTP/1.x"]
    )
    def test_version_other_than_http_1_x_is_400(self, served, version):
        _, server = served
        assert refusal(server, get(version)) == 400

    @pytest.mark.parametrize("version", [b"HTTP/2", b"HTTP/2.0", b"HTTP/3"])
    def test_http_2_or_later_is_505(self, served, version):
        _, server = served
        assert refusal(server, get(version)) == 505

    @pytest.mark.parametrize("method", [b"PUT", b"HEAD", b"DELETE", b"get"])
    def test_method_other_than_get_or_post_is_501(self, served, method):
        _, server = served
        data = method + b" /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        assert refusal(server, data) == 501

    def test_refusal_reaches_a_client_still_sending(self, served):
        # refused at the request line with 16 MiB of body to come, more
        # than the socket buffers hold: a server that closed at once
        # would reset the connection under the client's sendall
        _, server = served
        split = urlsplit(server.address)
        data = b"PUT /healthz HTTP/1.1\r\nHost: t\r\n\r\n" + bytes(16 << 20)
        for _ in range(3):
            with socket.create_connection(
                (split.hostname, split.port), timeout=1.0
            ) as sock:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
                received = b""
                while chunk := sock.recv(65536):
                    received += chunk
            [(status, headers, _)] = responses(received)
            assert status == 501
            assert headers["connection"] == "close"

    def test_limits_are_inclusive(self, served):
        # 100 header lines, and header lines of exactly 64 KiB, are served
        _, server = served
        lines = [b"X-N: 1\r\n"] * 99 + [b"X-Big: " + b"a" * 65527 + b"\r\n"]
        assert len(lines[-1]) == 65536
        data, _ = raw_exchange(server, get(b"HTTP/1.1", *lines) + LAST_HEALTHZ)
        assert [status for status, _, _ in responses(data)] == [200, 200]


class TestKeepAliveRules:
    def test_http_1_0_closes_unless_keep_alive(self, served):
        _, server = served
        data, closed = raw_exchange(server, get(b"HTTP/1.0") + HEALTHZ)
        [(status, headers, _)] = responses(data)
        assert status == 200 and closed
        assert headers["connection"] == "close"
        kept = get(b"HTTP/1.0", b"Connection: Keep-Alive\r\n")
        data, closed = raw_exchange(server, kept + LAST_HEALTHZ)
        assert [status for status, _, _ in responses(data)] == [200, 200]
        assert closed

    def test_every_answer_carries_a_date(self, served):
        _, server = served
        data, _ = raw_exchange(server, post("/v2/nothing", b"") + LAST_HEALTHZ)
        for _, headers, _ in responses(data):
            assert headers["date"].endswith(" GMT")
            time.strptime(headers["date"], "%a, %d %b %Y %H:%M:%S GMT")


# -- a hypothesis family of request heads, valid and broken --------------

# most heads are valid but for one broken part, so that each broken part
# is tried next to routed requests
_TARGETS = [
    b"/healthz",
    b"/v1/streams/acme/s1/append",
    b"/v1/streams/acme/s1/scores?start=1",
    b"/v1/streams",
    b"/v2/nothing",
    b"*",
]
_REQUEST_LINES = st.one_of(
    st.tuples(
        st.sampled_from([b"GET", b"POST"]),
        st.sampled_from(_TARGETS),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]),
    ),
    st.tuples(
        st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"get", b""]),
        st.sampled_from(_TARGETS + [b""]),
        st.sampled_from(
            [b"HTTP/1.1", b"HTTP/2", b"HTTP/0.9", b"HTTP/1", b"HTTX/1.1", b""]
        ),
    ),
).map(b" ".join)
_HEADERS = st.one_of(
    st.sampled_from(
        [
            b"Host: t",
            b"Accept: */*",
            b"Connection: close",
            b"Connection: keep-alive",
            b"Content-Type: application/json",
            b"X-Empty:",
        ]
    ),
    st.integers(0, 40).map(lambda n: b"Content-Length: %d" % n),
)
_ODD_HEADERS = st.sampled_from(
    [
        b"Content-Length: -1",
        b"Content-Length: abc",
        b"Content-Length: 67108865",
        b"Content-Length: " + b"9" * 30,
        b"Transfer-Encoding: chunked",
        b"no colon here",
        b" folded continuation",
        b"Host : t",
        b": nameless",
        b"X-Big: " + b"a" * 65536,
    ]
)
_LINE_ENDS = st.sampled_from([b"\r\n", b"\n"])


@st.composite
def request_heads(draw):
    """``(head, body)``: a head from valid and broken parts, and the body
    bytes its ``Content-Length`` declares when it declares one to send."""
    rarely = st.sampled_from([False] * 9 + [True])
    line = draw(_REQUEST_LINES)
    if draw(rarely):
        line = b"GET /" + b"a" * 65536 + b" HTTP/1.1"
    lines = draw(st.lists(_HEADERS, max_size=4))
    if lines and draw(rarely):
        lines.append(draw(st.sampled_from(lines)))  # a repeated header
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_HEADERS))
    if draw(rarely):
        lines += [b"X-N: 1"] * 101
    head = line + draw(_LINE_ENDS)
    for field in lines:
        head += field + draw(_LINE_ENDS)
    head += draw(_LINE_ENDS)
    lengths = {
        field.split(b":", 1)[1].strip()
        for field in lines
        if field.startswith(b"Content-Length:")
    }
    text = lengths.pop().decode() if len(lengths) == 1 else ""
    size = int(text) if text.isdigit() and int(text) <= 40 else 0
    return head, draw(st.binary(min_size=size, max_size=size))


# statuses only a refusal gives (a 400 can also be a route's answer)
_FRAMING_REFUSALS = {411, 413, 414, 431, 501, 505}


@pytest.fixture(scope="class")
def head_server():
    with ServeServer(StreamCluster(num_shards=1)) as server:
        with ServeClient(server.address) as client:
            client.create_stream("acme", "s1", "diff", np.arange(20.0))
        yield server


class TestMalformedHeads:
    """Every complete request gets exactly one answer within 1 s, never a
    500: a routed status or a JSON refusal with ``Connection: close``."""

    @settings(max_examples=200, deadline=None)
    @given(request=request_heads())
    def test_every_head_gets_one_answer_never_a_500(self, head_server, request):
        head, body = request
        split = urlsplit(head_server.address)
        started = time.monotonic()
        with socket.create_connection(
            (split.hostname, split.port), timeout=1.0
        ) as sock:
            sock.sendall(head + body)
            sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert time.monotonic() - started < 1.0
        [(status, headers, payload)] = responses(received)
        event(f"answered {status}")
        assert status != 500
        answer = json.loads(payload)
        if status >= 400:
            assert isinstance(answer["error"], str)
        if status in _FRAMING_REFUSALS:
            assert headers["connection"] == "close"
        [(healthy, _, _)] = responses(raw_exchange(head_server, LAST_HEALTHZ)[0])
        assert healthy == 200


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


class TestStreamingApproxOverHttp:
    def test_matrix_profile_approx_create_is_400(self, served):
        client, server = served
        with pytest.raises(ServeError) as caught:
            client.create_stream(
                "acme", "s1", "matrix_profile(w=20, approx=0.05)",
                wave(n=200, seed=1),
            )
        assert caught.value.status == 400
        assert "approx" in str(caught.value)
        with pytest.raises(ServeError) as caught:
            client.append("acme", "s1", [1.0])
        assert caught.value.status == 404
        # the exact spec still streams on the same connection
        client.create_stream(
            "acme", "s2", "matrix_profile(w=20)", wave(n=200, seed=1)
        )
        client.append("acme", "s2", wave(n=50, seed=2))
        assert client.scores("acme", "s2")["total"] == 50
        assert counter(server, "serve_http_connections_total") == 1


class TestNonFiniteOverHttp:
    """``json.loads`` parses NaN and ±Infinity; the cluster refuses them."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_append_is_400_and_the_stream_stays_clean(self, served, token):
        client, server = served
        client.create_stream(
            "acme", "s1", "streaming_zscore(k=48)", wave(n=200, seed=1)
        )
        status, _, data = client._exchange(
            "POST",
            "/v1/streams/acme/s1/append",
            f'{{"values": [1.0, {token}, 2.0]}}'.encode(),
        )
        assert status == 400
        assert "finite" in json.loads(data)["error"]
        client.append("acme", "s1", wave(n=100, seed=2))
        scores = client.scores("acme", "s1")["scores"]
        assert len(scores) == 100 and np.isfinite(scores).all()
        assert counter(server, "serve_http_connections_total") == 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_create_is_400_and_nothing_is_created(self, served, token):
        client, server = served
        status, _, data = client._exchange(
            "POST",
            "/v1/streams",
            (
                '{"tenant": "acme", "stream": "s1", "detector": "diff", '
                f'"train": [1.0, {token}, 2.0]}}'
            ).encode(),
        )
        assert status == 400
        assert "finite" in json.loads(data)["error"]
        with pytest.raises(ServeError) as caught:
            client.append("acme", "s1", [1.0])
        assert caught.value.status == 404
        assert counter(server, "serve_http_connections_total") == 1


class TestStreamFailureOverHttp:
    def test_restored_stream_whose_detector_raises_is_409_not_a_dead_shard(
        self, capsys
    ):
        # a diff snapshot relabelled as matrix_profile(w=100) with a
        # 150-point window restores, then raises on its first append;
        # that used to kill shard-0, and the other tenant's reads got 503
        with ServeServer(StreamCluster(num_shards=1)) as server, ServeClient(
            server.address
        ) as client:
            client.create_stream("acme", "s1", "diff", np.arange(40.0))
            client.create_stream("other", "s1", "diff", np.arange(40.0))
            snap = relabelled(
                client.snapshot("acme", "s1"),
                "matrix_profile(w=100)",
                150,
                "acme/s2",
            )
            status, _, _ = client._exchange(
                "POST", "/v1/restore", json.dumps(snap).encode()
            )
            assert status == 201
            client.append("acme", "s2", [1.0, 2.0, 3.0])
            for call in (
                lambda: client.scores("acme", "s2"),
                lambda: client.append("acme", "s2", [4.0]),
                lambda: client.snapshot("acme", "s2"),
            ):
                with pytest.raises(ServeError) as caught:
                    call()
                assert caught.value.status == 409
                assert "too short" in str(caught.value)
            assert client.health()["ok"] is True
            text = client.metrics_text()
            client.append("other", "s1", [1.0, 2.0])
            assert client.scores("other", "s1")["total"] == 2
        assert 'serve_stream_failures_total{tenant="acme"} 1' in text
        assert "ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: blob[:5],
            # byte 16 is the "a" of the header's first key, "arrays"
            lambda blob: blob[:16] + b"`" + blob[17:],
        ],
        ids=["truncated-prefix", "renamed-header-key"],
    )
    def test_corrupt_snapshot_is_400(self, served, corrupt):
        # these were a 500 (struct.error) and a 404 naming a header key
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(40.0))
        snap = client.snapshot("acme", "s1")
        blob = corrupt(base64.b64decode(snap["state"]))
        snap.update(stream="acme/s2", state=base64.b64encode(blob).decode())
        with pytest.raises(ServeError) as caught:
            client.restore(snap)
        assert caught.value.status == 400
        assert "corrupt snapshot" in str(caught.value)
        with pytest.raises(ServeError) as caught:
            client.scores("acme", "s2")
        assert caught.value.status == 404


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


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestDeadWorkerOverHttp:
    def test_append_is_503_and_healthz_is_not_ok(self, served):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        dead = kill_worker(server.cluster)
        with ServeClient(server.address, timeout=1.0) as prompt:
            with pytest.raises(ServeError) as caught:
                prompt.append("acme", "s1", [1.0])
            assert caught.value.status == 503
            health = prompt.health()
        assert health["ok"] is False
        assert health["dead_shards"] == [dead.name]
