"""Stdlib HTTP front for the stream cluster, plus a blocking client.

The cluster (:mod:`repro.serve.shard`) speaks plain dicts; this module
puts JSON-over-HTTP in front of it with nothing beyond the standard
library — ``http.server.ThreadingHTTPServer`` on the server side,
``http.client`` on the client side — because the repository's no-new-
dependencies rule applies to the service tier too, and because a
reviewer should be able to ``curl`` the thing.

Routes (all JSON bodies/responses)::

    POST /v1/streams                               create a stream
    POST /v1/streams/{tenant}/{stream}/append      ingest values (202)
    GET  /v1/streams/{tenant}/{stream}/scores      read scores [?start=]
    GET  /v1/streams/{tenant}/{stream}             stream stats
    POST /v1/streams/{tenant}/{stream}/snapshot    capture portable state
    POST /v1/restore                               register from snapshot
    GET  /metrics                                  per-tenant counters
    GET  /alerts                                   watch rule states
    GET  /healthz                                  liveness + alert summary

Backpressure maps to ``429`` with a ``Retry-After`` header (fractional
seconds) — the one HTTP status whose retry semantics every off-the-
shelf client already implements.  Unknown streams are ``404``, bad
payloads ``400``, a stream whose detector raised ``409`` (it stays
failed), a stopped shard worker ``503`` and any other failure ``500``;
error bodies are ``{"error": ...}``.

Connections are persistent HTTP/1.1.  A request body is always read in
full before its route runs, so leftover bytes can never be parsed as
the next request; a request whose body length cannot be trusted is
answered (``400``/``411``/``413``) and its connection closed.

:class:`ServeClient` is the matching blocking client.  It keeps one
connection per calling thread, and its ``append`` retries through
backpressure with the server-suggested pause (bounded attempts), which
is the behaviour every well-mannered producer wants and the load
generator relies on.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as np

from .shard import Backpressure, StreamCluster, StreamFailed

__all__ = ["ServeServer", "ServeClient", "ServeError"]

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd payloads before reading them
# close() waits up to one poll of the accept loop; socketserver's default
# half second made every embedded server's shutdown cost that much
_ACCEPT_POLL_S = 0.05

# ``# HELP`` text of the HTTP front's own series on the cluster registry
_DESCRIPTIONS = {
    "serve_http_connections_total": "TCP connections the HTTP front accepted.",
    "serve_http_requests_total": "HTTP requests the HTTP front routed.",
}


def _values(values) -> np.ndarray:
    """An append's ``values`` field as a flat numeric array, else ValueError."""
    if not isinstance(values, list) or not values:
        raise ValueError("append body needs a non-empty 'values' array")
    array = np.asarray(values)  # ragged nesting raises ValueError here
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ValueError("'values' must be a flat array of numbers")
    return array


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # one send per response on a kept-alive connection: a buffered wfile
    # that handle_one_request flushes once, and NODELAY so that send
    # never waits for the peer's delayed ACK of the previous one
    wbufsize = -1
    disable_nagle_algorithm = True

    # quiet by default: the access log is noise at bench rates
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def cluster(self) -> StreamCluster:
        return self.server.cluster  # type: ignore[attr-defined]

    def handle_expect_100(self) -> bool:
        # the interim 100 must reach the client before it sends the
        # body, not sit in the buffer until the final response
        super().handle_expect_100()
        self.wfile.flush()
        return True

    # -- plumbing -----------------------------------------------------

    def _reply(self, status: int, payload: dict, *, headers=None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _reply_text(self, status: int, text: str) -> None:
        # Prometheus exposition format 0.0.4 content type
        self._send(
            status,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            None,
        )

    def _send(self, status, body, content_type, headers) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request that cannot be framed, then drop the connection."""
        self._reply(status, {"error": message}, headers={"Connection": "close"})

    def _read_body(self) -> "bytes | None":
        """The whole request body, or None once the request was refused."""
        if self.headers.get("Transfer-Encoding"):
            self._refuse(411, "send a Content-Length; chunked bodies are refused")
            return None
        lengths = {
            value.strip()
            for value in self.headers.get_all("Content-Length") or ["0"]
        }
        text = lengths.pop() if len(lengths) == 1 else ""
        if not (text.isascii() and text.isdigit()):
            self._refuse(400, "Content-Length must be one non-negative integer")
            return None
        length = int(text)
        if length > _MAX_BODY:
            self._refuse(413, f"request body over {_MAX_BODY} bytes")
            return None
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:  # the peer hung up mid-body
            self.close_connection = True
            return None
        return raw

    def _body(self) -> dict:
        if not self._raw:
            return {}
        payload = json.loads(self._raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self, method: str) -> None:
        self.server.requests_total.inc()  # type: ignore[attr-defined]
        self._raw = self._read_body()
        if self._raw is None:
            return
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        try:
            self._dispatch(method, parts, query)
        except StreamFailed as error:
            # a failed stream stays failed: 409, not a 503 to retry
            self._reply(409, {"error": str(error)})
        except Backpressure as error:
            self._reply(
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": f"{error.retry_after:.3f}"},
            )
        except KeyError as error:
            self._reply(404, {"error": str(error.args[0])})
        except (ValueError, TypeError) as error:
            self._reply(400, {"error": str(error)})
        except RuntimeError as error:  # a stopped shard worker
            self._reply(503, {"error": str(error)})
        except Exception as error:
            # a bug: its traceback goes to stderr, and the answer keeps
            # the connection usable
            self.server.handle_error(self.request, self.client_address)
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})

    def _dispatch(self, method, parts, query) -> None:
        if method == "GET" and parts == ["healthz"]:
            self._reply(200, self.cluster.healthz_json())
            return
        if method == "GET" and parts == ["metrics"]:
            # same registry both ways: ?format=prometheus renders the
            # text exposition, default stays the JSON cluster view
            if query.get("format") == "prometheus":
                self._reply_text(200, self.cluster.metrics_prometheus())
            else:
                self._reply(200, self.cluster.metrics_json())
            return
        if method == "GET" and parts == ["alerts"]:
            if query.get("format") == "prometheus":
                self._reply_text(200, self.cluster.alerts_prometheus())
            else:
                self._reply(200, self.cluster.alerts_json())
            return
        if method == "POST" and parts == ["v1", "streams"]:
            body = self._body()
            missing = [
                name
                for name in ("tenant", "stream", "detector")
                if name not in body
            ]
            if missing:
                raise ValueError(f"create body missing {missing}")
            result = self.cluster.create_stream(
                body["tenant"],
                body["stream"],
                body["detector"],
                body.get("train", []),
                window=body.get("window"),
                refit_every=body.get("refit_every"),
                refit_policy=body.get("refit_policy"),
            )
            self._reply(201, result)
            return
        if method == "POST" and parts == ["v1", "restore"]:
            body = self._body()
            missing = [
                name
                for name in (
                    "tenant",
                    "stream",
                    "detector",
                    "points_seen",
                    "scores_total",
                    "state",
                )
                if name not in body
            ]
            if missing:
                raise ValueError(f"restore body missing {missing}")
            self._reply(201, self.cluster.restore_stream(body))
            return
        if len(parts) >= 4 and parts[:2] == ["v1", "streams"]:
            tenant, stream = parts[2], parts[3]
            tail = parts[4:]
            if method == "POST" and tail == ["append"]:
                values = _values(self._body().get("values"))
                self._reply(
                    202, self.cluster.append(tenant, stream, values)
                )
                return
            if method == "GET" and tail == ["scores"]:
                start = int(query.get("start", 0))
                self._reply(
                    200, self.cluster.scores(tenant, stream, start=start)
                )
                return
            if method == "POST" and tail == ["snapshot"]:
                self._reply(
                    200, self.cluster.snapshot_stream(tenant, stream)
                )
                return
            if method == "GET" and not tail:
                self._reply(200, self.cluster.stream_stats(tenant, stream))
                return
        self._reply(404, {"error": f"no route for {method} {self.path}"})

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._route("POST")


class _Httpd(ThreadingHTTPServer):
    """Thread-per-connection server that can sever its open connections."""

    daemon_threads = True
    # socketserver's default listen backlog is 5 — a burst of concurrent
    # producers would see connection resets before a thread ever spawns
    request_queue_size = 128

    def __init__(self, address, cluster: StreamCluster) -> None:
        super().__init__(address, _Handler)
        self.cluster = cluster
        registry = cluster.registry
        for name, text in _DESCRIPTIONS.items():
            registry.describe(name, text)
        self.connections_total = registry.counter("serve_http_connections_total")
        self.requests_total = registry.counter("serve_http_requests_total")
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        self.connections_total.inc()
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def sever_connections(self) -> None:
        """Shut every open connection, waking handlers idle in a read."""
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already went away


class ServeServer:
    """A :class:`StreamCluster` behind a threading HTTP server."""

    def __init__(
        self,
        cluster: StreamCluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.cluster = cluster
        self._httpd = _Httpd((host, port), cluster)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServeServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(_ACCEPT_POLL_S,),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        # kept-alive connections outlive the listener: without this a
        # closed server would go on answering over them
        self._httpd.sever_connections()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.cluster.close()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class ServeError(RuntimeError):
    """Non-backpressure HTTP error from the serve API."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Blocking JSON client for :class:`ServeServer` (``http.client``).

    Each calling thread holds its own persistent connection, so one
    client may be shared by many threads.  A request that fails on a
    *reused* connection before any response byte arrived — the server
    closed it while idle — is sent once more on a new connection; a
    failure on a new connection is never retried, so an append is never
    sent twice to a server that answered it.  Transport failures raise
    :class:`OSError` subclasses.
    """

    def __init__(
        self, base_url: str, *, timeout: float = 30.0, max_retries: int = 8
    ) -> None:
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"need an http://host:port URL, got {base_url!r}")
        self._host = split.hostname
        self._port = split.port or 80
        self._prefix = split.path
        self.timeout = timeout
        self.max_retries = max_retries
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[HTTPConnection] = []

    def close(self) -> None:
        """Close every connection this client opened, in any thread."""
        with self._lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- raw request --------------------------------------------------

    def _connection(self) -> HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            with self._lock:
                self._connections.append(connection)
            self._local.connection = connection
        return connection

    def _exchange(self, method: str, path: str, body: "bytes | None"):
        """One request/response on this thread's connection."""
        connection = self._connection()
        headers = {} if body is None else {"Content-Type": "application/json"}
        while True:
            # a live socket here was kept alive by an earlier exchange; a
            # reopened one is new, so this loop runs at most twice
            reused = connection.sock is not None
            response = None
            try:
                connection.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                response = connection.getresponse()
                return response.status, response.headers, response.read()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError: the peer
                # closed without sending a status line
                connection.close()
                if reused and response is None:
                    continue
                raise
            except HTTPException as error:
                connection.close()
                raise ConnectionError(f"{method} {path}: {error!r}") from error
            except BaseException:
                connection.close()
                raise

    def _call(self, method: str, path: str, body: "bytes | None") -> bytes:
        """The response body of a 2xx answer; raises on any other status."""
        status, headers, data = self._exchange(method, path, body)
        if 200 <= status < 300:
            return data
        text = data.decode("utf-8", "replace")
        try:
            message = json.loads(text).get("error", text)
        except (json.JSONDecodeError, AttributeError):
            message = text
        if status == 429:
            raise Backpressure(
                "server", float(headers.get("Retry-After") or 0.05)
            )
        raise ServeError(status, message)

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        return json.loads(self._call(method, path, body).decode("utf-8"))

    # -- API ----------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def create_stream(
        self,
        tenant: str,
        stream: str,
        detector: str,
        train,
        *,
        window: int | None = None,
        refit_every: int | None = None,
        refit_policy: str | None = None,
    ) -> dict:
        return self.request(
            "POST",
            "/v1/streams",
            {
                "tenant": tenant,
                "stream": stream,
                "detector": detector,
                "train": np.asarray(train, dtype=float).ravel().tolist(),
                "window": window,
                "refit_every": refit_every,
                "refit_policy": refit_policy,
            },
        )

    def append(self, tenant: str, stream: str, values) -> dict:
        """Ingest, retrying through backpressure with the server's hint."""
        payload = {"values": np.asarray(values, dtype=float).ravel().tolist()}
        path = f"/v1/streams/{tenant}/{stream}/append"
        for attempt in range(self.max_retries):
            try:
                return self.request("POST", path, payload)
            except Backpressure as pressure:
                if attempt == self.max_retries - 1:
                    raise
                time.sleep(pressure.retry_after)
        raise AssertionError("unreachable")

    def scores(self, tenant: str, stream: str, *, start: int = 0) -> dict:
        return self.request(
            "GET", f"/v1/streams/{tenant}/{stream}/scores?start={start}"
        )

    def stream_stats(self, tenant: str, stream: str) -> dict:
        return self.request("GET", f"/v1/streams/{tenant}/{stream}")

    def snapshot(self, tenant: str, stream: str) -> dict:
        return self.request(
            "POST", f"/v1/streams/{tenant}/{stream}/snapshot"
        )

    def restore(self, payload: dict) -> dict:
        return self.request("POST", "/v1/restore", payload)

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``/metrics``."""
        return self._text("/metrics?format=prometheus")

    def alerts(self) -> dict:
        return self.request("GET", "/alerts")

    def alerts_text(self) -> str:
        """The Prometheus ``ALERTS`` exposition of ``/alerts``."""
        return self._text("/alerts?format=prometheus")

    def _text(self, path: str) -> str:
        return self._call("GET", path, None).decode("utf-8")
