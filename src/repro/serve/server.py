"""Minimal HTTP/1.1 front for the stream cluster, plus a blocking client.

The cluster (:mod:`repro.serve.shard`) speaks plain dicts; this module
puts JSON-over-HTTP in front of it with nothing beyond the standard
library, because the repository's no-new-dependencies rule applies to
the service tier too, and because a reviewer should be able to ``curl``
the thing.  Both ends share one small HTTP/1.1 codec: :func:`_read_head`
reads a request head on the server and a response head on the client,
and every message goes out in one write.

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
the next request; a request whose head or body length cannot be
trusted is answered (``400``/``411``/``413``/``414``/``431``/``501``/
``505``) and its connection closed.

:class:`ServeClient` is the matching blocking client.  It keeps one
connection per calling thread, and its ``append`` retries through
backpressure with the server-suggested pause (bounded attempts), which
is the behaviour every well-mannered producer wants and the load
generator relies on.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

import numpy as np

from .shard import Backpressure, StreamCluster, StreamFailed

__all__ = ["ServeServer", "ServeClient", "ServeError"]

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd payloads before reading them
# the stdlib's own head limits: bytes per line, header lines per head
_MAX_LINE = 65536
_MAX_HEADERS = 100
# close() waits up to one poll of the accept loop; socketserver's default
# half second made every embedded server's shutdown cost that much
_ACCEPT_POLL_S = 0.05
# how long a closing connection goes on reading what the peer still sends
_LINGER_S = 1.0

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 token
_VERSION = re.compile(rb"HTTP/(\d{1,9})(?:\.(\d{1,9}))?")
_STATUS_LINE = re.compile(rb"HTTP/1\.\d (\d{3})(?: [^\r\n]*)?\r?\n")
# bytes that would break a request line if sent in its target
_UNSAFE_TARGET = re.compile(r"[\x00-\x20\x7f]")

# ``# HELP`` text of the HTTP front's own series on the cluster registry
_DESCRIPTIONS = {
    "serve_http_connections_total": "TCP connections the HTTP front accepted.",
    "serve_http_requests_total": "HTTP requests the HTTP front routed.",
}


class _BadHead(Exception):
    """A message head that breaks the framing rules; ``status`` is the
    server's answer to it."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _read_head(rfile, start):
    """Read one HTTP/1.1 message head from ``rfile``; both ends use it.

    ``start`` parses the start line (the request line on the server,
    the status line on the client) and raises :class:`_BadHead` on a
    malformed one, before any header line is read.  Up to
    ``_MAX_HEADERS`` header lines of at most ``_MAX_LINE`` bytes follow,
    ended by an empty line.  Returns ``(start(line), headers)``, each
    lower-cased header name mapped to the list of its values so that a
    repeated ``Content-Length`` stays visible; None when the peer closed
    the connection before sending a byte.
    """
    line = rfile.readline(_MAX_LINE + 1)
    if not line:
        return None
    if len(line) > _MAX_LINE:
        raise _BadHead(f"start line over {_MAX_LINE} bytes", 414)
    parsed = start(line)
    headers: dict[str, list[str]] = {}
    for _ in range(_MAX_HEADERS + 1):
        field = rfile.readline(_MAX_LINE + 1)
        if len(field) > _MAX_LINE:
            raise _BadHead(f"header line over {_MAX_LINE} bytes", 431)
        if field in (b"\r\n", b"\n", b""):
            return parsed, headers
        name, colon, value = field.partition(b":")
        # a missing colon, a folded continuation line (leading
        # whitespace) and whitespace before the colon all fail the match
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise _BadHead(f"malformed header line {field[:80]!r}")
        headers.setdefault(name.decode("ascii").lower(), []).append(
            value.strip().decode("latin-1")
        )
    raise _BadHead(f"more than {_MAX_HEADERS} header lines", 431)


def _request_line(line: bytes) -> "tuple[str, str, int]":
    """``(method, target, minor version)`` of a request line."""
    words = line.split()
    if len(words) != 3:  # two words is HTTP/0.9, which has no headers
        raise _BadHead(f"malformed request line {line[:80]!r}")
    method, target, version = words
    found = _VERSION.fullmatch(version)
    if found and int(found[1]) >= 2:
        raise _BadHead(f"HTTP version {version[:20]!r} not supported", 505)
    if not found or int(found[1]) != 1 or found[2] is None:
        raise _BadHead(f"malformed HTTP version {version[:20]!r}")
    if method not in (b"GET", b"POST"):
        raise _BadHead(f"method {method[:20]!r} not implemented", 501)
    return method.decode("ascii"), target.decode("latin-1"), int(found[2])


def _status_line(line: bytes) -> int:
    """The status code of a response's status line."""
    found = _STATUS_LINE.fullmatch(line)
    if found is None:
        raise _BadHead(f"malformed status line {line[:80]!r}")
    return int(found[1])


def _tokens(headers: "dict[str, list[str]]", name: str) -> "set[str]":
    """The lower-cased comma-separated options of header ``name``."""
    return {
        token.strip().lower()
        for value in headers.get(name, ())
        for token in value.split(",")
    }


def _values(values) -> np.ndarray:
    """An append's ``values`` field as a flat numeric array, else ValueError."""
    if not isinstance(values, list) or not values:
        raise ValueError("append body needs a non-empty 'values' array")
    array = np.asarray(values)  # ragged nesting raises ValueError here
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ValueError("'values' must be a flat array of numbers")
    return array


class _Handler(socketserver.StreamRequestHandler):
    # every response is one write on an unbuffered wfile; NODELAY so that
    # write never waits for the peer's delayed ACK of the previous one
    disable_nagle_algorithm = True

    @property
    def cluster(self) -> StreamCluster:
        return self.server.cluster  # type: ignore[attr-defined]

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._handle_one()
        except ConnectionError:
            pass  # the peer went away; there is no one left to answer

    def _handle_one(self) -> None:
        try:
            head = _read_head(self.rfile, _request_line)
        except _BadHead as bad:
            self._refuse(bad.status, str(bad))
            return
        if head is None:  # the peer closed the connection
            self.close_connection = True
            return
        (method, self.path, minor), self.headers = head
        options = _tokens(self.headers, "connection")
        self.close_connection = "close" in options or (
            minor == 0 and "keep-alive" not in options
        )
        self.server.requests_total.inc()  # type: ignore[attr-defined]
        self._raw = self._read_body(minor)
        if self._raw is not None:
            self._route(method)

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
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Date: {self.server.date()}\r\n"  # type: ignore[attr-defined]
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write((head + "\r\n").encode("latin-1") + body)

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request that cannot be framed, then drop the connection."""
        self.close_connection = True
        self._reply(status, {"error": message})

    def _read_body(self, minor: int) -> "bytes | None":
        """The whole request body, or None once the request was refused."""
        if "transfer-encoding" in self.headers:
            self._refuse(411, "send a Content-Length; chunked bodies are refused")
            return None
        lengths = set(self.headers.get("content-length", ["0"]))
        text = lengths.pop() if len(lengths) == 1 else ""
        if not (text.isascii() and text.isdigit()):
            self._refuse(400, "Content-Length must be one non-negative integer")
            return None
        # count digits first: int() refuses a long enough digit string
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(_MAX_BODY)) or int(digits) > _MAX_BODY:
            self._refuse(413, f"request body over {_MAX_BODY} bytes")
            return None
        length = int(digits)
        if not length:
            return b""
        if minor and "100-continue" in _tokens(self.headers, "expect"):
            # the interim answer must reach the client before it sends
            # the body
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
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


class _Httpd(socketserver.ThreadingTCPServer):
    """Thread-per-connection server that can sever its open connections."""

    daemon_threads = True
    # a restarted server rebinds the port of the one before it
    allow_reuse_address = True
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
        self._date = (0, "")

    def date(self) -> str:
        """The ``Date`` header value, formatted at most once a second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        self.connections_total.inc()
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        # lingering close: closing with input unread makes the kernel
        # reset the connection, and a peer still sending (a refused
        # request's body, say) gets a broken pipe instead of the answer;
        # so half-close, then drain until the peer closes too, giving up
        # about _LINGER_S later
        try:
            request.shutdown(socket.SHUT_WR)
            request.settimeout(_LINGER_S)
            deadline = time.monotonic() + _LINGER_S
            while request.recv(65536) and time.monotonic() < deadline:
                pass
        except OSError:
            pass  # the peer went away or kept sending
        self.close_request(request)

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


class _Connection:
    """A client thread's kept-alive connection: the socket and the one
    buffered reader that lives as long as it does."""

    def __init__(self, address: "tuple[str, int]", timeout: float) -> None:
        self.address = address
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self.rfile = None

    def open(self) -> None:
        sock = socket.create_connection(self.address, self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        sock, rfile = self.sock, self.rfile
        self.sock = self.rfile = None
        if sock is not None:
            rfile.close()
            sock.close()


class ServeClient:
    """Blocking JSON client for :class:`ServeServer`.

    Each calling thread holds its own persistent connection, so one
    client may be shared by many threads.  A request that fails on a
    *reused* connection before any response byte arrived — the server
    closed it while idle — is sent once more on a new connection; a
    failure on a new connection is never retried, so an append is never
    sent twice to a server that answered it.  Transport failures raise
    :class:`OSError` subclasses; a response that breaks the framing
    rules raises :class:`ConnectionError`.
    """

    def __init__(
        self, base_url: str, *, timeout: float = 30.0, max_retries: int = 8
    ) -> None:
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"need an http://host:port URL, got {base_url!r}")
        self._address = (split.hostname, split.port or 80)
        self._netloc = split.netloc
        self._prefix = split.path
        self.timeout = timeout
        self.max_retries = max_retries
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[_Connection] = []

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

    def _connection(self) -> _Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(self._address, self.timeout)
            with self._lock:
                self._connections.append(connection)
            self._local.connection = connection
        return connection

    def _exchange(self, method: str, path: str, body: "bytes | None"):
        """One request/response on this thread's connection:
        ``(status, headers, body)``, header names lower-cased."""
        target = self._prefix + path
        if not target.isascii() or _UNSAFE_TARGET.search(target):
            raise ValueError(f"cannot send {target!r} as a request target")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._netloc}\r\n"
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        request = (head + "\r\n").encode("ascii") + (body or b"")
        connection = self._connection()
        while True:
            # an open socket here was kept alive by an earlier exchange; a
            # reopened one is new, so this loop runs at most twice
            reused = connection.sock is not None
            answer = None
            try:
                if not reused:
                    connection.open()
                connection.sock.sendall(request)
                answer = _read_head(connection.rfile, _status_line)
                if answer is None:
                    raise ConnectionResetError(
                        f"{method} {path}: closed before the status line"
                    )
                status, headers = answer
                data = self._read_body(connection, headers)
            except (ConnectionResetError, BrokenPipeError):
                connection.close()
                if reused and answer is None:
                    continue  # closed while idle, before any response byte
                raise
            except _BadHead as bad:
                connection.close()
                raise ConnectionError(f"{method} {path}: {bad}") from None
            except BaseException:
                connection.close()
                raise
            if "close" in _tokens(headers, "connection"):
                connection.close()
            return status, headers, data

    @staticmethod
    def _read_body(connection: _Connection, headers) -> bytes:
        """Exactly ``Content-Length`` bytes of response body."""
        lengths = set(headers.get("content-length", ()))
        text = lengths.pop() if len(lengths) == 1 else ""
        if not (text.isascii() and text.isdigit() and len(text) < 19):
            raise _BadHead("no valid Content-Length in the response")
        length = int(text)
        data = connection.rfile.read(length)
        if len(data) < length:
            raise _BadHead(
                f"response body cut short: {len(data)} of {length} bytes"
            )
        return data

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
            hint = headers.get("retry-after") or ["0.05"]
            raise Backpressure("server", float(hint[-1]))
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
