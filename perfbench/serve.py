"""The served path: a ``repro serve`` subprocess driven over real HTTP.

The drive is a closed loop: each client thread sends its next request
only after the previous one returned.  Each client owns every
``CLIENTS``-th stream and appends ``BATCH``-point batches round-robin
over them; after every ``READ_EVERY``-th append to a stream it reads
that stream's new scores back.  At the half-way round the owners of the
``SNAPSHOTS`` streams snapshot them and restore each under a new name,
then drive both copies identically.  The drive ends with a read-back
of every stream, so the clock stops only once every point is scored.
"""

from __future__ import annotations

import base64
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
from dataclasses import dataclass, field
from pathlib import Path

from accounting import Tally

DETECTORS = ("streaming_zscore(k=48)", "streaming_range(k=48)", "diff")
STREAMS = 128
CLIENTS = min(2, os.cpu_count() or 1)
BATCH = 50
READ_EVERY = 4
SNAPSHOTS = (0, 37, 74, 111)
START_TIMEOUT_S = 60.0


@dataclass(eq=False)
class Stream:
    """One stream of the append schedule and what the drive saw of it."""

    tenant: str
    name: str
    detector: str
    series: object
    batches: "list[list[float]]"
    first_round: int = 0  # a restored copy joins the drive mid-way
    cut: int = 0  # global index of its first score
    scores: list = field(default_factory=list)
    reads: int = 0
    appends: int = 0

    @property
    def points(self) -> int:
        return sum(len(b) for b in self.batches[self.first_round :])


def plan(archive, streams: int = STREAMS) -> "list[Stream]":
    """The append schedule: stream i cycles over series and detectors.

    Tenants hold four streams each, so they spread over the shards.
    """
    tenants = max(1, streams // 4)
    schedule = []
    for index in range(streams):
        series = archive.series[index % len(archive.series)]
        values = series.values
        schedule.append(
            Stream(
                tenant=f"t{index % tenants:02d}",
                name=f"s{index:03d}",
                detector=DETECTORS[index % len(DETECTORS)],
                series=series,
                batches=[
                    [float(v) for v in values[start : start + BATCH]]
                    for start in range(series.train_len, series.n, BATCH)
                ],
            )
        )
    return schedule


class Server:
    """``python -m repro serve --port 0`` as a child process.

    The address comes from the server's startup line; ``start`` returns
    once ``/healthz`` answers ok.  ``stop`` stops and reaps the process;
    callers run it in ``finally``, so a failed drive never leaves it.
    """

    def __init__(self, root: Path, log: Path) -> None:
        self.root = root
        self.log_path = log
        self.proc = None
        self.address = None
        self._log = None

    def start(self) -> "Server":
        from repro.serve import ServeClient

        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=self.root,
            env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        try:
            deadline = time.monotonic() + START_TIMEOUT_S
            while self.address is None:
                found = re.search(
                    r"listening on (http://\S+)", self.log_path.read_text()
                )
                if found:
                    self.address = found.group(1)
                elif self.proc.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited: {self.log_path.read_text()}"
                    )
                elif time.monotonic() > deadline:
                    raise RuntimeError("repro serve printed no address")
                else:
                    time.sleep(0.002)
            client = ServeClient(self.address, timeout=5.0)
            while True:
                try:
                    if client.health().get("ok"):
                        return self
                except (urllib.error.URLError, OSError):
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never reported healthy")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise

    def peak_rss_kb(self) -> int:
        """The server's peak resident set so far (VmHWM), in KiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        raise RuntimeError(f"no VmHWM for pid {self.proc.pid}")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._log is not None:
            self._log.close()


class HttpApi:
    """The drive's operations over HTTP (``ServeClient``)."""

    prefix = "http"

    def __init__(self, address: str) -> None:
        from repro.serve import ServeClient

        self.client = ServeClient(address, timeout=30.0)
        self.max_retries = self.client.max_retries

    def create(self, s: Stream) -> None:
        self.client.create_stream(s.tenant, s.name, s.detector, s.series.train)

    def append(self, s: Stream, values) -> None:
        self.client.request(
            "POST", f"/v1/streams/{s.tenant}/{s.name}/append", {"values": values}
        )

    def scores(self, s: Stream, start: int) -> dict:
        return self.client.scores(s.tenant, s.name, start=start)

    def snapshot(self, s: Stream) -> dict:
        return self.client.snapshot(s.tenant, s.name)

    def restore(self, payload: dict) -> None:
        self.client.restore(payload)


class ClusterApi:
    """The same operations on an in-process ``StreamCluster``."""

    prefix = "cluster"
    max_retries = 8

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def create(self, s: Stream) -> None:
        self.cluster.create_stream(s.tenant, s.name, s.detector, s.series.train)

    def append(self, s: Stream, values) -> None:
        self.cluster.append(s.tenant, s.name, values)

    def scores(self, s: Stream, start: int) -> dict:
        return self.cluster.scores(s.tenant, s.name, start=start)

    def snapshot(self, s: Stream) -> dict:
        return self.cluster.snapshot_stream(s.tenant, s.name)

    def restore(self, payload: dict) -> None:
        self.cluster.restore_stream(payload)


class Drive:
    """One closed-loop drive of a schedule through an API.

    Failed operations are counted in ``tally``: non-2xx answers,
    transport errors, and appends still refused after the API's retry
    budget.
    """

    def __init__(self, schedule, api_factory, spans, tally: Tally) -> None:
        from repro.serve import Backpressure, ServeError

        self._pressure = Backpressure
        self._errors = (ServeError, KeyError, ValueError, urllib.error.URLError, OSError)
        self.schedule = schedule
        self.api_factory = api_factory
        self.spans = spans
        self.tally = tally
        self.append_s: list[float] = []
        self.read_s: list[float] = []
        self.snapshot_s: list[float] = []
        self.restore_s: list[float] = []
        self.blob_bytes: list[int] = []
        self.retries = 0
        self.copies: list[Stream] = []
        self._lock = threading.Lock()

    def create_all(self, api) -> None:
        for s in self.schedule:
            with self.spans.span(f"{api.prefix}.create"):
                self._call(api.create, s)

    def run(self) -> float:
        """Drive every client to its final read-back; returns the wall time."""
        failures: list[BaseException] = []

        def client(index: int) -> None:
            try:
                self._client(index)
            except BaseException as error:  # surfaced after the join
                failures.append(error)

        threads = [
            threading.Thread(target=client, args=(k,), name=f"bench-client-{k}")
            for k in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if failures:
            raise failures[0]
        return wall

    def _call(self, op, *args):
        self.tally.add(1)
        try:
            return op(*args)
        except self._errors:
            self.tally.add(0, 1)
            return None

    def _client(self, index: int) -> None:
        api = self.api_factory()
        mine = [s for i, s in enumerate(self.schedule) if i % CLIENTS == index]
        snapshot_owned = [
            s for i, s in enumerate(self.schedule) if i in SNAPSHOTS and i % CLIENTS == index
        ]
        rounds = max(len(s.batches) for s in mine)
        active = list(mine)
        local = {"append": [], "read": [], "retries": 0}
        with self.spans.span("bench.client"):
            for round_index in range(rounds):
                if round_index == rounds // 2:
                    active += [self._fork(api, s, round_index) for s in snapshot_owned]
                for s in active:
                    if round_index < len(s.batches):
                        self._append(api, s, s.batches[round_index], local)
                        if s.appends % READ_EVERY == 0:
                            self._read(api, s, local)
            for s in active:
                self._read(api, s, local)
        with self._lock:
            self.append_s += local["append"]
            self.read_s += local["read"]
            self.retries += local["retries"]

    def _append(self, api, s: Stream, values, local) -> None:
        self.tally.add(1)
        started = time.perf_counter()
        with self.spans.span(f"{api.prefix}.append"):
            for attempt in range(api.max_retries):
                try:
                    api.append(s, values)
                    break
                except self._pressure as pressure:
                    local["retries"] += 1
                    if attempt == api.max_retries - 1:
                        self.tally.add(0, 1)
                        return
                    time.sleep(pressure.retry_after)
                except self._errors:
                    self.tally.add(0, 1)
                    return
        local["append"].append(time.perf_counter() - started)
        s.appends += 1

    def _read(self, api, s: Stream, local) -> None:
        started = time.perf_counter()
        with self.spans.span(f"{api.prefix}.read"):
            reply = self._call(api.scores, s, s.cut + len(s.scores))
        local["read"].append(time.perf_counter() - started)
        s.reads += 1
        if reply is not None:
            s.scores.extend(reply["scores"])

    def _fork(self, api, s: Stream, round_index: int) -> Stream:
        """Snapshot ``s`` and restore it as a new stream driven alongside."""
        started = time.perf_counter()
        with self.spans.span(f"{api.prefix}.snapshot"):
            payload = self._call(api.snapshot, s)
        snapshot_s = time.perf_counter() - started
        copy = Stream(
            s.tenant,
            f"{s.name}-copy",
            s.detector,
            s.series,
            s.batches,
            first_round=round_index,
            cut=0 if payload is None else int(payload["scores_total"]),
        )
        if payload is not None:
            payload["stream"] = f"{s.tenant}/{copy.name}"
            started = time.perf_counter()
            with self.spans.span(f"{api.prefix}.restore"):
                self._call(api.restore, payload)
            with self._lock:
                self.snapshot_s.append(snapshot_s)
                self.restore_s.append(time.perf_counter() - started)
                self.blob_bytes.append(len(base64.b64decode(payload["state"])))
        with self._lock:
            self.copies.append(copy)
        return copy

    @property
    def streams(self) -> "list[Stream]":
        return self.schedule + self.copies

    @property
    def points(self) -> int:
        return sum(s.points for s in self.streams)


def expected_scores(schedule) -> dict:
    """Local ``replay`` of every (series, detector) pair of the schedule."""
    import numpy as np

    from repro.stream import replay

    expected = {}
    for s in schedule:
        key = (s.series.name, s.detector)
        if key not in expected:
            trace = replay(s.series, s.detector, batch_size=BATCH)
            expected[key] = np.asarray(trace.scores[s.series.train_len :])
    return expected


def verify(streams, expected: dict, tally: Tally) -> int:
    """Fail every read of a stream whose served scores differ from replay."""
    import numpy as np

    wrong = 0
    for s in streams:
        served = np.asarray(s.scores, dtype=float)
        served = np.where(np.isnan(served), -np.inf, served)
        want = expected[(s.series.name, s.detector)][s.cut :]
        if served.shape != want.shape or not np.array_equal(served, want):
            tally.add(0, s.reads)
            wrong += 1
    return wrong


_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_prometheus(text: str) -> "list[tuple[str, dict, float]]":
    """``(name, labels, value)`` for every sample line of an exposition."""
    samples = []
    for line in text.splitlines():
        found = _SAMPLE.match(line.strip())
        if found:
            labels = dict(_LABEL.findall(found.group(2) or ""))
            samples.append((found.group(1), labels, float(found.group(3))))
    return samples


def prom_total(samples, name: str) -> float:
    return sum(v for n, labels, v in samples if n == name and "quantile" not in labels)


def prom_quantiles(samples, name: str, quantile: str) -> "list[float]":
    """One value per tenant: the server's own per-tenant summary quantile."""
    return [v for n, labels, v in samples if n == name and labels.get("quantile") == quantile]
