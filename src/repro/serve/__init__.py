"""repro.serve — multi-tenant streaming detection service.

The streaming subsystem (:mod:`repro.stream`) can score one stream;
this package turns it into a *service*: many tenants, many streams,
bounded memory and explicit overload behaviour, in one process with
nothing beyond the standard library.  Four layers:

* :mod:`~repro.serve.state` — versioned, deterministic snapshot/restore
  for every streaming detector.  The contract is byte-identical
  continuation: a restored stream scores exactly what the
  uninterrupted one would have.
* :mod:`~repro.serve.shard` — consistent-hash tenant→shard routing
  (:class:`HashRing`), per-shard worker threads with bounded queues and
  append coalescing (:class:`ShardWorker`), backpressure as
  reject-with-retry-after (:class:`Backpressure`), a stream whose
  detector raised isolated as failed (:class:`StreamFailed`), all
  behind the :class:`StreamCluster` facade.
* :mod:`~repro.serve.server` — a stdlib JSON-over-HTTP front
  (:class:`ServeServer`) and blocking client (:class:`ServeClient`);
  backpressure maps to ``429 Retry-After``.
* :mod:`~repro.serve.loadgen` — the serve bench: N interleaved UCR-sim
  streams driven over HTTP through an embedded :class:`ServeServer`,
  scored back through the replay trace machinery so service-path
  detection quality is directly comparable to local replay, plus a
  mid-drive snapshot/restore parity drill on the same server.

See ``docs/serve.md`` for the architecture and the bench methodology.
"""

from .loadgen import (
    LoadConfig,
    LoadResult,
    default_archive,
    format_load,
    run_load,
)
from .server import ServeClient, ServeError, ServeServer
from .shard import (
    Backpressure,
    HashRing,
    ShardWorker,
    StreamCluster,
    StreamFailed,
)
from .state import SNAPSHOT_VERSION, restore, snapshot

__all__ = [
    "snapshot",
    "restore",
    "SNAPSHOT_VERSION",
    "Backpressure",
    "HashRing",
    "ShardWorker",
    "StreamCluster",
    "StreamFailed",
    "ServeServer",
    "ServeClient",
    "ServeError",
    "LoadConfig",
    "LoadResult",
    "default_archive",
    "format_load",
    "run_load",
]
