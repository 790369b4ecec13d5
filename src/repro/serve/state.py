"""Snapshot/restore for streaming detector state.

A multi-tenant service cannot promise anything unless per-stream state
can leave the worker that holds it: restarts, rebalancing and shard
migration all need the resident state of a stream — ring buffer,
running statistics, egress queue — to serialize to bytes and come back
*exactly*.  The contract here is strict round-trip parity:

    snapshot at any point → restore anywhere → continue appending
    ⇒ every subsequent score is byte-identical to the uninterrupted
      stream's (same float64 bit patterns, not merely close).

That holds because the capture is bit-exact — every float travels
either as raw little-endian array bytes or through ``repr`` round-trip
JSON (exact for finite and non-finite doubles alike) — and restore
rebuilds the object field-for-field rather than replaying input.  Each
class captures and rebuilds its own fields (``state()`` returns
``(scalars, arrays)``, the classmethod ``from_state`` inverts it and
refuses state that no sequence of appends can produce); this module is
only the byte codec and the table from snapshot kind to class.
``tests/test_serve_state.py`` asserts the contract across the kernel
property families, odd/even window lengths and mid-egress snapshot
points.

Byte format (versioned, deterministic)
--------------------------------------

``b"RSNAP" | version u8 | header_len u64le | header JSON | payloads``

The header is canonical JSON (sorted keys, compact separators) naming
the snapshot ``kind``, scalar fields, and array descriptors
(name/dtype/shape) in sorted-name order; payloads are the arrays' raw
little-endian bytes in that same order.  Two snapshots of identical
state are identical bytes, so snapshots can be content-addressed,
diffed and fingerprinted like every other artifact in the repository.

Supported objects are the classes in :data:`KINDS`:
:class:`~repro.stream.profile.StreamingMatrixProfile` and every shipped
:class:`~repro.stream.adapters.StreamingDetector` (native kernels and
the generic batch adapter).  A
:class:`~repro.stream.adapters.BatchStreamingAdapter` must have been
built from a registry spec (``as_streaming("name(...)")`` keeps it on
the instance) — the wrapped batch detector is rebuilt from the spec and
refitted on the recorded fit prefix, which is deterministic for every
registry detector, so the parity contract extends to wrapped detectors
too.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..stream.adapters import (
    BatchStreamingAdapter,
    StreamingMatrixProfileDetector,
    StreamingRangeDetector,
    StreamingZScoreDetector,
)
from ..stream.profile import StreamingMatrixProfile

__all__ = ["snapshot", "restore", "SNAPSHOT_VERSION"]

_MAGIC = b"RSNAP"
SNAPSHOT_VERSION = 1

#: snapshot kind (the header's ``kind``) -> the class that captures it
#: with ``state()`` and rebuilds it with ``from_state``
KINDS = {
    "stream_profile": StreamingMatrixProfile,
    "mpx_detector": StreamingMatrixProfileDetector,
    "zscore_detector": StreamingZScoreDetector,
    "range_detector": StreamingRangeDetector,
    "batch_adapter": BatchStreamingAdapter,
}


# ---------------------------------------------------------------------------
# codec


def _pack(kind: str, scalars: dict, arrays: dict[str, np.ndarray]) -> bytes:
    ordered = sorted(arrays)
    normalized = {}
    for name in ordered:
        array = np.ascontiguousarray(arrays[name])
        if array.dtype.byteorder == ">":  # stored bytes are little-endian
            array = array.astype(array.dtype.newbyteorder("<"))
        normalized[name] = array
    header = {
        "kind": kind,
        "scalars": scalars,
        "arrays": [
            {
                "name": name,
                "dtype": normalized[name].dtype.str,
                "shape": list(normalized[name].shape),
            }
            for name in ordered
        ],
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    parts = [_MAGIC, struct.pack("<BQ", SNAPSHOT_VERSION, len(header_bytes))]
    parts.append(header_bytes)
    parts.extend(normalized[name].tobytes() for name in ordered)
    return b"".join(parts)


def _unpack(blob: bytes) -> tuple[str, dict, dict[str, np.ndarray]]:
    if not blob.startswith(_MAGIC):
        raise ValueError("not a repro serve snapshot (bad magic)")
    version, header_len = struct.unpack_from("<BQ", blob, len(_MAGIC))
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version}; this build reads "
            f"version {SNAPSHOT_VERSION}"
        )
    offset = len(_MAGIC) + struct.calcsize("<BQ")
    header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    offset += header_len
    arrays = {}
    for descriptor in header["arrays"]:
        dtype = np.dtype(descriptor["dtype"])
        shape = tuple(descriptor["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = dtype.itemsize * count
        arrays[descriptor["name"]] = np.frombuffer(
            blob[offset : offset + nbytes], dtype=dtype
        ).reshape(shape)
        offset += nbytes
    if offset != len(blob):
        raise ValueError(
            f"snapshot has {len(blob) - offset} trailing bytes; truncated "
            f"or corrupted payload"
        )
    return header["kind"], header["scalars"], arrays


# ---------------------------------------------------------------------------
# public entry points


def snapshot(obj) -> bytes:
    """Serialize a streaming kernel or detector to the versioned format."""
    kind = next((k for k, cls in KINDS.items() if type(obj) is cls), None)
    if kind is None:
        raise TypeError(
            f"cannot snapshot {type(obj).__name__}; supported: "
            f"{', '.join(cls.__name__ for cls in KINDS.values())} "
            f"(spec-built)"
        )
    return _pack(kind, *obj.state())


def restore(blob: bytes):
    """Rebuild the object a :func:`snapshot` captured, field-for-field.

    Every blob this cannot decode raises :class:`ValueError`: bad magic,
    an unknown version, a truncated or padded payload, a header that is
    not the one :func:`snapshot` writes, or state that no sequence of
    appends can produce (each class's ``from_state`` checks its own).
    A corrupt blob is therefore the caller's bad input (HTTP 400), not
    a crash of the worker restoring it.
    """
    try:
        kind, scalars, arrays = _unpack(blob)
        if kind not in KINDS:
            raise ValueError(f"unknown snapshot kind {kind!r}")
        return KINDS[kind].from_state(scalars, arrays)
    except (KeyError, OverflowError, TypeError, struct.error) as error:
        raise ValueError(
            f"corrupt snapshot: {type(error).__name__}: {error}"
        ) from error
