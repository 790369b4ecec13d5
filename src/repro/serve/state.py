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
rebuilds the object field-for-field rather than replaying input.
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

Supported objects: :class:`~repro.stream.profile.StreamingMatrixProfile`
and every shipped :class:`~repro.stream.adapters.StreamingDetector`
(native kernels and the generic batch adapter).  A
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
from collections import deque

import numpy as np

from ..detectors.registry import DetectorSpec, make_detector
from ..stream.adapters import (
    BatchStreamingAdapter,
    StreamingMatrixProfileDetector,
    StreamingRangeDetector,
    StreamingZScoreDetector,
)
from ..stream.profile import StreamingMatrixProfile, _FrontArray
from ..stream.windows import TrailingExtremum, TrailingStats

__all__ = ["snapshot", "restore", "SNAPSHOT_VERSION"]

_MAGIC = b"RSNAP"
SNAPSHOT_VERSION = 1


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


def _load_front(front: _FrontArray, values: np.ndarray) -> None:
    data = np.array(values, dtype=front._data.dtype)
    if data.size < 16:
        padded = np.empty(16, dtype=front._data.dtype)
        padded[: data.size] = data
        data = padded
    front._data = data
    front._lo = 0
    front._hi = int(np.asarray(values).size)


# ---------------------------------------------------------------------------
# StreamingMatrixProfile


def _capture_profile(profile: StreamingMatrixProfile):
    scalars = {
        "w": profile.w,
        "exclusion": profile.exclusion,
        "max_history": profile.max_history,
        "count": profile.count,
        "shift": profile._shift,
        "scale": profile._scale,
        "run": profile._run,
        "last_raw": profile._last_raw,
        "point_base": profile._point_base,
        "win_base": profile._win_base,
        "egress_base": profile._egress_base,
    }
    arrays = {
        "x": profile._x.view,
        "mean": profile._mean.view,
        "inv": profile._inv.view,
        "const": profile._const.view,
        "best": profile._best.view,
        "qt": profile._qt,
        "egress": np.asarray(profile._egress, dtype=float),
    }
    return scalars, arrays


def _rebuild_profile(scalars: dict, arrays) -> StreamingMatrixProfile:
    profile = StreamingMatrixProfile(
        int(scalars["w"]),
        int(scalars["exclusion"]),
        max_history=(
            None
            if scalars["max_history"] is None
            else int(scalars["max_history"])
        ),
    )
    profile.count = int(scalars["count"])
    profile._shift = float(scalars["shift"])
    profile._scale = float(scalars["scale"])
    profile._run = int(scalars["run"])
    profile._last_raw = (
        None if scalars["last_raw"] is None else float(scalars["last_raw"])
    )
    profile._point_base = int(scalars["point_base"])
    profile._win_base = int(scalars["win_base"])
    profile._egress_base = int(scalars["egress_base"])
    _load_front(profile._x, arrays["x"])
    _load_front(profile._mean, arrays["mean"])
    _load_front(profile._inv, arrays["inv"])
    _load_front(profile._const, arrays["const"])
    _load_front(profile._best, arrays["best"])
    profile._qt = np.array(arrays["qt"], dtype=float)
    profile._egress = [float(value) for value in arrays["egress"]]
    # the counters index into 1-D arrays: a blob whose arrays are not
    # 1-D or disagree with the counters would restore, then fail on its
    # first append
    windows = max(profile.count - profile.w + 1, 0) - profile._win_base
    if not (
        all(np.ndim(array) == 1 for array in arrays.values())
        and profile._point_base == profile._win_base
        and len(profile._x) == profile.count - profile._point_base
        and windows >= 0
        and profile._qt.size == windows
        and all(
            len(front) == windows
            for front in (
                profile._mean,
                profile._inv,
                profile._const,
                profile._best,
            )
        )
        and profile._egress_base + len(profile._egress) == profile._win_base
    ):
        raise ValueError(
            "corrupt snapshot: the profile's arrays are not 1-D or "
            "disagree with its counters"
        )
    return profile


# ---------------------------------------------------------------------------
# trailing-window primitives (state of the native detectors)


def _capture_trailing_stats(stats: TrailingStats):
    return (
        {
            "k": stats.k,
            "shift": stats._shift,
            "sum": stats._sum,
            "sum_sq": stats._sum_sq,
        },
        np.asarray(stats._window, dtype=float),
    )


def _rebuild_trailing_stats(scalars: dict, window: np.ndarray) -> TrailingStats:
    stats = TrailingStats(int(scalars["k"]))
    stats._shift = (
        None if scalars["shift"] is None else float(scalars["shift"])
    )
    stats._sum = float(scalars["sum"])
    stats._sum_sq = float(scalars["sum_sq"])
    stats._window = deque(float(value) for value in window)
    return stats


def _capture_extremum(extremum: TrailingExtremum):
    indices = np.asarray([i for i, _ in extremum._deque], dtype=np.int64)
    values = np.asarray([v for _, v in extremum._deque], dtype=float)
    return extremum._count, indices, values


def _rebuild_extremum(
    k: int, minimum: bool, count: int, indices, values
) -> TrailingExtremum:
    extremum = TrailingExtremum(k, minimum=minimum)
    extremum._count = int(count)
    extremum._deque = deque(
        (int(i), float(v)) for i, v in zip(indices, values)
    )
    return extremum


# ---------------------------------------------------------------------------
# public entry points


def snapshot(obj) -> bytes:
    """Serialize a streaming kernel or detector to the versioned format."""
    if isinstance(obj, StreamingMatrixProfile):
        scalars, arrays = _capture_profile(obj)
        return _pack("stream_profile", scalars, arrays)
    if isinstance(obj, StreamingMatrixProfileDetector):
        scalars, arrays = _capture_profile(obj._profile)
        scalars["detector_w"] = obj.w
        scalars["detector_exclusion"] = obj.exclusion
        scalars["detector_max_history"] = obj.max_history
        return _pack("mpx_detector", scalars, arrays)
    if isinstance(obj, StreamingZScoreDetector):
        scalars, window = _capture_trailing_stats(obj._stats)
        scalars["epsilon"] = obj.epsilon
        return _pack("zscore_detector", scalars, {"window": window})
    if isinstance(obj, StreamingRangeDetector):
        high_count, high_idx, high_val = _capture_extremum(obj._high)
        low_count, low_idx, low_val = _capture_extremum(obj._low)
        return _pack(
            "range_detector",
            {"k": obj.k, "high_count": high_count, "low_count": low_count},
            {
                "high_idx": high_idx,
                "high_val": high_val,
                "low_idx": low_idx,
                "low_val": low_val,
            },
        )
    if isinstance(obj, BatchStreamingAdapter):
        if obj.spec is None:
            raise ValueError(
                "cannot snapshot a BatchStreamingAdapter built from a bare "
                "detector instance; build it from a registry spec "
                "(as_streaming('name(...)')) so restore can rebuild the "
                "wrapped detector"
            )
        scalars = {
            "spec": obj.spec.label,
            "window": obj.window,
            "refit_every": obj.refit_every,
            "since_fit": obj._since_fit,
            "fitted_len": obj._fitted_len,
            # None for the refit_every sugar (and for no policy at all),
            # so legacy streams keep their exact construction path
            "policy": obj.refit_policy,
            "num_refits": obj.num_refits,
        }
        arrays = {"history": np.asarray(obj._history, dtype=float)}
        if obj.policy is not None:
            policy_scalars, policy_arrays = obj.policy.state()
            scalars["policy_state"] = policy_scalars
            arrays.update(
                {
                    f"policy_{name}": value
                    for name, value in policy_arrays.items()
                }
            )
        return _pack("batch_adapter", scalars, arrays)
    raise TypeError(
        f"cannot snapshot {type(obj).__name__}; supported: "
        f"StreamingMatrixProfile, StreamingMatrixProfileDetector, "
        f"StreamingZScoreDetector, StreamingRangeDetector, "
        f"BatchStreamingAdapter (spec-built)"
    )


def restore(blob: bytes):
    """Rebuild the object a :func:`snapshot` captured, field-for-field.

    Every blob this cannot decode raises :class:`ValueError`: bad magic,
    an unknown version, a truncated or padded payload, a header that is
    not the one :func:`snapshot` writes, or a matrix profile whose
    arrays are not 1-D or disagree with its counters.  A corrupt blob is therefore the
    caller's bad input (HTTP 400), not a crash of the worker restoring it.
    """
    try:
        return _rebuild(*_unpack(blob))
    except (KeyError, OverflowError, TypeError, struct.error) as error:
        raise ValueError(
            f"corrupt snapshot: {type(error).__name__}: {error}"
        ) from error


def _rebuild(kind: str, scalars: dict, arrays: dict):
    if kind == "stream_profile":
        return _rebuild_profile(scalars, arrays)
    if kind == "mpx_detector":
        detector = StreamingMatrixProfileDetector(
            w=int(scalars["detector_w"]),
            exclusion=(
                None
                if scalars["detector_exclusion"] is None
                else int(scalars["detector_exclusion"])
            ),
            max_history=(
                None
                if scalars["detector_max_history"] is None
                else int(scalars["detector_max_history"])
            ),
        )
        detector._profile = _rebuild_profile(scalars, arrays)
        return detector
    if kind == "zscore_detector":
        detector = StreamingZScoreDetector(
            k=int(scalars["k"]), epsilon=float(scalars["epsilon"])
        )
        detector._stats = _rebuild_trailing_stats(scalars, arrays["window"])
        return detector
    if kind == "range_detector":
        detector = StreamingRangeDetector(k=int(scalars["k"]))
        detector._high = _rebuild_extremum(
            detector.k,
            False,
            scalars["high_count"],
            arrays["high_idx"],
            arrays["high_val"],
        )
        detector._low = _rebuild_extremum(
            detector.k,
            True,
            scalars["low_count"],
            arrays["low_idx"],
            arrays["low_val"],
        )
        return detector
    if kind == "batch_adapter":
        spec = DetectorSpec.parse(scalars["spec"])
        adapter = BatchStreamingAdapter(
            make_detector(spec),
            window=(
                None if scalars["window"] is None else int(scalars["window"])
            ),
            refit_every=(
                None
                if scalars["refit_every"] is None
                else int(scalars["refit_every"])
            ),
            refit_policy=scalars.get("policy"),
            spec=spec,
        )
        history = np.array(arrays["history"], dtype=float)
        fitted_len = int(scalars["fitted_len"])
        # refit on the recorded prefix: deterministic for every registry
        # detector, so the rebuilt batch state matches the captured one
        adapter.detector.fit(history[:fitted_len])
        adapter._history = history
        adapter._since_fit = int(scalars["since_fit"])
        adapter._fitted_len = fitted_len
        adapter.num_refits = int(scalars.get("num_refits", 0))
        if adapter.policy is not None:
            if "policy_state" in scalars:
                prefix = "policy_"
                adapter.policy.load_state(
                    scalars["policy_state"],
                    {
                        name[len(prefix) :]: value
                        for name, value in arrays.items()
                        if name.startswith(prefix)
                    },
                )
            else:
                # pre-policy blob with refit_every set: the sugar cadence
                # counter tracked _since_fit exactly, so resume it there
                adapter.policy._since = int(scalars["since_fit"])
        return adapter
    raise ValueError(f"unknown snapshot kind {kind!r}")
