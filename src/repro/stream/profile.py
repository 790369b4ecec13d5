"""Incremental z-normalized matrix profile for point-by-point streams.

Everything else in the repository computes profiles in batch hindsight:
the kernel sees the whole series before the first distance exists.
:class:`StreamingMatrixProfile` is the ingestion-shaped counterpart —
points are appended as they arrive and the self-join profile is kept
current after every append, so a deployment can ask "what is this
window's nearest-neighbour distance *right now*" without ever seeing
the future.

The update is the row form of the mpx recurrence the batch kernel
sweeps along diagonals (see ``docs/kernel.md``): with shifted values
``x`` and windows ``T_i = x[i:i+w]``, the dot products of the newest
window against every earlier one satisfy

    qt_j[i] = qt_{j-1}[i-1] - x[i-1]·x[j-1] + x[i+w-1]·x[j+w-1]

so each append costs one O(w) anchor dot (``qt_j[base]``) plus O(m)
vector work — amortized O(n) per append, the same total O(n²) pair
work as the batch sweep, arriving one row at a time.  Correlations come
from the identical mpx scaling ``(qt - w·μ_i·μ_j)·inv_i·inv_j``; the
constant-window conventions (corr 1 constant↔constant, ½ otherwise —
the values the batch kernel's post-pass assigns) are folded *eagerly*
into the running best on both sides of each new pair, so every
resident value is final-ready at all times.  Profiles on any prefix
match :func:`repro.detectors.matrix_profile` within twice the
single-kernel 1e-8 correlation-space contract — each kernel is
independently within 1e-8 of truth (the arithmetic differs only in
the shift and the order of the recurrence), so the cross-comparison
carries both margins.

**Egress mode** bounds memory for unbounded streams: with
``max_history=H`` only the windows fully inside the last ``H`` points
stay updatable.  A window leaving the horizon has seen every partner it
will ever get (new pairs always involve the newest window), so its
profile value is final; it is *egressed* — finalized and queued for
:meth:`~StreamingMatrixProfile.drain_egress` — and its state is
dropped.  The working set is O(H) whatever the stream length, and every
retained value is exact over the pairs that coexisted in the horizon
(a superset-free subset of the batch pairs, so bounded-mode distances
are always >= the unbounded ones).
"""

from __future__ import annotations

import numpy as np

from ..obs import get_registry

__all__ = ["StreamingMatrixProfile"]


class _FrontArray:
    """Growable array whose front can be trimmed in amortized O(1).

    Appends double the capacity; trims advance a head offset and only
    compact (one O(len) copy) once the dead prefix outgrows the live
    data.  Both policies depend solely on the push/trim sequence, so a
    stream appended point-by-point evolves bit-identically however the
    caller batches its appends.
    """

    __slots__ = ("_data", "_lo", "_hi")

    def __init__(self, dtype=float) -> None:
        self._data = np.empty(16, dtype=dtype)
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def view(self) -> np.ndarray:
        """The live slice; invalidated by the next push or trim."""
        return self._data[self._lo : self._hi]

    def push(self, value: float) -> None:
        if self._hi == self._data.size:
            live = self._hi - self._lo
            capacity = max(16, 2 * live)
            if capacity > self._data.size or self._lo > 0:
                fresh = np.empty(capacity, dtype=self._data.dtype)
                fresh[:live] = self._data[self._lo : self._hi]
                self._data = fresh
                self._lo, self._hi = 0, live
        self._data[self._hi] = value
        self._hi += 1

    def trim(self, count: int) -> None:
        if not 0 <= count <= len(self):
            raise ValueError(f"cannot trim {count} of {len(self)}")
        self._lo += count
        if self._lo > max(64, self._hi - self._lo):
            live = self._hi - self._lo
            self._data[:live] = self._data[self._lo : self._hi].copy()
            self._lo, self._hi = 0, live

    def replace(self, values: np.ndarray) -> None:
        """Overwrite the live slice with ``values`` (same length)."""
        if values.size != len(self):
            raise ValueError("replace must preserve length")
        self._data[self._lo : self._hi] = values

    def load(self, values: np.ndarray) -> None:
        """Make the 1-D ``values`` the live slice: the inverse of
        :attr:`view`, for a snapshot restore."""
        data = np.empty(max(16, values.size), dtype=self._data.dtype)
        data[: values.size] = values
        self._data = data
        self._lo, self._hi = 0, int(values.size)


class StreamingMatrixProfile:
    """Append-only self-join matrix profile with bounded-memory egress.

    Parameters mirror :func:`repro.detectors.matrix_profile`: ``w`` is
    the window length, ``exclusion`` the trivial-match half-width
    (default ``w``).  ``max_history`` switches on egress mode: only the
    last ``max_history`` points stay resident and windows leaving that
    horizon are finalized into the egress queue.

    :meth:`append` returns the *arrival-time* distance of every window
    the appended points completed — the score a deployment would act
    on, before any future point can revise it.
    """

    def __init__(
        self,
        w: int,
        exclusion: int | None = None,
        *,
        max_history: int | None = None,
    ) -> None:
        if w < 3:
            raise ValueError(f"window must be >= 3, got {w}")
        self.w = int(w)
        self.exclusion = self.w if exclusion is None else int(exclusion)
        if self.exclusion < 0:
            raise ValueError(f"exclusion must be >= 0, got {self.exclusion}")
        if max_history is not None:
            max_history = int(max_history)
            if max_history < self.w + max(self.exclusion, 1):
                raise ValueError(
                    f"max_history={max_history} leaves no room for any "
                    f"valid pair; need at least w + max(exclusion, 1) = "
                    f"{self.w + max(self.exclusion, 1)} points"
                )
        self.max_history = max_history

        self.count = 0  # points appended so far (stream length)
        self._shift = 0.0  # fixed once the first window completes
        self._scale = 0.0  # running max |shifted|, floors the std
        self._run = 0  # length of the exactly-constant run ending now
        self._last_raw: float | None = None

        self._x = _FrontArray()  # shifted values, global index - point base
        self._point_base = 0  # global index of _x[0] (== window base)
        self._win_base = 0  # global index of the first retained window
        self._mean = _FrontArray()  # per-window shifted mean
        self._inv = _FrontArray()  # per-window 1/(sqrt(w)·std), 0 if const
        self._const = _FrontArray(dtype=bool)
        self._best = _FrontArray()  # per-window running best correlation
        self._qt = np.empty(0)  # newest window's dots with retained windows

        self._egress: list[float] = []
        self._egress_base = 0  # global index of the first queued value

    # -- views --------------------------------------------------------

    @property
    def num_windows(self) -> int:
        """Windows currently resident (and still updatable)."""
        return len(self._best)

    @property
    def window_base(self) -> int:
        """Global start index of the first resident window."""
        return self._win_base

    @property
    def num_egressed(self) -> int:
        """Windows finalized out of the horizon so far."""
        return self._win_base

    def profile(self) -> np.ndarray:
        """Current distances of the resident windows.

        Entry ``i`` is the profile of global window ``window_base + i``.
        Unbounded (``max_history=None``) this equals
        ``matrix_profile(points_so_far, w, exclusion).profile`` within
        the kernels' 1e-8 correlation-space contract.  The running best
        already carries every constant-pair floor (folded eagerly at
        admission, see ``_admit_window``), so the batch kernel's
        constant post-pass has nothing left to add — the conversion is
        a straight correlation → distance map, with ``-inf`` (no pair
        yet) becoming ``inf``.
        """
        best = self._best.view.copy()
        untouched = np.isneginf(best)
        np.clip(best, -1.0, 1.0, out=best)
        distances = np.sqrt(2.0 * self.w * (1.0 - best))
        if untouched.any():
            distances[untouched] = np.inf
        return distances

    def drain_egress(self) -> tuple[int, np.ndarray]:
        """``(global_start, distances)`` finalized since the last drain.

        The returned block is contiguous: entry ``i`` is the final
        profile value of global window ``global_start + i``.  Draining
        clears the queue, keeping egress-mode memory bounded.
        """
        start = self._egress_base
        block = np.asarray(self._egress, dtype=float)
        self._egress = []
        self._egress_base = start + block.size
        if block.size:
            registry = get_registry()
            registry.counter("stream_egress_points").inc(int(block.size))
            registry.counter("stream_egress_drains").inc()
        return start, block

    # -- snapshot support (repro.serve.state) -------------------------

    _FRONTS = ("x", "mean", "inv", "const", "best")

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(scalars, arrays)`` capturing the whole state bit-exactly."""
        scalars = {
            "w": self.w,
            "exclusion": self.exclusion,
            "max_history": self.max_history,
            "count": self.count,
            "shift": self._shift,
            "scale": self._scale,
            "run": self._run,
            "last_raw": self._last_raw,
            "point_base": self._point_base,
            "win_base": self._win_base,
            "egress_base": self._egress_base,
        }
        arrays = {
            name: getattr(self, f"_{name}").view for name in self._FRONTS
        }
        arrays["qt"] = self._qt
        arrays["egress"] = np.asarray(self._egress, dtype=float)
        return scalars, arrays

    @classmethod
    def from_state(
        cls, scalars: dict, arrays: dict[str, np.ndarray]
    ) -> "StreamingMatrixProfile":
        """Rebuild the profile :meth:`state` captured, field for field."""
        max_history = scalars["max_history"]
        last_raw = scalars["last_raw"]
        profile = cls(
            int(scalars["w"]),
            int(scalars["exclusion"]),
            max_history=None if max_history is None else int(max_history),
        )
        profile.count = int(scalars["count"])
        profile._shift = float(scalars["shift"])
        profile._scale = float(scalars["scale"])
        profile._run = int(scalars["run"])
        profile._last_raw = None if last_raw is None else float(last_raw)
        profile._point_base = int(scalars["point_base"])
        profile._win_base = int(scalars["win_base"])
        profile._egress_base = int(scalars["egress_base"])
        # the counters index into 1-D arrays: state whose arrays are not
        # 1-D or disagree with the counters would load, then fail on its
        # first append
        names = (*cls._FRONTS, "qt", "egress")
        if not all(np.ndim(arrays[name]) == 1 for name in names):
            raise ValueError(
                "corrupt snapshot: the profile's arrays are not 1-D"
            )
        for name in cls._FRONTS:
            getattr(profile, f"_{name}").load(arrays[name])
        profile._qt = np.array(arrays["qt"], dtype=float)
        profile._egress = [float(value) for value in arrays["egress"]]
        windows = max(profile.count - profile.w + 1, 0) - profile._win_base
        fronts = (profile._mean, profile._inv, profile._const, profile._best)
        if not (
            profile._point_base == profile._win_base
            and len(profile._x) == profile.count - profile._point_base
            and windows >= 0
            and profile._qt.size == windows
            and all(len(front) == windows for front in fronts)
            and profile._egress_base + len(profile._egress)
            == profile._win_base
        ):
            raise ValueError(
                "corrupt snapshot: the profile's arrays disagree with its "
                "counters"
            )
        return profile

    # -- ingestion ----------------------------------------------------

    def append(self, values) -> np.ndarray:
        """Ingest one value or a 1-D block; return arrival distances.

        The result has one entry per window the new points completed
        (its last entry is the newest window's current nearest-neighbour
        distance); ``inf`` marks a window with no admissible partner
        yet.  Appending point-by-point or in blocks produces identical
        state and identical concatenated arrival distances.
        """
        block = np.atleast_1d(np.asarray(values, dtype=float))
        if block.ndim != 1:
            raise ValueError(f"expected scalar or 1-D values, got {block.shape}")
        arrivals = []
        for value in block:
            distance = self._append_point(float(value))
            if distance is not None:
                arrivals.append(distance)
        return np.asarray(arrivals, dtype=float)

    def _append_point(self, raw: float) -> float | None:
        # constant-run tracking on raw values (exact equality, mirroring
        # the batch kernel's raw-value constant mask)
        self._run = self._run + 1 if raw == self._last_raw else 1
        self._last_raw = raw
        self.count += 1

        if self.count == self.w:
            # the first window just completed: fix the shift at the mean
            # of the raw points so far (the batch kernel uses the global
            # mean; any same-magnitude shift keeps the window products
            # away from catastrophic cancellation, and it must stay
            # fixed — the dot-product recurrence carries it forward)
            pending = self._x.view + 0.0
            self._shift = float((pending.sum() + raw) / self.count)
            self._x.replace(pending - self._shift)
            self._scale = float(np.abs(self._x.view).max())
        self._x.push(raw - self._shift)
        self._scale = max(self._scale, abs(raw - self._shift))

        if self.count < self.w:
            return None
        distance = self._admit_window(self.count - self.w)
        if self.max_history is not None:
            self._evict_until(self.count - self.max_history)
        return distance

    # -- internals ----------------------------------------------------

    def _window_stats(self, j: int) -> tuple[float, float, bool]:
        """(shifted mean, inv-scaled std, constant) for global window j."""
        w = self.w
        window = self._x.view[j - self._point_base : j - self._point_base + w]
        mean = float(window.sum() / w)
        constant = self._run >= w
        if constant:
            return mean, 0.0, True
        variance = max(float(window @ window) / w - mean * mean, 0.0)
        std = float(np.sqrt(variance))
        # same near-constant floor as SlidingStats.kernel_stats, with the
        # running scale standing in for the batch kernel's global one
        floor = max(np.finfo(float).eps * self._scale, np.finfo(float).tiny)
        return mean, 1.0 / (np.sqrt(w) * max(std, floor)), False

    def _admit_window(self, j: int) -> float:
        """Create window ``j`` (= newest), update the profile row."""
        w, base, pb = self.w, self._win_base, self._point_base
        x = self._x.view
        mean_j, inv_j, const_j = self._window_stats(j)
        self._mean.push(mean_j)
        self._inv.push(inv_j)
        self._const.push(const_j)

        if j == base:  # the very first resident window
            qt0 = float(x[j - pb : j - pb + w] @ x[j - pb : j - pb + w])
            self._qt = np.array([qt0])
            # with exclusion 0 the batch sweep includes the self-pair
            best_j = -np.inf
            if self.exclusion == 0:
                best_j = (
                    1.0
                    if const_j
                    else (qt0 - w * mean_j * mean_j) * inv_j * inv_j
                )
            self._best.push(best_j)
            return self._distance(best_j)

        # row recurrence: dots of window j against [base .. j], from the
        # previous row's dots of window j-1 against [base .. j-1]
        qt = np.empty(j - base + 1)
        qt[1:] = (
            self._qt
            - x[base - pb : j - pb] * x[j - 1 - pb]
            + x[base + w - pb : j + w - pb] * x[j + w - 1 - pb]
        )
        qt[0] = float(x[base - pb : base + w - pb] @ x[j - pb : j + w - pb])
        self._qt = qt

        best_j = -np.inf
        hi = j - self.exclusion  # last admissible partner index
        if hi >= base:
            k = hi - base + 1
            mean = self._mean.view
            inv = self._inv.view
            corr = (qt[:k] - w * mean[:k] * mean_j) * inv[:k] * inv_j
            # the new window's own best slot is pushed below; with
            # exclusion 0 the last corr entry is its self-pair
            partners = min(k, j - base)
            resident = self._best.view
            np.maximum(
                resident[:partners], corr[:partners], out=resident[:partners]
            )
            best_j = float(corr.max())
            # constant-pair conventions, applied eagerly: a pair touching
            # a constant window flows through the sweep as corr 0 (its
            # inverse std is 0), but its true value is known exactly —
            # 1 for constant↔constant, ½ for constant↔non-constant — so
            # folding it into the running best *now*, on both sides of
            # the pair, keeps every resident value final-ready; eviction
            # never needs to know whether a constant partner is still
            # resident (the batch post-pass in ``_finalize`` only
            # re-asserts these same floors)
            const_res = self._const.view[:partners]
            if const_j:
                if partners:
                    np.maximum(
                        resident[:partners],
                        np.where(const_res, 1.0, 0.5),
                        out=resident[:partners],
                    )
                    best_j = 1.0 if const_res.any() else 0.5
                if self.exclusion == 0:
                    best_j = 1.0  # the self-pair is admissible and constant
            elif const_res.any():
                # the resident constant windows also gained a ½-corr pair
                np.maximum(
                    resident[:partners],
                    np.where(const_res, 0.5, -np.inf),
                    out=resident[:partners],
                )
                best_j = max(best_j, 0.5)
        self._best.push(best_j)
        return self._distance(best_j)

    def _distance(self, best: float) -> float:
        """Correlation → z-normalized distance (−inf = no pair yet)."""
        if best == -np.inf:
            return np.inf
        best = min(max(best, -1.0), 1.0)
        return float(np.sqrt(2.0 * self.w * (1.0 - best)))

    def _evict_until(self, horizon: int) -> None:
        """Egress every window starting before ``horizon``.

        The running best already carries the constant-pair floors (see
        ``_admit_window``), so the evicted value is exact over every
        pair that coexisted in the horizon — no resident-state lookups.
        """
        while self._win_base < min(horizon, self.count - self.w + 1):
            self._egress.append(self._distance(float(self._best.view[0])))
            for array in (self._mean, self._inv, self._const, self._best):
                array.trim(1)
            self._qt = self._qt[1:]
            self._win_base += 1
            self._x.trim(self._win_base - self._point_base)
            self._point_base = self._win_base
