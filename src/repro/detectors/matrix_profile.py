"""Matrix profile (mpx diagonal kernel) and time series discords.

The paper repeatedly benchmarks against "time series discords" ([19],
[21]; Fig 8 and Fig 13) — the subsequence whose z-normalized Euclidean
distance to its nearest non-overlapping neighbour is largest.  The matrix
profile gives every subsequence's nearest-neighbour distance; its argmax
is the discord.

Implementation: an mpx-style diagonal traversal of the self-join.  Per-
window mean, inverse std and the differential update terms are computed
once (O(n), via :mod:`repro.detectors.sliding`); each diagonal of the
distance matrix then updates Pearson correlations with a single cumsum —
one O(n − d) vector op per diagonal, self-join symmetry filling both
triangles at once — and correlations become distances only at the very
end.  Diagonals are processed in blocks so the per-diagonal numpy
dispatch overhead amortizes away; a skewed stride view aligns each
block's anti-diagonals so the symmetric (column-side) maximum is one
reduction instead of a copy.  Compared with the retained per-row STOMP
loop (:func:`repro.detectors.reference.stomp_profile`) this is ~3.3×
faster at n = 20,000 on one core (see the committed ``BENCH_<n>.json``
trajectory under ``benchmarks/perf/``); compared with the O(n²·w) brute
force it is ~50× faster, at identical profiles to ~1e-10.

Each block's column sweep is **chunked**: the reusable row buffer covers
a fixed-width column window instead of the whole series, and the raw
covariance cumsum is carried across chunk boundaries.  Because
``np.cumsum`` accumulates strictly sequentially, the carried sum enters
the next chunk as exactly the addition the unchunked cumsum would have
performed, so profiles are *bit-identical* for every chunk width.  The
working set drops from O(block · n) (~2 GB at n = 1e6) to
O(block · chunk); pass ``max_memory_bytes=`` to auto-derive the widest
chunk that fits a byte budget, tracked by exact allocation accounting
(see docs/kernel.md for the memory model and the chunk-carry
derivation).

Where a C compiler is available, each block is swept by the compiled
kernel in ``_mpx.c`` instead (built on first use and loaded by
:mod:`repro.detectors.native`): the same additions in the same order,
O(m) scratch with no chunks, bit-identical profiles and indices, about
eight times the pairs per second of the numpy sweep on one core.  The
numpy sweep stays as the fallback and as the tests' oracle; ``_sweep``
picks between them.

Exactly-constant windows have no z-normalization; they are fixed up in a
vectorized post-pass with the same convention as before: distance 0
between two constant windows, ``sqrt(w)`` between a constant and a
non-constant window.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs import get_registry, get_tracer
from . import native
from .base import Detector
from .sliding import SlidingStats, moving_mean_std, sliding_max

__all__ = [
    "sliding_dot_products",
    "moving_mean_std",
    "matrix_profile",
    "MatrixProfileResult",
    "ApproxReport",
    "discord_search",
    "discords",
    "subsequence_to_point_scores",
    "MatrixProfileDetector",
    "parse_memory_size",
    "set_default_memory_budget",
    "default_memory_budget",
    "set_default_kernel_jobs",
    "default_kernel_jobs",
]

# diagonals per kernel block, large enough to amortize numpy dispatch.
# The block buffers are column-chunked (see _diagonal_sweep): with an
# explicit chunk width (or a max_memory_bytes budget) the working set is
# O(block · chunk); with neither it degenerates to one full-width chunk,
# i.e. the historical O(block · n) footprint (~2 GB at n = 1e6).
_DIAG_BLOCK = 128
_ELEM = np.dtype(float).itemsize

# process-wide default for matrix_profile(..., max_memory_bytes=); the
# environment variable lets `repro score/run --max-memory` reach engine
# worker processes whatever their start method is.
_MEMORY_ENV = "REPRO_MAX_MEMORY"
_default_memory_budget: int | None = None

_MEMORY_UNITS = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_memory_size(text: "str | int") -> int:
    """``268435456``, ``"256M"``, ``"0.5G"``, ``"64MiB"`` → bytes."""
    if isinstance(text, (int, np.integer)):
        value = int(text)
    else:
        cleaned = str(text).strip().lower()
        if cleaned.endswith("ib"):
            cleaned = cleaned[:-2]
        elif cleaned.endswith("b"):
            cleaned = cleaned[:-1]
        factor = 1
        if cleaned and cleaned[-1] in _MEMORY_UNITS:
            factor = _MEMORY_UNITS[cleaned[-1]]
            cleaned = cleaned[:-1]
        try:
            value = int(float(cleaned) * factor)
        except ValueError:
            raise ValueError(
                f"unparseable memory size {text!r}; use plain bytes or a "
                f"K/M/G/T suffix (e.g. 256M, 1G)"
            ) from None
    if value <= 0:
        raise ValueError(f"memory size must be positive, got {text!r}")
    return value


def set_default_memory_budget(max_memory_bytes: "int | None") -> None:
    """Set the process-wide default matrix-profile memory budget.

    ``None`` removes the cap.  The value is mirrored into the
    ``REPRO_MAX_MEMORY`` environment variable so evaluation-engine
    worker processes inherit it (fork *and* spawn start methods); this
    is how ``repro score/run --max-memory`` bounds every cell.
    """
    global _default_memory_budget
    if max_memory_bytes is not None:
        max_memory_bytes = int(max_memory_bytes)
        if max_memory_bytes <= 0:
            raise ValueError(
                f"max_memory_bytes must be positive, got {max_memory_bytes}"
            )
    _default_memory_budget = max_memory_bytes
    if max_memory_bytes is None:
        os.environ.pop(_MEMORY_ENV, None)
    else:
        os.environ[_MEMORY_ENV] = str(max_memory_bytes)


def default_memory_budget() -> "int | None":
    """The active default budget: explicit setting, else environment."""
    if _default_memory_budget is not None:
        return _default_memory_budget
    raw = os.environ.get(_MEMORY_ENV)
    if not raw:
        return None
    return parse_memory_size(raw)


# process-wide default for matrix_profile(..., jobs=); mirrored into the
# environment exactly like the memory budget so `repro ... --kernel-jobs`
# reaches engine worker processes, where the engine caps it back to 1 to
# keep one level of process parallelism (no nested pools).
_JOBS_ENV = "REPRO_KERNEL_JOBS"
_default_kernel_jobs: int | None = None


def set_default_kernel_jobs(jobs: "int | None") -> None:
    """Set the process-wide default for ``matrix_profile(..., jobs=)``.

    ``None`` removes the default (sweeps stay single-process and
    unsharded).  The value is mirrored into ``REPRO_KERNEL_JOBS`` so
    worker processes inherit it whatever their start method; the
    evaluation engine's pool initializer caps an inherited default to 1
    so engine parallelism and kernel parallelism never multiply.
    """
    global _default_kernel_jobs
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"kernel jobs must be >= 1, got {jobs}")
    _default_kernel_jobs = jobs
    if jobs is None:
        os.environ.pop(_JOBS_ENV, None)
    else:
        os.environ[_JOBS_ENV] = str(jobs)


def default_kernel_jobs() -> "int | None":
    """The active default kernel jobs: explicit setting, else environment."""
    if _default_kernel_jobs is not None:
        return _default_kernel_jobs
    raw = os.environ.get(_JOBS_ENV)
    if not raw:
        return None
    jobs = int(raw)
    if jobs < 1:
        raise ValueError(f"{_JOBS_ENV} must be >= 1, got {raw!r}")
    return jobs


def sliding_dot_products(query: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Dot product of ``query`` with every window of ``series`` (FFT)."""
    query = np.asarray(query, dtype=float)
    series = np.asarray(series, dtype=float)
    m, n = query.size, series.size
    if m > n:
        raise ValueError(f"query ({m}) longer than series ({n})")
    size = 1 << int(np.ceil(np.log2(n + m)))
    fft_series = np.fft.rfft(series, size)
    fft_query = np.fft.rfft(query[::-1], size)
    product = np.fft.irfft(fft_series * fft_query, size)
    return product[m - 1 : n]


@dataclass(frozen=True)
class ApproxReport:
    """Convergence/error report for an anytime (``approx=``) profile.

    The anytime mode sweeps only the *leading* diagonals — pair
    separations in ``[exclusion, exclusion + diagonals_swept)`` — so
    every reported value is a **pointwise upper bound** on the exact
    nearest-neighbour distance (a subset of candidate neighbours can
    only raise the minimum distance), and the bound is **monotone**:
    sweeping a larger fraction never loosens any entry, because a
    larger fraction covers a superset of diagonals and the shared
    prefix is computed bit-identically.

    ``fraction`` is what the caller asked for; ``fraction_swept`` what
    the kernel actually covered after rounding the diagonal count up to
    whole kernel blocks (always ``>= fraction``).  ``exact`` is True
    when the rounding reached full coverage — the result then *is* the
    exact profile.  Measured deviation from exact is deliberately not a
    field: computing it would cost the full sweep the mode exists to
    avoid; the ``anytime`` bench section measures it on fixtures.
    """

    fraction: float  # requested share of the pair budget
    fraction_swept: float  # actual share after block rounding
    pairs_swept: int
    pairs_total: int
    diagonals_swept: int
    diagonals_total: int
    exact: bool

    def to_json(self) -> dict:
        return {
            "fraction": self.fraction,
            "fraction_swept": self.fraction_swept,
            "pairs_swept": self.pairs_swept,
            "pairs_total": self.pairs_total,
            "diagonals_swept": self.diagonals_swept,
            "diagonals_total": self.diagonals_total,
            "exact": self.exact,
            "guarantee": "upper_bound",
        }


def _leading_pairs(limit: int, total_diagonals: int) -> int:
    """Pairs on the first ``limit`` diagonals (of ``total_diagonals``).

    Diagonal ``k`` of the ``L`` admissible ones holds ``L - k`` …
    ``1`` pairs going outward, i.e. the leading diagonals are the
    heaviest; this closed form is what the anytime mode and the bench
    extrapolation both budget with.
    """
    limit = min(int(limit), int(total_diagonals))
    return limit * int(total_diagonals) - limit * (limit - 1) // 2


def _diag_limit_for_pairs(target_pairs: int, total_diagonals: int) -> int:
    """Smallest leading-diagonal count covering ``target_pairs`` pairs."""
    low, high = 1, max(1, int(total_diagonals))
    while low < high:
        mid = (low + high) // 2
        if _leading_pairs(mid, total_diagonals) >= target_pairs:
            high = mid
        else:
            low = mid + 1
    return low


def _resolve_approx(
    approx: "float | None", total_diagonals: int, block: int = _DIAG_BLOCK
) -> "tuple[int | None, ApproxReport | None]":
    """Turn an ``approx=`` fraction into a diagonal limit plus report.

    The limit is rounded *up* to whole kernel blocks because the sweep
    always processes full blocks — the report accounts for what is
    actually swept, not what was asked for.  Full coverage after
    rounding degrades gracefully to the exact sweep (``limit=None``).
    """
    if approx is None:
        return None, None
    fraction = float(approx)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"approx must be in (0, 1], got {approx!r}")
    L = int(total_diagonals)
    if L <= 0:
        return None, ApproxReport(
            fraction=fraction,
            fraction_swept=1.0,
            pairs_swept=0,
            pairs_total=0,
            diagonals_swept=0,
            diagonals_total=0,
            exact=True,
        )
    total_pairs = _leading_pairs(L, L)
    target = max(1, int(np.ceil(fraction * total_pairs)))
    limit = _diag_limit_for_pairs(target, L)
    covered = min(L, block * ((limit + block - 1) // block))
    pairs_swept = _leading_pairs(covered, L)
    report = ApproxReport(
        fraction=fraction,
        fraction_swept=pairs_swept / total_pairs,
        pairs_swept=pairs_swept,
        pairs_total=total_pairs,
        diagonals_swept=covered,
        diagonals_total=L,
        exact=covered >= L,
    )
    return (None if covered >= L else covered), report


@dataclass
class MatrixProfileResult:
    """Self-join matrix profile for window length ``w``.

    ``indices`` is ``None`` when the profile was computed with
    ``with_indices=False`` (the fast path detectors use — nothing on the
    scoring path reads neighbour locations).  ``chunk_width`` and
    ``workspace_bytes`` record how the sweep was tiled: the column-chunk
    width resolved for the numpy sweep (``None`` = one full-width chunk;
    sharded sweeps derive a width per shard, so only an explicit
    ``chunk_width`` is echoed back; the compiled sweep needs no chunks)
    and the exact bytes of sweep scratch it allocated, from the kernel's
    allocation accounting — for a sharded sweep the *largest single
    shard*, the per-worker number ``max_memory_bytes`` divides by
    ``jobs`` to bound.

    ``jobs``/``shards`` record how a parallel sweep executed (``None``/
    ``0`` for the single-sweep path); ``report`` is the anytime mode's
    :class:`ApproxReport` (``None`` for exact sweeps) — when present,
    ``profile`` is a pointwise upper bound and ``indices`` are the
    best neighbours *among the pairs swept*, the witnesses of that
    bound.
    """

    w: int
    profile: np.ndarray  # nearest-neighbour distance per subsequence
    indices: np.ndarray | None  # nearest-neighbour location per subsequence
    chunk_width: int | None = None
    workspace_bytes: int | None = None
    jobs: int | None = None
    shards: int = 0
    report: ApproxReport | None = None

    @property
    def discord_index(self) -> int:
        """Start index of the top discord subsequence."""
        return int(np.argmax(np.where(np.isfinite(self.profile), self.profile, -np.inf)))


class _Workspace:
    """Accounting allocator for one diagonal sweep's scratch arrays.

    Every array the sweep allocates goes through here, so the recorded
    byte total *is* the sweep's working set — ``max_memory_bytes`` and
    the budget regression tests key off it rather than off wall-clock
    or RSS sampling.  The O(n) inputs (series, per-window stats) belong
    to the caller and are not counted; docs/kernel.md tabulates the
    full memory model.
    """

    __slots__ = ("bytes",)

    def __init__(self) -> None:
        self.bytes = 0

    def _track(self, array: np.ndarray) -> np.ndarray:
        self.bytes += array.nbytes
        return array

    def empty(self, shape, dtype=float) -> np.ndarray:
        return self._track(np.empty(shape, dtype=dtype))

    def zeros(self, shape, dtype=float) -> np.ndarray:
        return self._track(np.zeros(shape, dtype=dtype))

    def full(self, shape, value: float) -> np.ndarray:
        return self._track(np.full(shape, value))

    def arange(self, stop: int) -> np.ndarray:
        return self._track(np.arange(stop, dtype=np.int64))


def _sweep_allocation_bytes(
    m: int,
    exclusion: int,
    *,
    need_indices: bool,
    chunk: "int | None" = None,
    block: int = _DIAG_BLOCK,
) -> int:
    """Exact bytes :func:`_diagonal_sweep` will allocate.

    Kept in lockstep with the sweep's ``ws.*`` calls (a tier-1 test
    asserts equality with the live accounting); the budget solver uses
    it to derive chunk widths without trial allocations.
    """
    total = m * _ELEM  # best
    if need_indices:
        total += m * 8  # bestj (int64)
    if exclusion >= m:
        return total
    total += 3 * (m + block) * _ELEM  # dfp, dgp, invp
    total += 2 * m * _ELEM  # c0 + anchor scratch
    L0 = m - exclusion
    B0 = min(block, L0)
    cw0 = L0 if chunk is None else max(1, min(int(chunk), L0))
    sw0 = cw0 + B0
    total += B0 * (cw0 + B0) * _ELEM  # buf (chunk columns + skew padding)
    total += B0 * cw0 * _ELEM  # tmp (second product term)
    total += B0 * _ELEM  # carry
    total += sw0 * _ELEM  # rowval
    if need_indices:
        wide = max(sw0, L0)
        total += sw0 * 8  # rowarg (intp)
        total += wide * 8  # tmpj (int64)
        total += wide * 1  # upd (bool)
        total += L0 * _ELEM  # colval
        total += L0 * 8  # colarg (intp)
        total += m * 8  # idx (int64)
    return total


def _chunk_for_budget(
    m: int,
    exclusion: int,
    max_memory_bytes: int,
    *,
    need_indices: bool,
    block: int = _DIAG_BLOCK,
) -> int:
    """Widest chunk whose sweep workspace fits ``max_memory_bytes``."""
    if exclusion >= m:
        return 1  # degenerate: the sweep allocates no block buffers
    floor = _sweep_allocation_bytes(
        m, exclusion, need_indices=need_indices, chunk=1, block=block
    )
    if floor > max_memory_bytes:
        raise ValueError(
            f"max_memory_bytes={max_memory_bytes} is below the sweep's "
            f"minimum working set of {floor} bytes (chunk width 1, "
            f"{m} subsequences); the O(n) recurrence vectors cannot be "
            f"tiled away"
        )
    low, high = 1, m - exclusion
    while low < high:
        mid = (low + high + 1) // 2
        fits = (
            _sweep_allocation_bytes(
                m, exclusion, need_indices=need_indices, chunk=mid, block=block
            )
            <= max_memory_bytes
        )
        if fits:
            low = mid
        else:
            high = mid - 1
    return low


def _resolve_chunk(
    m: int,
    exclusion: int,
    max_memory_bytes: "int | None",
    chunk_width: "int | None",
    *,
    need_indices: bool,
) -> "int | None":
    """Pick the sweep's column-chunk width.

    An explicit ``chunk_width`` wins; otherwise a budget (argument or
    process-wide default) derives the widest fitting chunk; otherwise
    ``None`` keeps the historical single full-width chunk.
    """
    if chunk_width is not None:
        chunk_width = int(chunk_width)
        if chunk_width < 1:
            raise ValueError(f"chunk_width must be >= 1, got {chunk_width}")
        return chunk_width
    budget = (
        max_memory_bytes if max_memory_bytes is not None else default_memory_budget()
    )
    if budget is None:
        return None
    return _chunk_for_budget(m, exclusion, int(budget), need_indices=need_indices)


def _alive_min(best: np.ndarray, exclusion: int) -> float:
    """Smallest running correlation over rows that have any valid pair.

    Rows in ``[m - exclusion, exclusion)`` (non-empty only when
    ``2 * exclusion > m``) can never pair with anything; their -inf
    sentinel must not block early abandonment.
    """
    m = best.size
    if 2 * exclusion <= m:
        return float(best.min())
    candidates = []
    if m - exclusion > 0:
        candidates.append(float(best[: m - exclusion].min()))
    if exclusion < m:
        candidates.append(float(best[exclusion:].min()))
    return min(candidates) if candidates else np.inf


def _sweep_inputs(
    x: np.ndarray,
    w: int,
    mean: np.ndarray,
    inv: np.ndarray,
    ws: _Workspace,
    block: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """The O(n) inputs both sweeps read: ``dfp``, ``dgp``, ``invp``, ``c0``.

    The three recurrence vectors are zero-padded by ``block`` so a
    block's rows may read past the last subsequence without a bounds
    check; ``c0[d]`` is the raw covariance of window 0 with window
    ``d``, the start of diagonal ``d``'s running sum.
    """
    n = x.size
    m = n - w + 1
    # differential update terms (the mpx formulation): along diagonal d,
    # cov(i, i+d) = cov(i-1, i-1+d) + df[i]·dg[i+d] + df[i+d]·dg[i]
    dfp = ws.zeros(m + block)
    dgp = ws.zeros(m + block)
    invp = ws.zeros(m + block)
    dfp[1:m] = 0.5 * (x[w:] - x[: n - w])
    dgp[1:m] = (x[w:] - mean[1:]) + (x[: m - 1] - mean[: m - 1])
    invp[:m] = inv

    # exact anchor covariance per diagonal; np.correlate keeps full
    # double precision (an FFT here would cost ~1e-8 relative noise on
    # large-amplitude series)
    q = x[:w] - mean[0]
    c0 = np.correlate(x, q, mode="valid")
    ws.bytes += c0.nbytes
    anchor = ws.empty(m)
    np.multiply(mean, q.sum(), out=anchor)
    c0 -= anchor
    return dfp, dgp, invp, c0


def _diagonal_sweep(
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    abandon: float | None = None,
    block: int = _DIAG_BLOCK,
    chunk: int | None = None,
    diag_limit: int | None = None,
    tracer=None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """mpx diagonal traversal over the (mean-shifted) series ``x``.

    ``tracer`` is an *enabled* :class:`repro.obs.Tracer` or ``None``
    (the default and the fast path): the hot loops pay one ``is not
    None`` test per block/chunk, so un-traced sweeps stay within noise
    of the pre-instrumentation kernel — the ``obs`` bench section
    measures exactly this.  When tracing, each diagonal block emits an
    ``mpx.block`` span and each column chunk inside it an ``mpx.chunk``
    span (explicit start/finish, keeping the loop bodies unindented).

    Returns ``(best_correlation, best_index, workspace_bytes)`` per
    subsequence (the index array is ``None`` unless ``need_indices``;
    ``workspace_bytes`` is the exact scratch footprint from allocation
    accounting), or ``None`` when ``abandon`` is given and every
    subsequence's running correlation already exceeds it — i.e. no
    subsequence can still beat the corresponding distance floor.

    ``chunk`` bounds the column width of the block buffers: each
    diagonal block is swept in fixed-width column chunks, the raw
    covariance cumsum carried across chunk boundaries, shrinking the
    working set from O(block · n) to O(block · chunk).  The carry is
    the exact running sum at the boundary and ``np.cumsum`` accumulates
    strictly sequentially, so the float additions happen in the same
    order whatever the width — results are bit-identical to the
    unchunked sweep (``chunk=None``, one full-width chunk).

    ``diag_limit`` stops after that many diagonals, covering only pairs
    with separation in ``[exclusion, exclusion + diag_limit)``.  The
    scaling bench uses it to measure the peak working set (the first
    block's buffers are the widest) and extrapolate timings without
    paying the full O(m²) sweep; the partial ``best`` it returns is
    *not* a valid profile.
    """
    m = x.size - w + 1
    ws = _Workspace()
    best = ws.full(m, -np.inf)
    bestj = ws.zeros(m, dtype=np.int64) if need_indices else None
    if exclusion >= m:
        return best, bestj, ws.bytes
    dfp, dgp, invp, c0 = _sweep_inputs(x, w, mean, inv, ws, block)

    L0 = m - exclusion
    B0 = min(block, L0)
    cw0 = L0 if chunk is None else max(1, min(int(chunk), L0))
    sw0 = cw0 + B0  # widest skewed-reduction target
    buf = ws.empty((B0, cw0 + B0))
    tmp = ws.empty((B0, cw0))
    carry = ws.empty(B0)
    rowval = ws.empty(sw0)
    if need_indices:
        wide = max(sw0, L0)
        rowarg = ws.empty(sw0, dtype=np.intp)
        tmpj = ws.empty(wide, dtype=np.int64)
        upd = ws.empty(wide, dtype=bool)
        colval = ws.empty(L0)
        colarg = ws.empty(L0, dtype=np.intp)
        idx = ws.arange(m)

    stop = m if diag_limit is None else min(m, exclusion + int(diag_limit))
    for d in range(exclusion, stop, block):
        B = min(block, m - d)
        L = m - d
        if tracer is not None:
            block_span = tracer.start_span("mpx.block", d=d, rows=B)
        if need_indices:
            colval[:L].fill(-np.inf)
        for p0 in range(0, L, cw0):
            p1 = min(p0 + cw0, L)
            cw = p1 - p0
            if tracer is not None:
                chunk_span = tracer.start_span("mpx.chunk", p0=p0, cols=cw)
            rowlen = cw + B
            # block rows live in one reusable buffer; B padding columns
            # past each row hold -inf so the skewed view below reads a
            # neutral element wherever it crosses a row boundary
            CB = as_strided(buf, shape=(B, rowlen), strides=(rowlen * _ELEM, _ELEM))
            CB[:, cw:] = -np.inf
            C = CB[:, :cw]
            lo = max(p0, 1)  # global column 0 holds the anchor, not a product
            if p1 > lo:
                span = p1 - lo
                off = lo - p0
                Vdg = as_strided(
                    dgp[d + lo :], shape=(B, span), strides=(_ELEM, _ELEM)
                )
                Vdf = as_strided(
                    dfp[d + lo :], shape=(B, span), strides=(_ELEM, _ELEM)
                )
                t = as_strided(
                    tmp, shape=(B, span), strides=(tmp.strides[0], _ELEM)
                )
                np.multiply(Vdg, dfp[lo:p1], out=C[:, off:])
                np.multiply(Vdf, dgp[lo:p1], out=t)
                C[:, off:] += t
            if p0 == 0:
                C[:, 0] = c0[d : d + B]
            else:
                # chunk-carry: the raw covariance cumsum resumes from the
                # previous chunk's last column, so s_{p0} = carry + a_{p0}
                # is the very addition the unchunked cumsum would perform
                C[:, 0] += carry[:B]
            np.cumsum(C, axis=1, out=C)
            carry[:B] = C[:, cw - 1]  # raw sums, before correlation scaling
            C *= invp[p0:p1]
            Vinv = as_strided(
                invp[d + p0 :], shape=(B, cw), strides=(_ELEM, _ELEM)
            )
            C *= Vinv
            # row b covers diagonal d+b whose true length is L-b: blank
            # whatever part of the short tail falls inside this chunk so
            # reductions never see stale pairs
            if L - B + 1 < p1:
                for b in range(max(1, L - p1 + 1), B):
                    CB[b, max(L - b - p0, 0) : cw] = -np.inf
            # skewed view: S[b, p] = C[b, p-b], so column p collects every
            # correlation whose *larger* index is d+p0+p — the symmetric
            # half of the self-join
            sw = min(cw + B - 1, L - p0)
            S = as_strided(
                CB, shape=(B, sw), strides=((rowlen - 1) * _ELEM, _ELEM)
            )
            if need_indices:
                C.max(axis=0, out=rowval[:cw])
                C.argmax(axis=0, out=rowarg[:cw])
                np.greater(rowval[:cw], best[p0:p1], out=upd[:cw])
                np.copyto(best[p0:p1], rowval[:cw], where=upd[:cw])
                np.add(rowarg[:cw], idx[d + p0 : d + p1], out=tmpj[:cw])
                np.copyto(bestj[p0:p1], tmpj[:cw], where=upd[:cw])
                S.max(axis=0, out=rowval[:sw])
                S.argmax(axis=0, out=rowarg[:sw])
                # merge ties with >=: later chunks hold strictly smaller
                # row offsets for the same column, so the final winner is
                # the first-occurrence argmax the unchunked reduction
                # picks — neighbour indices stay bit-identical too
                np.greater_equal(
                    rowval[:sw], colval[p0 : p0 + sw], out=upd[:sw]
                )
                np.copyto(colval[p0 : p0 + sw], rowval[:sw], where=upd[:sw])
                np.copyto(colarg[p0 : p0 + sw], rowarg[:sw], where=upd[:sw])
            else:
                C.max(axis=0, out=rowval[:cw])
                np.maximum(best[p0:p1], rowval[:cw], out=best[p0:p1])
                S.max(axis=0, out=rowval[:sw])
                np.maximum(
                    best[d + p0 : d + p0 + sw],
                    rowval[:sw],
                    out=best[d + p0 : d + p0 + sw],
                )
            if tracer is not None:
                tracer.end_span(chunk_span)
        if need_indices:
            np.greater(colval[:L], best[d:], out=upd[:L])
            np.copyto(best[d:], colval[:L], where=upd[:L])
            np.subtract(idx[:L], colarg[:L], out=tmpj[:L])
            np.copyto(bestj[d:], tmpj[:L], where=upd[:L])
        if tracer is not None:
            tracer.end_span(block_span)
        if abandon is not None and _alive_min(best, exclusion) >= abandon:
            return None
    return best, bestj, ws.bytes


def _compiled_sweep(
    lib,
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    abandon: float | None = None,
    block: int = _DIAG_BLOCK,
    diag_limit: int | None = None,
    tracer=None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """:func:`_diagonal_sweep` with each block swept by the C kernel.

    Same inputs, same block loop (``mpx.block`` spans, the per-block
    ``abandon`` check, ``diag_limit``) and bit-identical results; the
    kernel needs O(m) scratch, so there are no column chunks to tile.
    """
    m = x.size - w + 1
    ws = _Workspace()
    best = ws.full(m, -np.inf)
    bestj = ws.zeros(m, dtype=np.int64) if need_indices else None
    if exclusion >= m:
        return best, bestj, ws.bytes
    dfp, dgp, invp, c0 = _sweep_inputs(x, w, mean, inv, ws, block)
    L0 = m - exclusion
    sums = ws.empty(min(block, L0))
    head = (dfp.ctypes.data, dgp.ctypes.data, invp.ctypes.data, c0.ctypes.data)
    if need_indices:
        colval = ws.empty(L0)
        colarg = ws.empty(L0, dtype=np.int64)
        tail = (sums.ctypes.data, best.ctypes.data, bestj.ctypes.data,
                colval.ctypes.data, colarg.ctypes.data)
        kernel = lib.mpx_block_argmax
    else:
        tail = (sums.ctypes.data, best.ctypes.data)
        kernel = lib.mpx_block_max

    stop = m if diag_limit is None else min(m, exclusion + int(diag_limit))
    for d in range(exclusion, stop, block):
        B = min(block, m - d)
        if tracer is not None:
            block_span = tracer.start_span("mpx.block", d=d, rows=B)
        kernel(*head, m, d, B, *tail)
        if tracer is not None:
            tracer.end_span(block_span)
        if abandon is not None and _alive_min(best, exclusion) >= abandon:
            return None
    return best, bestj, ws.bytes


def _sweep(
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    abandon: float | None = None,
    chunk: int | None = None,
    diag_limit: int | None = None,
    tracer=None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """One diagonal sweep on the compiled kernel, else on numpy.

    The arguments and the result are :func:`_diagonal_sweep`'s; the
    compiled kernel ignores ``chunk`` (its results are chunk-independent
    anyway, and it needs no chunks to stay within a budget).
    """
    lib = native.load()
    if lib is None:
        return _diagonal_sweep(
            x, w, exclusion, mean, inv, need_indices=need_indices,
            abandon=abandon, chunk=chunk, diag_limit=diag_limit, tracer=tracer,
        )
    return _compiled_sweep(
        lib, x, w, exclusion, mean, inv, need_indices=need_indices,
        abandon=abandon, diag_limit=diag_limit, tracer=tracer,
    )


def _finalize(
    best: np.ndarray,
    bestj: np.ndarray | None,
    w: int,
    exclusion: int,
    constant: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Correlations → distances, with the constant-window conventions.

    Constant windows carry zero inverse-std through the sweep, so every
    pair touching one contributed correlation 0; the true values are
    corr 1 (distance 0) for constant↔constant and corr ½ (distance
    ``sqrt(w)``) for constant↔non-constant.  Both only ever *raise* a
    correlation, so fixing them after the sweep is exact.
    """
    m = best.size
    if constant.any():
        const_idx = np.flatnonzero(constant)
        ii = np.arange(m)
        can_lo = ii >= exclusion
        can_hi = ii + exclusion <= m - 1
        has_lo = const_idx[0] <= ii - exclusion
        has_hi = const_idx[-1] >= ii + exclusion
        has_const = has_lo | has_hi
        # smallest admissible constant neighbour, to mirror the argmin
        # tie-break of the reference kernels
        pos = np.minimum(
            np.searchsorted(const_idx, ii + exclusion), const_idx.size - 1
        )
        j_const = np.where(has_lo, const_idx[0], const_idx[pos])
        rows_cc = constant & has_const
        rows_cn = constant & ~has_const & (can_lo | can_hi)
        rows_nc = ~constant & has_const & (best < 0.5)
        best[rows_cc] = 1.0
        best[rows_cn] = 0.5
        best[rows_nc] = 0.5
        if bestj is not None:
            bestj[rows_cc] = j_const[rows_cc]
            bestj[rows_nc] = j_const[rows_nc]
            first_valid = np.where(can_lo, 0, ii + exclusion)
            bestj[rows_cn] = first_valid[rows_cn]
    untouched = np.isneginf(best)
    np.clip(best, -1.0, 1.0, out=best)
    profile = np.sqrt(2.0 * w * (1.0 - best))
    if untouched.any():
        profile[untouched] = np.inf
        if bestj is not None:
            bestj[untouched] = 0
    return profile, bestj


def _validated(
    values: np.ndarray, w: int, exclusion: int | None, stats: SlidingStats | None
) -> tuple[SlidingStats, int]:
    values = np.asarray(values, dtype=float)
    n = values.size
    if w < 3:
        raise ValueError(f"window must be >= 3, got {w}")
    if n < 2 * w:
        raise ValueError(
            f"series of length {n} too short for window {w} "
            "(need at least 2*w points)"
        )
    if stats is None:
        stats = SlidingStats(values)
    elif stats.n != n:
        raise ValueError(
            f"sliding stats built for a length-{stats.n} series, got {n}"
        )
    elif values is not stats.values and not np.array_equal(
        values, stats.values
    ):
        raise ValueError(
            "sliding stats were built from a different series than the "
            "values passed in"
        )
    return stats, w if exclusion is None else exclusion


def _resolve_jobs(jobs: "int | None") -> "int | None":
    """Explicit ``jobs`` wins; otherwise the process-wide default."""
    if jobs is None:
        return default_kernel_jobs()
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _worker_budget(
    max_memory_bytes: "int | None", jobs: int
) -> "tuple[int | None, int | None]":
    """Split a process-level budget into per-worker shares.

    Returns ``(budget, per_worker)``.  ``max_memory_bytes`` stays an
    honest *process* cap under parallelism: each of the ``jobs`` workers
    gets an equal share, so the sum of live shard workspaces never
    exceeds the budget (``workspace_bytes × jobs <= budget`` — asserted
    after the sweep against the kernel's exact allocation accounting).
    """
    budget = (
        max_memory_bytes if max_memory_bytes is not None else default_memory_budget()
    )
    if budget is None:
        return None, None
    budget = int(budget)
    return budget, budget // jobs


def _adopt_shards(tracer, registry, outcome) -> None:
    """Splice shard traces/metrics into the parent, in shard order.

    Adoption order is the shard plan's order — deterministic and
    jobs-independent — so the merged span tree is identical whether the
    shards ran in-process or across any number of pool workers.
    """
    for records, state in outcome.exports:
        if records:
            tracer.adopt(records)
        if state:
            registry.merge_state(state)


def matrix_profile(
    values: np.ndarray,
    w: int,
    exclusion: int | None = None,
    *,
    stats: SlidingStats | None = None,
    with_indices: bool = True,
    max_memory_bytes: int | None = None,
    chunk_width: int | None = None,
    jobs: int | None = None,
    approx: float | None = None,
) -> MatrixProfileResult:
    """Exact z-normalized self-join matrix profile (mpx diagonal kernel).

    ``exclusion`` is the trivial-match zone half-width; the default ``w``
    enforces the classic discord requirement of *non-overlapping*
    nearest neighbours.  Pass a prebuilt :class:`SlidingStats` via
    ``stats`` to amortize the prefix sums across several window lengths
    (MERLIN does); pass ``with_indices=False`` to skip neighbour-index
    tracking when only the distances matter — that is the detector fast
    path, roughly a third faster.

    ``max_memory_bytes`` caps the sweep's scratch working set: the
    kernel derives the widest column-chunk width whose allocations fit
    the budget (exact accounting, reported as
    :attr:`MatrixProfileResult.workspace_bytes`) and raises
    ``ValueError`` if even chunk width 1 cannot fit.  ``chunk_width``
    sets the width directly (testing/tuning knob) and wins over any
    budget.  With neither, the process-wide default from
    :func:`set_default_memory_budget` / ``REPRO_MAX_MEMORY`` applies;
    unbounded means one full-width chunk, the fastest numpy layout.
    Results are bit-identical for every chunk width.  The compiled
    sweep ignores the width: its O(m) scratch never exceeds the
    chunk-width-1 floor, so any budget accepted here bounds it too.

    ``jobs`` shards the diagonal sweep across that many worker
    processes (``jobs=1``: the same shard plan, in-process).  Shards
    are block-aligned and merged with the serial first-occurrence tie
    rule, so profiles *and* neighbour indices are bit-identical to the
    single-sweep kernel for every ``jobs`` value; the memory budget is
    divided per worker (``workspace_bytes`` then reports the largest
    single shard, and ``workspace_bytes × jobs`` honours the process
    cap).  ``None`` defers to :func:`set_default_kernel_jobs` /
    ``REPRO_KERNEL_JOBS`` (`repro … --kernel-jobs`), else stays on the
    historical single-sweep path.

    ``approx`` enables the anytime mode: sweep only the leading
    diagonals covering at least that fraction of the pair budget and
    return a pointwise **upper bound** on the exact profile, with the
    accounting in :attr:`MatrixProfileResult.report` (an
    :class:`ApproxReport`).  The bound is monotone — a larger fraction
    never loosens any entry — and composes with ``jobs``.
    """
    stats, exclusion = _validated(values, w, exclusion, stats)
    mean, inv, constant = stats.kernel_stats(w)
    m = stats.n - w + 1
    jobs = _resolve_jobs(jobs)
    diag_limit, report = _resolve_approx(approx, m - exclusion)
    tracer = get_tracer()
    registry = get_registry()

    if jobs is None:
        chunk = _resolve_chunk(
            m,
            exclusion,
            max_memory_bytes,
            chunk_width,
            need_indices=with_indices,
        )
        with tracer.span(
            "mpx.profile",
            n=stats.n,
            w=w,
            chunk=chunk,
            with_indices=with_indices,
            backend=native.backend(),
        ) as span:
            if span is not None and report is not None:
                span.set(approx=report.fraction, diag_limit=report.diagonals_swept)
            best, bestj, workspace = _sweep(
                stats.shifted,
                w,
                exclusion,
                mean,
                inv,
                need_indices=with_indices,
                chunk=chunk,
                diag_limit=diag_limit,
                tracer=tracer if tracer.enabled else None,
            )
            profile, indices = _finalize(best, bestj, w, exclusion, constant)
        shards = 0
    else:
        from .parallel import sharded_sweep

        budget, per_worker = _worker_budget(max_memory_bytes, jobs)
        with tracer.span(
            "mpx.profile",
            n=stats.n,
            w=w,
            chunk=chunk_width,
            with_indices=with_indices,
            jobs=jobs,
            backend=native.backend(),
        ) as span:
            if span is not None and report is not None:
                span.set(approx=report.fraction, diag_limit=report.diagonals_swept)
            outcome = sharded_sweep(
                stats.values,
                w,
                exclusion,
                need_indices=with_indices,
                jobs=jobs,
                chunk_width=chunk_width,
                worker_budget=per_worker,
                diag_stop=(
                    None if diag_limit is None else exclusion + diag_limit
                ),
                traced=tracer.enabled,
            )
            if span is not None:
                span.set(shards=len(outcome.shards))
            _adopt_shards(tracer, registry, outcome)
            profile, indices = _finalize(
                outcome.best, outcome.bestj, w, exclusion, constant
            )
        workspace = outcome.workspace_bytes
        shards = len(outcome.shards)
        chunk = chunk_width
        registry.counter("mpx_shards").inc(shards)
        assert budget is None or workspace * jobs <= budget, (
            f"per-worker budgeting violated: {workspace} bytes/worker × "
            f"{jobs} jobs exceeds the {budget}-byte process budget"
        )

    registry.counter("mpx_profiles").inc()
    registry.gauge("mpx_workspace_bytes").set(workspace)
    return MatrixProfileResult(
        w=w,
        profile=profile,
        indices=indices,
        chunk_width=chunk,
        workspace_bytes=workspace,
        jobs=jobs,
        shards=shards,
        report=report,
    )


def discord_search(
    values: np.ndarray,
    w: int,
    exclusion: int | None = None,
    *,
    stats: SlidingStats | None = None,
    normalized_floor: float | None = None,
    max_memory_bytes: int | None = None,
    chunk_width: int | None = None,
    jobs: int | None = None,
) -> tuple[int, float] | None:
    """Top discord ``(start_index, distance)`` for one window length.

    ``normalized_floor`` enables MERLIN-style early abandonment: it is a
    length-normalized distance (``d / sqrt(w)``), and the sweep aborts —
    returning ``None`` — as soon as *every* subsequence already has a
    neighbour at or below that floor, because the length then cannot
    improve on the best discord found so far.  ``max_memory_bytes`` /
    ``chunk_width`` bound the sweep's working set exactly as in
    :func:`matrix_profile`, so MERLIN's whole length sweep runs inside
    the budget.

    ``jobs`` shards the sweep across worker processes exactly as in
    :func:`matrix_profile` (same bit-identical merge, same per-worker
    budget split).  Early abandonment stays sound under sharding: a
    shard that saturates on its own diagonals proves the merged profile
    saturates too, and the merged result gets the same final
    all-subsequences check the serial sweep ends on — so the
    abandoned/not-abandoned answer is identical for every ``jobs``.
    """
    stats, exclusion = _validated(values, w, exclusion, stats)
    mean, inv, constant = stats.kernel_stats(w)
    abandon = None
    if normalized_floor is not None and np.isfinite(normalized_floor):
        # d/sqrt(w) <= floor  ⇔  corr >= 1 - floor²/2, identically in w
        abandon = 1.0 - 0.5 * float(normalized_floor) ** 2
    jobs = _resolve_jobs(jobs)
    tracer = get_tracer()
    registry = get_registry()
    if jobs is None:
        chunk = _resolve_chunk(
            stats.n - w + 1,
            exclusion,
            max_memory_bytes,
            chunk_width,
            need_indices=False,
        )
        with tracer.span(
            "mpx.discord_search", n=stats.n, w=w, backend=native.backend()
        ) as span:
            swept = _sweep(
                stats.shifted,
                w,
                exclusion,
                mean,
                inv,
                need_indices=False,
                abandon=abandon,
                chunk=chunk,
                tracer=tracer if tracer.enabled else None,
            )
            if swept is None:
                if span is not None:
                    span.set(abandoned=True)
                registry.counter("mpx_abandoned_sweeps").inc()
                return None
        best, _, _ = swept
    else:
        from .parallel import sharded_sweep

        _budget, per_worker = _worker_budget(max_memory_bytes, jobs)
        with tracer.span(
            "mpx.discord_search", n=stats.n, w=w, jobs=jobs,
            backend=native.backend(),
        ) as span:
            outcome = sharded_sweep(
                stats.values,
                w,
                exclusion,
                need_indices=False,
                jobs=jobs,
                chunk_width=chunk_width,
                worker_budget=per_worker,
                abandon=abandon,
                traced=tracer.enabled,
            )
            if span is not None:
                span.set(shards=len(outcome.shards))
            _adopt_shards(tracer, registry, outcome)
            registry.counter("mpx_shards").inc(len(outcome.shards))
            # the serial sweep's abandon rule is a final-state property
            # (the running minimum only grows); a shard abandoning on
            # its own subset already implies it, but the merged check
            # keeps the answer identical when no single shard saturates
            if outcome.abandoned or (
                abandon is not None
                and _alive_min(outcome.best, exclusion) >= abandon
            ):
                if span is not None:
                    span.set(abandoned=True)
                registry.counter("mpx_abandoned_sweeps").inc()
                return None
        best = outcome.best
    profile, _ = _finalize(best, None, w, exclusion, constant)
    finite = np.where(np.isfinite(profile), profile, -np.inf)
    location = int(np.argmax(finite))
    return location, float(finite[location])


def discords(
    values: np.ndarray, w: int, top_k: int = 1, exclusion: int | None = None
) -> list[tuple[int, float]]:
    """Top-k discords as ``(start_index, distance)``, non-overlapping."""
    result = matrix_profile(values, w, exclusion, with_indices=False)
    profile = np.where(np.isfinite(result.profile), result.profile, -np.inf)
    found: list[tuple[int, float]] = []
    for _ in range(top_k):
        best = int(np.argmax(profile))
        if profile[best] == -np.inf:
            # every remaining subsequence overlaps an earlier discord
            # (or had no valid neighbour): asking for more top_k cannot
            # produce more discords, so stop instead of re-scanning
            break
        found.append((best, float(profile[best])))
        lo = max(0, best - w)
        profile[lo : best + w] = -np.inf
    return found


def subsequence_to_point_scores(
    profile: np.ndarray, w: int, n: int, fill: float = -np.inf
) -> np.ndarray:
    """Lift per-subsequence scores to per-point scores.

    A point inherits the maximum score over every subsequence covering
    it, so the whole discord window lights up.  Points covered by no
    finite-scored subsequence get ``fill``.  The maximum is the O(n)
    sliding extremum from :mod:`repro.detectors.sliding`, not the old
    O(n·w) stride trick.
    """
    profile = np.asarray(profile, dtype=float)
    num_subs = profile.size
    if num_subs != n - w + 1:
        raise ValueError(
            f"profile length {num_subs} inconsistent with n={n}, w={w}"
        )
    padded = np.concatenate(
        [np.full(w - 1, fill), np.where(np.isfinite(profile), profile, fill), np.full(w - 1, fill)]
    )
    return sliding_max(padded, w)


class MatrixProfileDetector(Detector):
    """Discord detector: per-point score from the matrix profile.

    ``max_memory_bytes`` caps the kernel's sweep workspace (chunk width
    auto-derived); ``None`` defers to the process-wide default set via
    ``repro score/run --max-memory`` or ``REPRO_MAX_MEMORY``.  ``jobs``
    shards the sweep across worker processes (``None`` defers to
    ``--kernel-jobs`` / ``REPRO_KERNEL_JOBS``) — scores are
    bit-identical either way.  ``approx`` trades exactness for speed:
    scores come from the anytime upper-bound profile over that fraction
    of the pair budget; unlike ``jobs`` it *changes the output*, which
    is why it is a spec parameter that reaches manifests and cache keys.
    """

    def __init__(
        self,
        w: int = 100,
        exclusion: int | None = None,
        max_memory_bytes: int | None = None,
        jobs: int | None = None,
        approx: float | None = None,
    ) -> None:
        self.w = w
        self.exclusion = exclusion
        self.max_memory_bytes = max_memory_bytes
        self.jobs = jobs
        self.approx = approx

    @property
    def name(self) -> str:
        return f"MatrixProfile(w={self.w})"

    def score(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        result = matrix_profile(
            values,
            self.w,
            self.exclusion,
            with_indices=False,
            max_memory_bytes=self.max_memory_bytes,
            jobs=self.jobs,
            approx=self.approx,
        )
        return subsequence_to_point_scores(result.profile, self.w, values.size)
