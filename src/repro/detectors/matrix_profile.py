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

Each block's column sweep is **tiled**: the reusable row buffer covers
a fixed-width column window (``_CHUNK`` columns) instead of the whole
series, and the raw covariance cumsum is carried across chunk
boundaries.  Because ``np.cumsum`` accumulates strictly sequentially,
the carried sum enters the next chunk as exactly the addition the
unchunked cumsum would have performed, so profiles are *bit-identical*
for every chunk width.  The working set is O(block · chunk) on top of
the O(n) recurrence vectors, bounded by construction (see
docs/kernel.md for the memory model and the chunk-carry derivation).

Where a C compiler is available, each block is swept by the compiled
kernel in ``_mpx.c`` instead (built on first use and loaded by
:mod:`repro.detectors.native`): the same additions in the same order,
O(m) scratch with no tiles, bit-identical profiles and indices, about
twenty times the pairs per second of the numpy sweep on one core
without indices (n = 30,000, w = 100, the AVX-512 body).  The numpy
sweep stays as the fallback and as the tests' oracle; ``_sweep`` picks
between them.

Exactly-constant windows have no z-normalization; they are fixed up in a
vectorized post-pass with the same convention as before: distance 0
between two constant windows, ``sqrt(w)`` between a constant and a
non-constant window.
"""

from __future__ import annotations

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
    "set_default_kernel_jobs",
    "default_kernel_jobs",
]

# diagonals per kernel block, large enough to amortize numpy dispatch
_DIAG_BLOCK = 128
# diagonals per call of the compiled fast path (no indices, no abandon):
# each column's loads and row reduction then serve four times the rows.
# Where blocks split cannot change a maximum, but it decides which of two
# equal neighbours an index names and where an abandoning sweep stops,
# so those sweeps keep _DIAG_BLOCK
_FAST_BLOCK = 512
_ELEM = np.dtype(float).itemsize
# columns per tile of the numpy sweep's block buffers (_diagonal_sweep),
# so its working set is O(block · _CHUNK) on top of the O(n) recurrence
# vectors whatever n is.  Timed interleaved on the numpy sweep at
# n = 30,000, w = 100 (2 vCPUs, medians of 3): 2,048 columns took 1.43x
# the time of 4,096, 8,192 and 16,384 took 0.98x and 1.10x, and 4,096
# took 0.89x the time of one full-width tile (0.76x with indices).  At
# n = 2e5 and 1e6 the full-width tile is 401 MiB and 2.0 GiB of scratch.
_CHUNK = 4096


# process-wide default for matrix_profile(..., jobs=), installed by
# `repro ... --kernel-jobs`; evaluation-engine workers set it to 1
_default_kernel_jobs: int | None = None


def set_default_kernel_jobs(jobs: "int | None") -> None:
    """Set the process-wide default for ``matrix_profile(..., jobs=)``.

    ``None`` removes the default (sweeps stay single and unsharded).
    The evaluation engine's pool initializer sets 1 in its workers when
    the parent has a default, so engine parallelism and kernel threads
    never multiply.
    """
    global _default_kernel_jobs
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"kernel jobs must be >= 1, got {jobs}")
    _default_kernel_jobs = jobs


def default_kernel_jobs() -> "int | None":
    """The active default kernel jobs, or ``None``."""
    return _default_kernel_jobs


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
    fraction = float(approx)  # range checked by _check_params
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
    scoring path reads neighbour locations).  ``workspace_bytes`` is the
    exact bytes of sweep scratch, from the kernel's allocation
    accounting — for a sharded sweep the inputs the shards share plus
    the *largest single shard*'s own scratch, what one thread holds
    (and what the single sweep reports).

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
    byte total *is* the sweep's working set — ``workspace_bytes`` and
    the memory regression tests key off it rather than off wall-clock
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
    chunk: int = _CHUNK,
    diag_limit: int | None = None,
    tracer=None,
    start: int | None = None,
    inputs=None,
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

    ``chunk`` bounds the column width of the block buffers (``_CHUNK``;
    tests pass awkward widths): each diagonal block is swept in
    fixed-width column chunks, the raw covariance cumsum carried across
    chunk boundaries, so the working set is O(block · chunk) on top of
    the O(m) recurrence vectors.  The carry is the exact running sum at
    the boundary and ``np.cumsum`` accumulates strictly sequentially, so
    the float additions happen in the same order whatever the width —
    results are bit-identical for every width, one full-width chunk
    included.

    ``diag_limit`` stops after that many diagonals, covering only pairs
    with separation in ``[start, start + diag_limit)``.  The scaling
    bench uses it to measure the peak working set (the first block's
    buffers are the widest) and extrapolate timings without paying the
    full O(m²) sweep; the partial ``best`` it returns is *not* a valid
    profile.

    ``start`` (default ``exclusion``, a block-aligned diagonal past it)
    and ``inputs`` (``_sweep_inputs``' vectors, computed by the caller
    and not counted here) are how :mod:`repro.detectors.parallel`
    sweeps one shard.  The abandon check reads ``exclusion`` whatever
    ``start`` is, so a row paired only below ``start`` blocks it.
    """
    m = x.size - w + 1
    first = exclusion if start is None else start
    ws = _Workspace()
    best = ws.full(m, -np.inf)
    bestj = ws.zeros(m, dtype=np.int64) if need_indices else None
    if first >= m:
        return best, bestj, ws.bytes
    if inputs is None:
        inputs = _sweep_inputs(x, w, mean, inv, ws, block)
    dfp, dgp, invp, c0 = inputs

    L0 = m - first
    B0 = min(block, L0)
    cw0 = min(chunk, L0)
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

    stop = m if diag_limit is None else min(m, first + int(diag_limit))
    for d in range(first, stop, block):
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
    start: int | None = None,
    inputs=None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """:func:`_diagonal_sweep` with each block swept by the C kernel.

    Same inputs, same block loop (``mpx.block`` spans, the per-block
    ``abandon`` check, ``diag_limit``, ``start``) and bit-identical
    results; the kernel needs O(m) scratch, so there are no column
    chunks to tile.  The fast path (no indices, no ``abandon``) steps
    ``_FAST_BLOCK`` diagonals per call, up to the numpy sweep's stop:
    ``diag_limit`` rounded up to a whole number of ``block``-diagonal
    blocks.  The block call releases the GIL, so shards on threads
    sweep at once.
    """
    m = x.size - w + 1
    first = exclusion if start is None else start
    ws = _Workspace()
    best = ws.full(m, -np.inf)
    bestj = ws.zeros(m, dtype=np.int64) if need_indices else None
    if first >= m:
        return best, bestj, ws.bytes
    if inputs is None:
        inputs = _sweep_inputs(x, w, mean, inv, ws, block)
    dfp, dgp, invp, c0 = inputs
    step = _FAST_BLOCK if not need_indices and abandon is None else block
    L0 = m - first
    sums = ws.empty(min(step, L0))
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

    stop = m
    if diag_limit is not None:
        stop = min(m, first + block * ((int(diag_limit) + block - 1) // block))
    for d in range(first, stop, step):
        B = min(step, stop - d)
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
    diag_limit: int | None = None,
    tracer=None,
    start: int | None = None,
    inputs=None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """One diagonal sweep on the compiled kernel, else on numpy.

    The arguments and the result are :func:`_diagonal_sweep`'s, which
    tiles at its fixed ``_CHUNK`` width; the compiled kernel needs no
    tiles.
    """
    options = dict(
        need_indices=need_indices, abandon=abandon, diag_limit=diag_limit,
        tracer=tracer, start=start, inputs=inputs,
    )
    lib = native.load()
    if lib is None:
        return _diagonal_sweep(x, w, exclusion, mean, inv, **options)
    return _compiled_sweep(lib, x, w, exclusion, mean, inv, **options)


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


def _require_int(name: str, value, minimum: int) -> None:
    """Refuse a non-integer (a bool included) or one below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_params(w, exclusion=None, jobs=None, approx=None) -> None:
    """The kernel's parameter rules, applied before any sweep.

    Every entry point checks its call here, and the detectors check
    their parameters here when they are built, so a bad spec fails with
    the kernel's own message before a series arrives.  A negative
    ``exclusion`` would start the sweep below the main diagonal, which
    no sweep indexes safely.
    """
    _require_int("window", w, 3)
    if exclusion is not None:
        _require_int("exclusion", exclusion, 0)
    if jobs is not None:
        _require_int("jobs", jobs, 1)
    if approx is not None and not 0.0 < float(approx) <= 1.0:
        raise ValueError(f"approx must be in (0, 1], got {approx!r}")


def _validated(
    values: np.ndarray,
    w: int,
    exclusion: int | None,
    stats: SlidingStats | None,
    *,
    jobs: "int | None" = None,
    approx: "float | None" = None,
) -> tuple[SlidingStats, int]:
    _check_params(w, exclusion, jobs, approx)
    values = np.asarray(values, dtype=float)
    n = values.size
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
    return stats, int(w if exclusion is None else exclusion)


def _resolve_jobs(jobs: "int | None") -> "int | None":
    """Explicit ``jobs`` (checked by :func:`_validated`) wins; otherwise
    the process-wide default."""
    return default_kernel_jobs() if jobs is None else int(jobs)


def _entry_sweep(
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    span,
    *,
    need_indices: bool,
    jobs: "int | None",
    abandon: "float | None" = None,
    diag_limit: "int | None" = None,
) -> "tuple[np.ndarray, np.ndarray | None, int, int] | None":
    """The one sweep behind :func:`matrix_profile` and
    :func:`discord_search`, under their open ``span``.

    ``jobs=None`` runs the single sweep.  Otherwise the shard plan of
    :mod:`repro.detectors.parallel` runs on ``jobs`` threads; its
    ``mpx.shard`` spans are adopted in shard order and an
    ``mpx_shards`` counter records the shard count.  Returns ``(best,
    bestj, workspace_bytes, shards)`` — ``shards`` is 0 for the single
    sweep — or ``None`` when ``abandon`` fired.
    """
    tracer = get_tracer()
    if jobs is None:
        swept = _sweep(
            x,
            w,
            exclusion,
            mean,
            inv,
            need_indices=need_indices,
            abandon=abandon,
            diag_limit=diag_limit,
            tracer=tracer if tracer.enabled else None,
        )
        return None if swept is None else (*swept, 0)
    from .parallel import sharded_sweep

    outcome = sharded_sweep(
        x,
        w,
        exclusion,
        mean,
        inv,
        need_indices=need_indices,
        jobs=jobs,
        abandon=abandon,
        diag_stop=None if diag_limit is None else exclusion + diag_limit,
        traced=tracer.enabled,
    )
    shards = len(outcome.shards)
    if span is not None:
        span.set(shards=shards)
    for records in outcome.traces:
        tracer.adopt(records)
    get_registry().counter("mpx_shards").inc(shards)
    # the serial sweep's abandon rule is a final-state property (the
    # running minimum only grows); a shard abandoning already implies
    # it, and the merged check catches saturation no one shard reaches
    if outcome.abandoned or (
        abandon is not None and _alive_min(outcome.best, exclusion) >= abandon
    ):
        return None
    return outcome.best, outcome.bestj, outcome.workspace_bytes, shards


def _span_attrs(n: int, w: int, jobs: "int | None", **attrs) -> dict:
    """An entry point's span attributes; ``jobs`` only when sharded."""
    if jobs is not None:
        attrs["jobs"] = jobs
    return dict(n=n, w=w, **attrs, backend=native.backend())


def matrix_profile(
    values: np.ndarray,
    w: int,
    exclusion: int | None = None,
    *,
    stats: SlidingStats | None = None,
    with_indices: bool = True,
    jobs: int | None = None,
    approx: float | None = None,
) -> MatrixProfileResult:
    """Exact z-normalized self-join matrix profile (mpx diagonal kernel).

    ``exclusion`` is the trivial-match zone half-width, an integer
    >= 0; the default ``w`` enforces the classic discord requirement of
    *non-overlapping* nearest neighbours.  Pass a prebuilt
    :class:`SlidingStats` via ``stats`` to amortize the prefix sums
    across several window lengths (MERLIN does); pass
    ``with_indices=False`` to skip neighbour-index tracking when only
    the distances matter — that is the detector fast path, about eight
    times faster on the compiled kernel (0.18 s against 1.56 s at
    n = 30,000, w = 100).  The sweep's scratch is reported, exactly, as
    :attr:`MatrixProfileResult.workspace_bytes`: O(n) on the compiled
    kernel, O(n) plus one fixed tile on numpy.

    ``jobs`` shards the diagonal sweep across that many threads of this
    process (``jobs=1``: the same shard plan on the calling thread).
    Shards are block-aligned and merged with the serial first-occurrence
    tie rule, so profiles *and* neighbour indices are bit-identical to
    the single-sweep kernel for every ``jobs`` value.  ``None`` defers
    to :func:`set_default_kernel_jobs` (`repro … --kernel-jobs`), else
    stays on the historical single-sweep path.

    ``approx`` enables the anytime mode: sweep only the leading
    diagonals covering at least that fraction of the pair budget and
    return a pointwise **upper bound** on the exact profile, with the
    accounting in :attr:`MatrixProfileResult.report` (an
    :class:`ApproxReport`).  The bound is monotone — a larger fraction
    never loosens any entry — and composes with ``jobs``.
    """
    stats, exclusion = _validated(
        values, w, exclusion, stats, jobs=jobs, approx=approx
    )
    mean, inv, constant = stats.kernel_stats(w)
    m = stats.n - w + 1
    jobs = _resolve_jobs(jobs)
    diag_limit, report = _resolve_approx(approx, m - exclusion)
    attrs = _span_attrs(stats.n, w, jobs, with_indices=with_indices)
    with get_tracer().span("mpx.profile", **attrs) as span:
        if span is not None and report is not None:
            span.set(approx=report.fraction, diag_limit=report.diagonals_swept)
        best, bestj, workspace, shards = _entry_sweep(
            stats.shifted,
            w,
            exclusion,
            mean,
            inv,
            span,
            need_indices=with_indices,
            jobs=jobs,
            diag_limit=diag_limit,
        )
        profile, indices = _finalize(best, bestj, w, exclusion, constant)

    registry = get_registry()
    registry.counter("mpx_profiles").inc()
    registry.gauge("mpx_workspace_bytes").set(workspace)
    return MatrixProfileResult(
        w=w,
        profile=profile,
        indices=indices,
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
    jobs: int | None = None,
) -> tuple[int, float] | None:
    """Top discord ``(start_index, distance)`` for one window length.

    ``normalized_floor`` enables MERLIN-style early abandonment: it is a
    length-normalized distance (``d / sqrt(w)``), and the sweep aborts —
    returning ``None`` — as soon as *every* subsequence already has a
    neighbour at or below that floor, because the length then cannot
    improve on the best discord found so far.

    ``jobs`` shards the sweep across threads exactly as in
    :func:`matrix_profile` (same bit-identical merge).  Early
    abandonment stays sound under sharding: each shard checks the true
    exclusion zone, so a row whose pairs lie in other shards blocks its
    abandon, and a shard that saturates on its own diagonals proves the
    merged profile saturates too; the merged result gets the same final
    all-subsequences check the serial sweep ends on — so the
    abandoned/not-abandoned answer is identical for every ``jobs``.
    """
    stats, exclusion = _validated(values, w, exclusion, stats, jobs=jobs)
    mean, inv, constant = stats.kernel_stats(w)
    abandon = None
    if normalized_floor is not None and np.isfinite(normalized_floor):
        # d/sqrt(w) <= floor  ⇔  corr >= 1 - floor²/2, identically in w
        abandon = 1.0 - 0.5 * float(normalized_floor) ** 2
    jobs = _resolve_jobs(jobs)
    attrs = _span_attrs(stats.n, w, jobs)
    with get_tracer().span("mpx.discord_search", **attrs) as span:
        swept = _entry_sweep(
            stats.shifted,
            w,
            exclusion,
            mean,
            inv,
            span,
            need_indices=False,
            jobs=jobs,
            abandon=abandon,
        )
        if swept is None:
            if span is not None:
                span.set(abandoned=True)
            get_registry().counter("mpx_abandoned_sweeps").inc()
            return None
    profile, _ = _finalize(swept[0], None, w, exclusion, constant)
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

    The parameters are checked by the kernel's own rules when the
    detector is built, so a bad spec fails before any series is scored.
    ``jobs`` shards the sweep across threads (``None`` defers to
    ``--kernel-jobs``) — scores are bit-identical either way.  ``approx`` trades exactness for speed:
    scores come from the anytime upper-bound profile over that fraction
    of the pair budget; unlike ``jobs`` it *changes the output*, which
    is why it is a spec parameter that reaches manifests and cache keys.
    """

    def __init__(
        self,
        w: int = 100,
        exclusion: int | None = None,
        jobs: int | None = None,
        approx: float | None = None,
    ) -> None:
        _check_params(w, exclusion, jobs, approx)
        self.w = w
        self.exclusion = exclusion
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
            jobs=self.jobs,
            approx=self.approx,
        )
        return subsequence_to_point_scores(result.profile, self.w, values.size)
