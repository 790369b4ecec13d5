"""Column-chunked numpy mpx sweep: bit-equality across tile widths.

The numpy sweep tiles each diagonal block at a fixed column width
(``_CHUNK``) and carries the raw covariance cumsum across chunk
boundaries; because ``np.cumsum`` accumulates strictly sequentially the
float additions happen in the same order whatever the width, so the
sweep must be *bit-identical* at every width — profiles AND neighbour
indices — for every window parity, exclusion zone and input family.
The widths are forced through the sweep's private ``chunk`` argument
and compared with one full-width chunk and with :func:`matrix_profile`.
The working set is read from the sweep's own allocation accounting
(``workspace_bytes``), not wall-clock or RSS sampling, so these tests
are deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import SlidingStats, matrix_profile, naive_profile
from repro.detectors.matrix_profile import (
    _CHUNK,
    _diagonal_sweep,
    _finalize,
    _series_order,
    _sweep_order,
)

from kernel_backends import on_numpy

# deliberately awkward widths: 1 (maximal chunking), small primes and
# powers that do not divide the diagonal lengths, one larger than any row
CHUNK_WIDTHS = (1, 7, 32, 129, 1000)


def make_family(kind: str, seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "walk":
        return np.cumsum(rng.normal(0, 1, n))
    if kind == "constant":
        values = rng.normal(0, 1, n)
        start = int(rng.integers(0, n // 2))
        values[start : start + n // 3] = float(rng.normal())
        return values
    if kind == "spikes":
        values = rng.normal(0, 1, n)
        for position in rng.integers(0, n, size=3):
            values[position] += float(rng.choice([-30.0, 30.0]))
        return values
    if kind == "near_constant":
        # large offset + tiny jitter: windowed variance underflows the
        # cumsum formulation without being exactly constant
        return 1e9 + rng.normal(0, 1e-6, n)
    raise AssertionError(kind)


def assert_profiles_match(got, expected, w):
    """The kernels' contract: 1e-8 in correlation space (see PR 3)."""
    np.testing.assert_array_equal(np.isinf(got), np.isinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(
        got[finite] ** 2, expected[finite] ** 2, rtol=0, atol=2.0 * w * 1e-8
    )


def swept(values, w, exclusion=None, *, chunk, with_indices=True):
    """``(profile, indices, workspace_bytes)`` of one numpy sweep at
    column width ``chunk``, in the order and finalized as
    :func:`matrix_profile` does."""
    stats = SlidingStats(values)
    exclusion = w if exclusion is None else exclusion
    mean, inv, constant = stats.kernel_stats(w)
    x, mean, inv = _sweep_order(stats.shifted, mean, inv)
    best, bestj, workspace = _diagonal_sweep(
        x, w, exclusion, mean, inv, need_indices=with_indices, chunk=chunk
    )
    best, bestj = _series_order(best, bestj)
    return (*_finalize(best, bestj, w, exclusion, constant), workspace)


class TestChunkedEqualsUnchunked:
    def check(self, values, w, exclusion=None):
        base = matrix_profile(values, w, exclusion)
        assert base.workspace_bytes is not None and base.workspace_bytes > 0
        # one full-width chunk, then the awkward widths
        for width in (values.size, *CHUNK_WIDTHS):
            profile, indices, _ = swept(values, w, exclusion, chunk=width)
            np.testing.assert_array_equal(profile, base.profile)
            np.testing.assert_array_equal(indices, base.indices)
            fast, _, _ = swept(
                values, w, exclusion, chunk=width, with_indices=False
            )
            np.testing.assert_array_equal(fast, base.profile)
        return base

    @given(
        st.sampled_from(["walk", "constant", "spikes", "near_constant"]),
        st.integers(0, 2**16),
        st.sampled_from([4, 5, 8, 13]),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_grid(self, kind, seed, w):
        # n chosen so CHUNK_WIDTHS include dividing, non-dividing and
        # wider-than-row widths for every (w, exclusion) drawn below
        values = make_family(kind, seed, 230)
        self.check(values, w)

    @given(st.integers(0, 2**16), st.sampled_from([0, 1, 3, 8, 100, 300]))
    @settings(max_examples=15, deadline=None)
    def test_property_exclusion_edges(self, seed, exclusion):
        # exclusion=0 keeps the self-match diagonal; 100 exceeds half the
        # subsequence count (the _alive_min edge); 300 exceeds it entirely
        values = make_family("walk", seed, 180)
        self.check(values, 8, exclusion)

    @given(
        st.sampled_from(["walk", "constant", "spikes"]),
        st.integers(0, 2**16),
        st.sampled_from([5, 8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_chunked_matches_naive(self, kind, seed, w):
        values = make_family(kind, seed, 160)
        reference = naive_profile(values, w)
        for width in (1, 13, 50):
            profile, _, _ = swept(values, w, chunk=width)
            assert_profiles_match(profile, reference.profile, w)

    def test_moderate_series_is_tiled(self):
        # more diagonal positions than one tile: the public sweep splits
        # every leading block into chunks on numpy, and its workspace
        # stays below one full-width chunk's on either backend
        values = make_family("walk", 11, 6000)
        assert values.size - 2 * 50 + 1 > _CHUNK
        got = matrix_profile(values, 50)
        profile, indices, full_workspace = swept(values, 50, chunk=values.size)
        assert got.workspace_bytes < full_workspace
        np.testing.assert_array_equal(got.profile, profile)
        np.testing.assert_array_equal(got.indices, indices)

    def test_exact_tie_breaks_preserved(self):
        # a mirrored motif makes several pairs exactly tied; the chunked
        # column reduction must resolve them to the same neighbour
        motif = np.sin(np.linspace(0, 4 * np.pi, 60))
        values = np.concatenate([motif, np.linspace(-1, 1, 40), motif, motif])
        base = matrix_profile(values, 10)
        for width in (1, 9, 30):
            _, indices, _ = swept(values, 10, chunk=width)
            np.testing.assert_array_equal(indices, base.indices)


class TestBigSeriesRegression:
    """n = 2e5: the fixed tile keeps the numpy sweep inside 64 MiB.

    A full profile at this size is minutes of arithmetic, so the exact-
    equality check runs the sweep over a leading slice of diagonals —
    the only chunk-dependent stage; ``_finalize`` is width-independent —
    crossing several block and many chunk boundaries.  Full-profile
    equality across widths is covered exhaustively at smaller n above.
    """

    def test_200k_points_inside_64mib_budget(self):
        n, w = 200_000, 100
        values = make_family("walk", 4, n)
        m = n - w + 1
        stats = SlidingStats(values)
        mean, inv, _ = stats.kernel_stats(w)
        # several chunks per row, so carries genuinely cross boundaries
        assert 1 < _CHUNK < m - w

        diag_limit = 384  # three 128-diagonal blocks
        tiled = _diagonal_sweep(
            stats.shifted, w, w, mean, inv,
            need_indices=False, diag_limit=diag_limit,
        )
        full = _diagonal_sweep(
            stats.shifted, w, w, mean, inv,
            need_indices=False, chunk=m, diag_limit=diag_limit,
        )
        # the fixed tile bounds the working set, by the kernel's own
        # allocation accounting ...
        assert tiled[2] <= 64 << 20
        # ... where one full-width chunk needs ~410 MB ...
        assert full[2] > 6 * (64 << 20)
        # ... and the tiled sweep is bit-identical
        np.testing.assert_array_equal(tiled[0], full[0])


# the same properties on the numpy fallback sweep (tests/conftest.py)
TestChunkedEqualsUnchunkedOnNumpy = on_numpy(TestChunkedEqualsUnchunked)
