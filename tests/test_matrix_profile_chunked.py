"""Column-chunked mpx sweep: bit-equality, budgets, allocation accounting.

The chunked traversal carries the raw covariance cumsum across chunk
boundaries; because ``np.cumsum`` accumulates strictly sequentially the
float additions happen in the same order whatever the width, so the
chunked kernel must be *bit-identical* to the unchunked one — profiles
AND neighbour indices — for every chunk width, window parity, exclusion
zone and input family.  The memory budget is enforced through the
sweep's own allocation accounting (``workspace_bytes``), not wall-clock
or RSS sampling, so these tests are deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import (
    SlidingStats,
    discord_search,
    matrix_profile,
    merlin,
    naive_profile,
    parse_memory_size,
)
from repro.detectors.matrix_profile import (
    _chunk_for_budget,
    _diagonal_sweep,
    _sweep_allocation_bytes,
    default_memory_budget,
    set_default_memory_budget,
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


class TestChunkedEqualsUnchunked:
    def check(self, values, w, exclusion=None):
        base = matrix_profile(values, w, exclusion)
        assert base.chunk_width is None
        assert base.workspace_bytes is not None and base.workspace_bytes > 0
        for width in CHUNK_WIDTHS:
            got = matrix_profile(values, w, exclusion, chunk_width=width)
            assert got.chunk_width == width
            np.testing.assert_array_equal(got.profile, base.profile)
            np.testing.assert_array_equal(got.indices, base.indices)
            fast = matrix_profile(
                values, w, exclusion, with_indices=False, chunk_width=width
            )
            np.testing.assert_array_equal(fast.profile, base.profile)
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
            got = matrix_profile(values, w, chunk_width=width)
            assert_profiles_match(got.profile, reference.profile, w)

    def test_moderate_series_with_auto_budget(self):
        values = make_family("walk", 11, 6000)
        base = matrix_profile(values, 50)
        bounded = matrix_profile(values, 50, max_memory_bytes=4 << 20)
        assert bounded.chunk_width is not None
        assert bounded.chunk_width < base.profile.size  # genuinely tiled
        assert bounded.workspace_bytes <= 4 << 20
        np.testing.assert_array_equal(bounded.profile, base.profile)
        np.testing.assert_array_equal(bounded.indices, base.indices)

    def test_discord_search_and_merlin_under_budget(self):
        values = make_family("walk", 23, 3000)
        budget = 2 << 20
        assert discord_search(values, 40) == discord_search(
            values, 40, max_memory_bytes=budget
        )
        free = merlin(values, 16, 64, 4)
        bounded = merlin(values, 16, 64, 4, max_memory_bytes=budget)
        assert free == bounded
        abandoned = merlin(
            values, 16, 64, 4, early_abandon=True, max_memory_bytes=budget
        )
        assert abandoned.best == free.best

    def test_exact_tie_breaks_preserved(self):
        # a mirrored motif makes several pairs exactly tied; the chunked
        # column reduction must resolve them to the same neighbour
        motif = np.sin(np.linspace(0, 4 * np.pi, 60))
        values = np.concatenate([motif, np.linspace(-1, 1, 40), motif, motif])
        base = matrix_profile(values, 10)
        for width in (1, 9, 30):
            got = matrix_profile(values, 10, chunk_width=width)
            np.testing.assert_array_equal(got.indices, base.indices)


class TestBudgetAccounting:
    def test_workspace_accounting_matches_prediction(self):
        values = make_family("walk", 5, 1200)
        stats = SlidingStats(values)
        for w in (10, 33):
            mean, inv, _ = stats.kernel_stats(w)
            m = values.size - w + 1
            for chunk in (None, 1, 50, 333):
                for need_indices in (True, False):
                    swept = _diagonal_sweep(
                        stats.shifted,
                        w,
                        w,
                        mean,
                        inv,
                        need_indices=need_indices,
                        chunk=chunk,
                    )
                    predicted = _sweep_allocation_bytes(
                        m, w, need_indices=need_indices, chunk=chunk
                    )
                    assert swept[2] == predicted

    def test_chunk_for_budget_is_maximal(self):
        m, exclusion = 199_901, 100
        for budget in (16 << 20, 64 << 20, 128 << 20):
            width = _chunk_for_budget(m, exclusion, budget, need_indices=False)
            used = _sweep_allocation_bytes(
                m, exclusion, need_indices=False, chunk=width
            )
            assert used <= budget
            if width < m - exclusion:
                over = _sweep_allocation_bytes(
                    m, exclusion, need_indices=False, chunk=width + 1
                )
                assert over > budget

    def test_budget_below_fixed_floor_raises(self):
        values = make_family("walk", 7, 2000)
        with pytest.raises(ValueError, match="minimum working set"):
            matrix_profile(values, 20, max_memory_bytes=1024)

    def test_explicit_chunk_width_wins_over_budget(self):
        values = make_family("walk", 9, 800)
        got = matrix_profile(
            values, 10, max_memory_bytes=1 << 30, chunk_width=17
        )
        assert got.chunk_width == 17

    def test_invalid_chunk_width(self):
        values = make_family("walk", 9, 400)
        with pytest.raises(ValueError, match="chunk_width"):
            matrix_profile(values, 10, chunk_width=0)

    def test_default_budget_roundtrip_and_env(self, monkeypatch):
        import importlib

        # the package re-exports the matrix_profile *function* under the
        # submodule's name, so a plain `import ... as` grabs the function
        mp = importlib.import_module("repro.detectors.matrix_profile")

        monkeypatch.setattr(mp, "_default_memory_budget", None)
        monkeypatch.delenv("REPRO_MAX_MEMORY", raising=False)
        assert default_memory_budget() is None
        monkeypatch.setenv("REPRO_MAX_MEMORY", "4M")
        assert default_memory_budget() == 4 << 20
        set_default_memory_budget(8 << 20)
        try:
            assert default_memory_budget() == 8 << 20
            import os

            assert os.environ["REPRO_MAX_MEMORY"] == str(8 << 20)
            values = make_family("walk", 13, 3000)
            bounded = matrix_profile(values, 30, with_indices=False)
            assert bounded.chunk_width is not None
            assert bounded.workspace_bytes <= 8 << 20
        finally:
            set_default_memory_budget(None)
        assert mp._default_memory_budget is None

    def test_set_default_budget_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_default_memory_budget(0)


class TestParseMemorySize:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1024", 1024),
            (2048, 2048),
            ("64k", 64 << 10),
            ("256M", 256 << 20),
            ("256MiB", 256 << 20),
            ("1G", 1 << 30),
            ("0.5G", 1 << 29),
            ("2t", 2 << 40),
            ("10b", 10),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("text", ["", "M", "12Q", "-5", "0", "1.2.3G"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_memory_size(text)


class TestBigSeriesRegression:
    """The ISSUE-4 regression: n=2e5 under a 64 MiB budget.

    A full profile at this size is minutes of arithmetic, so the exact-
    equality check runs the sweep over a leading slice of diagonals —
    the only chunk-dependent stage; ``_finalize`` is width-independent —
    crossing several block and many chunk boundaries.  Full-profile
    equality across widths is covered exhaustively at smaller n above.
    """

    def test_200k_points_inside_64mib_budget(self):
        n, w = 200_000, 100
        budget = 64 << 20
        values = make_family("walk", 4, n)
        m = n - w + 1
        stats = SlidingStats(values)
        mean, inv, _ = stats.kernel_stats(w)

        chunk = _chunk_for_budget(m, w, budget, need_indices=False)
        # several chunks per row, so carries genuinely cross boundaries
        assert 1 < chunk < m - w

        diag_limit = 384  # three 128-diagonal blocks
        chunked = _diagonal_sweep(
            stats.shifted,
            w,
            w,
            mean,
            inv,
            need_indices=False,
            chunk=chunk,
            diag_limit=diag_limit,
        )
        unchunked = _diagonal_sweep(
            stats.shifted,
            w,
            w,
            mean,
            inv,
            need_indices=False,
            chunk=None,
            diag_limit=diag_limit,
        )
        # the budget holds by the kernel's own allocation accounting ...
        assert chunked[2] <= budget
        assert chunked[2] == _sweep_allocation_bytes(
            m, w, need_indices=False, chunk=chunk
        )
        # ... the unchunked working set is the ~410 MB this PR removes ...
        assert unchunked[2] > 6 * budget
        # ... and the bounded sweep is bit-identical
        np.testing.assert_array_equal(chunked[0], unchunked[0])


# the same properties on the numpy fallback sweep (tests/conftest.py)
TestChunkedEqualsUnchunkedOnNumpy = on_numpy(TestChunkedEqualsUnchunked)
