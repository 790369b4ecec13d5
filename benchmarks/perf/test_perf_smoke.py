"""Perf smoke: the mpx kernel must decisively beat the naive reference.

This is the in-suite guard behind ``repro bench``: a tiny, fast version
of the kernel section with a *loose* speedup floor.  The wall-clock
assertions are marked ``perf`` and deselected from the default run
(see ``[tool:pytest]`` in ``setup.cfg``): the merge-blocking tier-1
suite must be deterministic, and timing on contended shared runners is
not — the advisory perf-smoke CI job runs them with ``-m perf``.  The
schema invariants below are deterministic and stay in tier-1.  The
recorded trajectory lives in ``benchmarks/perf/BENCH_<n>.json`` (one
file per recorded point; record a new one with ``repro bench`` after
bumping ``repro.bench.TRAJECTORY``); CI additionally runs ``repro bench
--quick --min-kernel-speedup 5`` over every section, asserts the
report's correctness checks, gates it with ``repro bench compare`` and
uploads the JSON artifacts.
"""

import pytest

from repro import bench
from repro.bench import run_bench

# loose floor: the measured margin is an order of magnitude larger
MIN_SPEEDUP_VS_NAIVE = 3.0


@pytest.fixture
def small_kernel(monkeypatch):
    """One n=1024 kernel size, 128 timed naive rows."""
    monkeypatch.setattr(bench, "_QUICK_SIZES", (1_024,))
    monkeypatch.setattr(bench, "_NAIVE_ROWS", 128)


def test_bench_schema_invariants(small_kernel):
    # deterministic part of the contract future PRs regress against
    report = run_bench(quick=True, repeats=1, sections=("kernel",))
    (row,) = report["sections"]["kernel"]["results"]
    assert report["schema"] == "repro-bench/1"
    assert report["checks"]["kernel_speedup_vs_naive"] == row["speedup_vs_naive"]


@pytest.mark.perf
def test_kernel_beats_naive_reference(small_kernel):
    report = run_bench(quick=True, repeats=2, sections=("kernel",))
    (row,) = report["sections"]["kernel"]["results"]
    assert row["speedup_vs_naive"] >= MIN_SPEEDUP_VS_NAIVE
