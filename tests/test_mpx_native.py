"""The compiled mpx block kernel: bit-identity with numpy, and its loader.

The compiled sweep must equal the numpy sweep it replaces — running
maxima in value (the sign of a zero aside, see ``assert_same_sweep``),
neighbour indices and finalized profiles bit for bit — on every input
family the kernel suites use, exact ties and NaN included, and so must
each body of the fast path (scalar, SSE2, AVX2, AVX-512) that this CPU
can execute.  The numpy sweep stays as the fallback and as the oracle
here.  The loader tests run in fresh interpreters with their own
``XDG_CACHE_HOME``, so nothing here touches the user's cache or the
library this process loaded.
"""

import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.bench import _run_obs
from repro.detectors import SlidingStats, matrix_profile, native
from repro.detectors.parallel import plan_shards
from repro.obs import Tracer, tracing_session

from kernel_backends import on_body

# the package re-exports the matrix_profile *function* under the
# submodule's name
mp = importlib.import_module("repro.detectors.matrix_profile")

SRC = Path(__file__).resolve().parent.parent / "src"

needs_compiler = pytest.mark.skipif(
    native.load() is None, reason="no compiled kernel on this host"
)


def family(kind: str, seed: int, n: int) -> np.ndarray:
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
        return 1e9 + rng.normal(0, 1e-6, n)
    if kind == "periodic":
        # an integer pattern repeated: whole diagonals tie exactly
        period = rng.integers(-3, 4, size=int(rng.integers(5, 12)))
        return np.resize(period.astype(float), n)
    if kind == "binary":
        return rng.integers(0, 2, size=n).astype(float)
    if kind == "nan":
        values = np.cumsum(rng.normal(0, 1, n))
        values[rng.integers(0, n, size=int(rng.integers(1, 4)))] = np.nan
        return values
    raise AssertionError(kind)


FAMILIES = ["walk", "constant", "spikes", "near_constant", "periodic",
            "binary", "nan"]


def sweep_inputs(values, w):
    stats = SlidingStats(values)
    mean, inv, _constant = stats.kernel_stats(w)
    return stats.shifted, mean, inv


def exclusion_for(choice: str, w: int, m: int) -> int:
    return {
        "zero": 0,
        "one": 1,
        "half_w": w // 2,
        "w": w,
        "above_half_m": m // 2 + 1,
        "m": m,
        "beyond_m": m + 7,
    }[choice]


def compiled_workspace(m: int, exclusion: int, need_indices: bool) -> int:
    """The compiled sweep's scratch, array by array (docs/kernel.md)."""
    total = m * 8 * (2 if need_indices else 1)  # best (+ bestj)
    if exclusion >= m:
        return total
    total += 3 * (m + 128) * 8 + 2 * m * 8  # dfp, dgp, invp; c0 + anchor
    # one running sum per block row: the fast path steps 512 diagonals
    total += min(128 if need_indices else 512, m - exclusion) * 8
    if need_indices:
        total += (m - exclusion) * 16  # column-side values and indices
    return total


def assert_same_sweep(numpy_swept, compiled_swept, need_indices):
    """Raw sweeps agree in value, not in bits: a maximum over zeros of
    both signs (the constant-window pairs) keeps whichever zero its
    order met first, and numpy's order is not any body's.  ``_finalize``
    erases the sign (``1 - corr``), so finalized profiles are compared
    bit for bit in ``test_property_finalized_profile_is_numpy_bits``."""
    if numpy_swept is None or compiled_swept is None:
        assert numpy_swept is None and compiled_swept is None
        return
    np.testing.assert_array_equal(compiled_swept[0], numpy_swept[0])
    if need_indices:
        np.testing.assert_array_equal(compiled_swept[1], numpy_swept[1])
    else:
        assert compiled_swept[1] is None and numpy_swept[1] is None


@needs_compiler
class TestCompiledEqualsNumpy:
    """``_compiled_sweep`` against ``_diagonal_sweep``, the oracle."""

    def both(self, values, w, exclusion, **options):
        x, mean, inv = sweep_inputs(values, w)
        numpy_swept = mp._diagonal_sweep(x, w, exclusion, mean, inv, **options)
        compiled_swept = mp._compiled_sweep(
            native.load(), x, w, exclusion, mean, inv, **options
        )
        return numpy_swept, compiled_swept

    @given(
        st.sampled_from(FAMILIES),
        st.integers(0, 2**16),
        st.integers(3, 40),
        st.integers(0, 500),
        st.sampled_from(
            ["zero", "one", "half_w", "w", "above_half_m", "m", "beyond_m"]
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_best_and_bestj(
        self, kind, seed, w, extra, exclusion, need_indices
    ):
        n = 2 * w + extra
        values = family(kind, seed, n)
        numpy_swept, compiled_swept = self.both(
            values, w, exclusion_for(exclusion, w, n - w + 1),
            need_indices=need_indices,
        )
        assert_same_sweep(numpy_swept, compiled_swept, need_indices)

    @given(
        st.sampled_from(FAMILIES),
        st.integers(0, 2**16),
        st.integers(3, 40),
        st.integers(0, 300),
        st.sampled_from(["zero", "one", "half_w", "w"]),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_finalized_profile_is_numpy_bits(
        self, kind, seed, w, extra, exclusion, with_indices
    ):
        values = family(kind, seed, 2 * w + extra)
        options = dict(
            exclusion=exclusion_for(exclusion, w, values.size - w + 1),
            with_indices=with_indices,
        )
        compiled = matrix_profile(values, w, **options)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "load", lambda: None)
            expected = matrix_profile(values, w, **options)
        np.testing.assert_array_equal(
            compiled.profile.view(np.uint64), expected.profile.view(np.uint64)
        )
        if with_indices:
            np.testing.assert_array_equal(compiled.indices, expected.indices)

    @given(
        st.sampled_from(FAMILIES),
        st.integers(0, 2**16),
        # 1,383 diagonals: the fast path's 512-diagonal blocks end past,
        # at and short of the numpy sweep's 128-block stop
        st.one_of(
            st.integers(1, 1400),
            st.sampled_from([1, 127, 128, 129, 511, 512, 513, 1024, 1025]),
        ),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_diag_limit(self, kind, seed, diag_limit, need_indices):
        values = family(kind, seed, 1400)
        numpy_swept, compiled_swept = self.both(
            values, 9, 9, need_indices=need_indices, diag_limit=diag_limit
        )
        assert_same_sweep(numpy_swept, compiled_swept, need_indices)

    def test_shards_off_the_wide_blocks_equal_the_serial_sweep(self):
        # shard bounds fall on the 128-diagonal grid, so most start
        # inside one of the serial fast sweep's 512-diagonal blocks
        values = family("walk", 11, 4000)
        w, m = 50, 4000 - 50 + 1
        starts = [lo - w for lo, _ in plan_shards(m, w)[1:]]
        assert starts and all(start % 128 == 0 for start in starts)
        assert any(start % 512 for start in starts)
        serial = matrix_profile(values, w, with_indices=False)
        sharded = matrix_profile(values, w, with_indices=False, jobs=2)
        assert sharded.shards == len(starts) + 1
        np.testing.assert_array_equal(
            sharded.profile.view(np.uint64), serial.profile.view(np.uint64)
        )

    @given(
        st.sampled_from(["walk", "spikes", "periodic", "binary"]),
        st.integers(0, 2**16),
        st.floats(-1.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_abandon_at_the_same_block(self, kind, seed, abandon):
        values = family(kind, seed, 900)
        x, mean, inv = sweep_inputs(values, 12)
        blocks = {}
        for backend in ("numpy", "compiled"):
            tracer = Tracer(enabled=True)
            options = dict(need_indices=False, abandon=abandon, tracer=tracer)
            if backend == "numpy":
                swept = mp._diagonal_sweep(x, 12, 12, mean, inv, **options)
            else:
                swept = mp._compiled_sweep(
                    native.load(), x, 12, 12, mean, inv, **options
                )
            names = [record["name"] for record in tracer.export()]
            blocks[backend] = (swept is None, names.count("mpx.block"))
        assert blocks["numpy"] == blocks["compiled"]

    def test_exact_ties_across_blocks_and_sides(self):
        # a period that divides the block: every diagonal a multiple of
        # 16 ties exactly, on both sides of every row
        values = np.resize(np.array([0.0, 1, 3, 1, 0, -2, -1, 2] * 2), 3000)
        for exclusion in (0, 5, 16):
            numpy_swept, compiled_swept = self.both(
                values, 16, exclusion, need_indices=True
            )
            assert_same_sweep(numpy_swept, compiled_swept, True)

    def test_nan_answers_like_numpy(self):
        # both backends keep numpy's split on purpose: the indexed path
        # answers inf everywhere, the fast path NaN
        values = family("walk", 7, 3000)
        values[1234] = np.nan
        indexed = matrix_profile(values, 100)
        fast = matrix_profile(values, 100, with_indices=False)
        assert np.isinf(indexed.profile).all()
        assert np.isnan(fast.profile).all()

    def test_workspace_is_exact_and_under_the_chunk_floor(self):
        # the floor is the numpy sweep's own accounting at chunk width
        # 1: its O(m) vectors, allocated before any diagonal is swept
        values = family("walk", 5, 1500)
        for w in (10, 33):
            x, mean, inv = sweep_inputs(values, w)
            m = values.size - w + 1
            for exclusion in (0, w, m // 2 + 1, m - 3, m):
                for need_indices in (True, False):
                    swept = mp._compiled_sweep(
                        native.load(), x, w, exclusion, mean, inv,
                        need_indices=need_indices,
                    )
                    predicted = compiled_workspace(
                        m, exclusion, need_indices
                    )
                    floor = mp._diagonal_sweep(
                        x, w, exclusion, mean, inv,
                        need_indices=need_indices, chunk=1, diag_limit=0,
                    )[2]
                    assert swept[2] == predicted <= floor

    def test_compiled_trace_has_blocks_and_no_chunks(self):
        values = family("walk", 5, 600)
        with tracing_session() as (tracer, _registry):
            matrix_profile(values, 32)
            records = tracer.export()
        names = [record["name"] for record in records]
        assert "mpx.block" in names and "mpx.chunk" not in names
        profile = next(r for r in records if r["name"] == "mpx.profile")
        assert profile["attrs"]["backend"] == "compiled"


TestCompiledEqualsNumpyOnScalar = on_body(TestCompiledEqualsNumpy, "scalar")
TestCompiledEqualsNumpyOnSse2 = on_body(TestCompiledEqualsNumpy, "sse2")
TestCompiledEqualsNumpyOnAvx2 = on_body(TestCompiledEqualsNumpy, "avx2")
TestCompiledEqualsNumpyOnAvx512 = on_body(TestCompiledEqualsNumpy, "avx512")


def x86_flags() -> "set[str]":
    """The CPU's flags from /proc/cpuinfo; skips off Linux and off x86."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        pytest.skip("no /proc/cpuinfo")
    flags = {
        flag
        for line in cpuinfo.splitlines()
        if line.startswith("flags")
        for flag in line.split(":", 1)[1].split()
    }
    if "sse2" not in flags:
        pytest.skip("not an x86 CPU")
    return flags


@needs_compiler
class TestSimdQuery:
    def test_the_named_body_is_exported(self):
        body = native.simd()
        assert body in ("avx512", "avx2", "sse2", "scalar")
        assert hasattr(native.load(), f"mpx_block_max_{body}")

    def test_avx512_exactly_when_the_cpu_reports_it(self):
        flags = x86_flags()
        if not hasattr(native.load(), "mpx_block_max_avx512"):
            pytest.skip("no compiled avx512 body in this build")
        assert (native.simd() == "avx512") == ("avx512f" in flags)

    def test_avx2_exactly_when_the_cpu_reports_it(self):
        # below AVX-512, AVX2 exactly when the CPU lists it
        flags = x86_flags()
        if native.simd() == "avx512":
            assert "avx2" in flags
        else:
            assert (native.simd() == "avx2") == ("avx2" in flags)


class TestFallbackFixture:
    def test_numpy_backend_fixture_sweeps_with_numpy(self, numpy_backend):
        assert native.backend() == "numpy"
        values = family("walk", 5, 600)
        with tracing_session() as (tracer, _registry):
            matrix_profile(values, 32)
            records = tracer.export()
        names = [record["name"] for record in records]
        assert "mpx.chunk" in names
        profile = next(r for r in records if r["name"] == "mpx.profile")
        assert profile["attrs"]["backend"] == "numpy"


class TestObsSectionComparesLikeWithLike:
    def test_bare_and_matrix_profile_run_the_same_backend(self, monkeypatch):
        # bare used to call the numpy sweep while matrix_profile ran the
        # compiled one, so the overhead gate compared C with numpy
        served = []
        for name in ("_diagonal_sweep", "_compiled_sweep"):
            original = getattr(mp, name)

            def recorder(*args, _original=original, _name=name, **kwargs):
                served.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mp, name, recorder)
        # one round: which sweep serves does not depend on how many
        monkeypatch.setattr(bench, "_OBS_ROUNDS", 1)
        _run_obs(True, 1, 100)
        assert len(set(served)) == 1
        expected = {"compiled": "_compiled_sweep", "numpy": "_diagonal_sweep"}
        assert served[0] == expected[native.backend()]


# -- the loader, in fresh interpreters ---------------------------------


def run_python(code: str, cache: Path, **env) -> dict:
    environment = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
        "XDG_CACHE_HOME": str(cache),
        **env,
    }
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


PROBE = """
import json, warnings
import numpy as np
warnings.simplefilter("always")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.detectors import matrix_profile, native
    values = np.cumsum(np.random.default_rng(3).normal(size=900))
    first = matrix_profile(values, 40)
    second = matrix_profile(values, 40, with_indices=False)
print(json.dumps({
    "backend": native.backend(),
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "profile": first.profile.tolist(),
    "indices": first.indices.tolist(),
    "fast": second.profile.tolist(),
}))
"""


def cache_files(cache: Path) -> "list[str]":
    return sorted(path.name for path in (cache / "repro").iterdir())


@needs_compiler
class TestLoader:
    def test_cold_cache_compiles_once_and_a_second_process_reuses_it(
        self, tmp_path
    ):
        first = run_python(PROBE, tmp_path)
        assert first["backend"] == "compiled" and first["warnings"] == []
        [library] = cache_files(tmp_path)
        path = tmp_path / "repro" / library
        before = path.stat()
        # no compiler now: only the cached file can serve
        second = run_python(PROBE, tmp_path, CC="false")
        assert second["backend"] == "compiled" and second["warnings"] == []
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns
        )
        assert second["profile"] == first["profile"]

    def test_two_processes_on_an_empty_cache(self, tmp_path):
        environment = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "XDG_CACHE_HOME": str(tmp_path),
        }
        children = [
            subprocess.Popen(
                [sys.executable, "-c", PROBE],
                env=environment,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        results = []
        for child in children:
            stdout, stderr = child.communicate(timeout=300)
            assert child.returncode == 0, stderr
            results.append(json.loads(stdout.strip().splitlines()[-1]))
        assert [r["backend"] for r in results] == ["compiled", "compiled"]
        assert results[0]["profile"] == results[1]["profile"]
        # one library, no temporary files left behind
        [library] = cache_files(tmp_path)
        assert library.startswith("mpx-") and library.endswith(".so")

    def test_no_compiler_falls_back_with_one_warning(self, tmp_path):
        compiled = run_python(PROBE, tmp_path / "warm")
        fallback = run_python(PROBE, tmp_path / "cold", CC="false")
        assert fallback["backend"] == "numpy"
        [message] = fallback["warnings"]
        assert "'false'" in message or "false exited" in message
        assert "numpy" in message
        for key in ("profile", "indices", "fast"):
            assert fallback[key] == compiled[key]
        assert cache_files(tmp_path / "cold") == []

    def test_truncated_library_is_rebuilt(self, tmp_path):
        run_python(PROBE, tmp_path)
        [library] = cache_files(tmp_path)
        path = tmp_path / "repro" / library
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:200])
        rebuilt = run_python(PROBE, tmp_path)
        assert rebuilt["backend"] == "compiled" and rebuilt["warnings"] == []
        assert path.stat().st_size == size
        assert cache_files(tmp_path) == [library]

    def test_import_of_the_service_loads_nothing(self, tmp_path):
        code = (
            "import json, repro.serve\n"
            "from repro.detectors import native\n"
            "print(json.dumps({'tried': native._library is not native._UNTRIED}))\n"
        )
        assert run_python(code, tmp_path) == {"tried": False}
        assert not (tmp_path / "repro").exists()


# four threads released together onto an empty cache
FIRST_CALLERS = """
import json, threading, warnings
from repro.detectors import native
barrier = threading.Barrier(4)
libraries = []
def first_call():
    barrier.wait(timeout=60)
    libraries.append(native.load())
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    threads = [threading.Thread(target=first_call) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
print(json.dumps({
    "finished": sum(not thread.is_alive() for thread in threads),
    "libraries": len({id(library) for library in libraries}),
    "backend": native.backend(),
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
}))
"""


class TestConcurrentFirstCalls:
    """Threads that call first together share the one load attempt."""

    def test_one_warning_without_a_compiler(self, tmp_path):
        got = run_python(FIRST_CALLERS, tmp_path, CC="false")
        assert got["finished"] == 4 and got["backend"] == "numpy"
        assert len(got["warnings"]) == 1

    @needs_compiler
    def test_one_library_with_a_compiler(self, tmp_path):
        got = run_python(FIRST_CALLERS, tmp_path)
        assert got["finished"] == 4 and got["backend"] == "compiled"
        assert got["libraries"] == 1 and got["warnings"] == []
        assert len(cache_files(tmp_path)) == 1


class TestRefusedCacheDirectory:
    """A cache that others could write is never loaded from."""

    def refused(self, monkeypatch, tmp_path) -> str:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_library", native._UNTRIED)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert native.load() is None
            assert native.load() is None  # remembered: one warning
        [warning] = caught
        assert warning.category is RuntimeWarning
        return str(warning.message)

    def planted(self, tmp_path) -> Path:
        # a file where the library would be: must never be opened
        directory = tmp_path / "repro"
        directory.mkdir(mode=0o700)
        source = native.SOURCE.read_bytes()
        planted = native._library_path(directory, source)
        planted.write_bytes(b"not a library")
        return planted

    def test_group_or_other_writable_directory(self, monkeypatch, tmp_path):
        planted = self.planted(tmp_path)
        os.chmod(tmp_path / "repro", 0o777)
        message = self.refused(monkeypatch, tmp_path)
        assert "writable by group or others" in message
        assert planted.read_bytes() == b"not a library"

    def test_directory_of_another_user(self, monkeypatch, tmp_path):
        planted = self.planted(tmp_path)
        owner = os.stat(tmp_path / "repro").st_uid
        monkeypatch.setattr(os, "getuid", lambda: owner + 1)
        message = self.refused(monkeypatch, tmp_path)
        assert f"owned by uid {owner}" in message
        assert planted.read_bytes() == b"not a library"
