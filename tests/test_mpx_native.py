"""The compiled mpx block kernel: bit-identity with numpy, and its loader.

The compiled sweep must equal the numpy sweep it replaces bit for bit —
running maxima *and* neighbour indices — on every input family the
kernel suites use, exact ties and NaN included.  The numpy sweep stays
as the fallback and as the oracle here.  The loader tests run in fresh
interpreters with their own ``XDG_CACHE_HOME``, so nothing here touches
the user's cache or the library this process loaded.
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

from repro.bench import _run_obs
from repro.detectors import SlidingStats, matrix_profile, native
from repro.obs import Tracer, tracing_session

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
    total += min(128, m - exclusion) * 8  # one running sum per block row
    if need_indices:
        total += (m - exclusion) * 16  # column-side values and indices
    return total


def assert_same_sweep(numpy_swept, compiled_swept, need_indices):
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
        st.integers(1, 400),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_diag_limit(self, kind, seed, diag_limit, need_indices):
        values = family(kind, seed, 700)
        numpy_swept, compiled_swept = self.both(
            values, 9, 9, need_indices=need_indices, diag_limit=diag_limit
        )
        assert_same_sweep(numpy_swept, compiled_swept, need_indices)

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
                    floor = mp._sweep_allocation_bytes(
                        m, exclusion, need_indices=need_indices, chunk=1
                    )
                    assert swept[2] == predicted <= floor

    def test_budget_that_fits_chunk_width_one_bounds_the_compiled_sweep(self):
        values = family("walk", 13, 4000)
        m = values.size - 40 + 1
        floor = mp._sweep_allocation_bytes(m, 40, need_indices=True, chunk=1)
        bounded = matrix_profile(values, 40, max_memory_bytes=floor)
        assert bounded.workspace_bytes <= floor
        free = matrix_profile(values, 40)
        np.testing.assert_array_equal(bounded.profile, free.profile)
        np.testing.assert_array_equal(bounded.indices, free.indices)

    def test_compiled_trace_has_blocks_and_no_chunks(self):
        values = family("walk", 5, 600)
        with tracing_session() as (tracer, _registry):
            matrix_profile(values, 32)
            records = tracer.export()
        names = [record["name"] for record in records]
        assert "mpx.block" in names and "mpx.chunk" not in names
        profile = next(r for r in records if r["name"] == "mpx.profile")
        assert profile["attrs"]["backend"] == "compiled"


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
        _run_obs(True, 1, 100, None)
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
