"""The compiled mpx block kernel: built on first use, loaded with ctypes.

:func:`load` compiles ``_mpx.c`` (next to this file) with ``$CC``, else
``cc``, and the flags in :data:`FLAGS` into a per-user cache file
``${XDG_CACHE_HOME:-~/.cache}/repro/mpx-<digest>.so``.  The digest
covers the source, the flags and the machine, so an edited kernel or
another architecture never loads a stale library.  Nothing happens at
import: the first sweep pays one compile (about 0.36 s on a 2-vCPU
x86-64 host), and every later process only loads the cached file.

The library picks the widest body of its fast sweep that the CPU runs
(AVX-512F, else AVX2, else SSE2 on x86-64, else scalar) inside each
call, and :func:`simd` names it; nothing here chooses one.

The build writes a temporary file in the cache directory and moves it
into place with :func:`os.replace`, so processes that start together
on an empty cache each get a whole library and leave nothing behind.
A cache directory owned by another user, or writable by group or
others, is refused and never loaded from; a cached library that does
not load (truncated, say) is rebuilt once.

When no library can be had — no compiler, a refused directory, a failed
build — :func:`load` returns ``None``, the kernel falls back to the
numpy sweep (same results; ``repro run`` over an archive of discord
detectors is about fifty times slower), and one ``RuntimeWarning`` per
process names the reason.
"""

from __future__ import annotations

import hashlib
import os
import platform
import threading
import warnings
from pathlib import Path

__all__ = ["FLAGS", "load", "backend", "simd"]

FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("_mpx.c")

_UNTRIED = object()
# this process's one load attempt: the library, None (numpy) or _UNTRIED;
# the lock makes callers that arrive together wait for that one attempt
_library = _UNTRIED
_library_lock = threading.Lock()


class _Unavailable(Exception):
    """Why this process sweeps with numpy."""


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (an absolute one), else ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _library_path(directory: Path, source: bytes) -> Path:
    key = hashlib.sha256()
    for part in (source, " ".join(FLAGS).encode(), platform.machine().encode(),
                 platform.system().encode()):
        key.update(part)
        key.update(b"\0")
    return directory / f"mpx-{key.hexdigest()[:16]}.so"


def _checked_dir(directory: Path) -> Path:
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.stat(directory)
    except OSError as exc:
        raise _Unavailable(f"cache directory {directory}: {exc}") from None
    uid = os.getuid() if hasattr(os, "getuid") else None
    if uid is not None and info.st_uid != uid:
        raise _Unavailable(
            f"cache directory {directory} is owned by uid {info.st_uid}, "
            f"not {uid}"
        )
    if info.st_mode & 0o022:
        raise _Unavailable(
            f"cache directory {directory} is writable by group or others"
        )
    return directory


def _compile(target: Path) -> None:
    import shlex
    import subprocess
    import tempfile

    compiler = shlex.split(os.environ.get("CC") or "cc")
    handle, temporary = tempfile.mkstemp(
        prefix=".mpx-", suffix=".so", dir=target.parent
    )
    os.close(handle)
    try:
        try:
            done = subprocess.run(
                [*compiler, *FLAGS, "-o", temporary, str(SOURCE)],
                capture_output=True,
                text=True,
                timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"compiler {compiler[0]!r}: {exc}") from None
        if done.returncode != 0:
            detail = done.stderr.strip().splitlines()
            raise _Unavailable(
                f"{' '.join(compiler)} exited with status {done.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
        os.replace(temporary, target)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _open(path: Path):
    import ctypes

    lib = ctypes.CDLL(str(path))
    double_p, int64 = ctypes.c_void_p, ctypes.c_int64
    head = [double_p] * 4 + [int64] * 3
    # each fast body under its own name too; the vector ones are x86-64
    # only, and avx512 needs GCC
    for name in ("mpx_block_max", "mpx_block_max_scalar",
                 "mpx_block_max_sse2", "mpx_block_max_avx2",
                 "mpx_block_max_avx512"):
        if hasattr(lib, name):
            entry = getattr(lib, name)
            entry.argtypes = head + [double_p] * 3  # s, best, alive
            entry.restype = None
    lib.mpx_block_argmax.argtypes = head + [double_p] * 5
    lib.mpx_block_argmax.restype = None
    lib.mpx_simd.argtypes = []
    lib.mpx_simd.restype = ctypes.c_char_p
    return lib


def _build_and_open():
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"kernel source {SOURCE}: {exc}") from None
    path = _library_path(_checked_dir(_cache_dir()), source)
    if path.exists():
        try:
            return _open(path)
        except (OSError, AttributeError):
            pass  # unreadable or incomplete: rebuild it below
    try:
        _compile(path)
    except OSError as exc:  # a full disk, a read-only cache
        raise _Unavailable(f"cannot write {path}: {exc}") from None
    try:
        return _open(path)
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"built {path} but cannot load it: {exc}") from None


def load():
    """The compiled kernel library, or ``None`` (numpy fallback).

    Tried once per process, whichever threads call first; a failure
    warns once and is remembered.
    """
    global _library
    with _library_lock:
        if _library is _UNTRIED:
            try:
                _library = _build_and_open()
            except _Unavailable as exc:
                _library = None
                warnings.warn(
                    f"compiled mpx kernel unavailable ({exc}); sweeping "
                    f"with numpy: same results, about fifty times slower",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return _library


def backend() -> str:
    """``"compiled"`` or ``"numpy"``: the sweep this process runs."""
    return "numpy" if load() is None else "compiled"


def simd() -> str | None:
    """The fast sweep's body on this CPU: ``"avx512"``, ``"avx2"``,
    ``"sse2"`` or ``"scalar"``; ``None`` on the numpy fallback."""
    lib = load()
    return None if lib is None else lib.mpx_simd().decode()
