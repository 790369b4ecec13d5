import pytest


@pytest.fixture(scope="class")
def numpy_backend():
    """Sweep with the numpy fallback, whatever this host can compile.

    Kernel suites run each class twice: as written (the compiled kernel
    where a compiler is available) and as a ``…OnNumpy`` subclass
    marked with this fixture.  Kernel-jobs threads see the patch too.
    Class-scoped, so hypothesis tests take it too.
    """
    from repro.detectors import native

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "load", lambda: None)
        yield


# the compiled fast bodies, narrowest first: the library runs the widest
# one this CPU has, and a CPU that runs one body runs each narrower one
FAST_BODIES = ("scalar", "sse2", "avx2", "avx512")


@pytest.fixture(scope="class")
def compiled_body(request):
    """Sweep with the compiled fast body the class names in ``body``.

    ``mpx_block_max`` runs the widest body this CPU has; an
    ``…OnScalar``/``…OnSse2``/``…OnAvx2``/``…OnAvx512`` twin gets the
    library with that entry swapped for the body's own export, so each
    body this CPU can execute is tested on it, whichever the dispatcher
    picks.  A body this build lacks (the vector bodies off x86-64, the
    AVX-512 one off GCC), or one wider than the body ``native.simd()``
    names, skips the class.
    """
    from types import SimpleNamespace

    from repro.detectors import native

    body = request.cls.body
    lib = native.load()
    export = getattr(lib, f"mpx_block_max_{body}", None)
    if export is None:
        pytest.skip(f"no compiled {body} body in this build")
    if FAST_BODIES.index(body) > FAST_BODIES.index(native.simd()):
        pytest.skip(f"this CPU cannot run the {body} body")
    swapped = SimpleNamespace(
        mpx_block_max=export,
        mpx_block_argmax=lib.mpx_block_argmax,
        mpx_simd=lambda: body.encode(),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "load", lambda: swapped)
        yield
