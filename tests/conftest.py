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


@pytest.fixture(scope="class")
def compiled_body(request):
    """Sweep with the compiled fast body the class names in ``body``.

    ``mpx_block_max`` runs the widest body this CPU has; an
    ``…OnScalar``/``…OnSse2``/``…OnAvx2`` twin gets the library with
    that entry swapped for the body's own export, so each body this CPU
    can execute is tested on it.  A body this build lacks (the vector
    bodies off x86-64), or AVX2 on a CPU that ``native.simd()`` says
    cannot run it, skips the class.
    """
    from types import SimpleNamespace

    from repro.detectors import native

    body = request.cls.body
    lib = native.load()
    export = getattr(lib, f"mpx_block_max_{body}", None)
    if export is None:
        pytest.skip(f"no compiled {body} body in this build")
    if body == "avx2" and native.simd() != "avx2":
        pytest.skip("this CPU cannot run the AVX2 body")
    swapped = SimpleNamespace(
        mpx_block_max=export,
        mpx_block_argmax=lib.mpx_block_argmax,
        mpx_simd=lambda: body.encode(),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "load", lambda: swapped)
        yield
