import pytest


@pytest.fixture(scope="class")
def numpy_backend():
    """Sweep with the numpy fallback, whatever this host can compile.

    Kernel suites run each class twice: as written (the compiled kernel
    where a compiler is available) and as a ``…OnNumpy`` subclass
    marked with this fixture.  Forked pool workers inherit the patch.
    Class-scoped, so hypothesis tests take it too.
    """
    from repro.detectors import native

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "load", lambda: None)
        yield
