"""Run a kernel test class again on another sweep: the numpy fallback,
or one compiled body of the fast path."""

import pytest
from hypothesis import given


def _twin(cls, suffix: str, fixture: str, doc: str, **attributes):
    """A subclass of ``cls`` named ``cls.__name__ + suffix`` that takes
    ``fixture``.

    Hypothesis ties a property to the one class that first runs it, so
    each property is rebuilt around the same body and strategies (its
    ``@settings``, applied below ``@given``, travel with the body);
    every other test is inherited as is.
    """
    namespace = {"__doc__": doc, **attributes}
    for name, test in vars(cls).items():
        handle = getattr(test, "hypothesis", None)
        if handle is not None:
            namespace[name] = given(**handle._given_kwargs)(handle.inner_test)
    twin = type(f"{cls.__name__}{suffix}", (cls,), namespace)
    return pytest.mark.usefixtures(fixture)(twin)


def on_numpy(cls):
    """``cls`` as a ``…OnNumpy`` subclass that takes ``numpy_backend``."""
    return _twin(
        cls, "OnNumpy", "numpy_backend",
        f"{cls.__name__} on the numpy fallback sweep.",
    )


def on_body(cls, body: str):
    """``cls`` as a ``…On<Body>`` subclass that takes ``compiled_body``:
    its fast sweeps run the compiled ``body`` (``"scalar"``, ``"sse2"``,
    ``"avx2"`` or ``"avx512"``) whatever the dispatcher would pick."""
    return _twin(
        cls, f"On{body.capitalize()}", "compiled_body",
        f"{cls.__name__} on the compiled {body} body.", body=body,
    )
