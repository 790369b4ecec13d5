"""Run a kernel test class again on the numpy fallback sweep."""

import pytest
from hypothesis import given


def on_numpy(cls):
    """``cls`` as a ``…OnNumpy`` subclass that takes ``numpy_backend``.

    Hypothesis ties a property to the one class that first runs it, so
    each property is rebuilt around the same body and strategies (its
    ``@settings``, applied below ``@given``, travel with the body);
    every other test is inherited as is.
    """
    namespace = {"__doc__": f"{cls.__name__} on the numpy fallback sweep."}
    for name, test in vars(cls).items():
        handle = getattr(test, "hypothesis", None)
        if handle is not None:
            namespace[name] = given(**handle._given_kwargs)(handle.inner_test)
    twin = type(f"{cls.__name__}OnNumpy", (cls,), namespace)
    return pytest.mark.usefixtures("numpy_backend")(twin)
