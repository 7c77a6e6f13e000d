import pytest
from hypothesis import settings

from reebspec import Ellipsoid, FieldContext

# Property tests draw the same examples on every run, and a slow shared host
# cannot fail them on time alone.
settings.register_profile("reebspec", derandomize=True, deadline=None)
settings.load_profile("reebspec")


@pytest.fixture(scope="session")
def ctx2():
    return FieldContext(2)


@pytest.fixture(scope="session")
def ctx5():
    return FieldContext(5)


@pytest.fixture(scope="session")
def w2(ctx2):
    """Weights (1, sqrt(2))."""
    return [ctx2.element(1), ctx2.sqrt_d()]


@pytest.fixture(scope="session")
def w3(ctx2):
    """Weights (1, sqrt(2), 1 + sqrt(2))."""
    return [ctx2.element(1), ctx2.sqrt_d(), ctx2.element(1, 1)]


@pytest.fixture(scope="session")
def e2(w2):
    return Ellipsoid(w2)


@pytest.fixture(scope="session")
def e3(w3):
    return Ellipsoid(w3)
