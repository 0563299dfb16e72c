import pytest

from garside import MonoidContext, fixture


def context_factory():
    """A function from fixture names to contexts, one per name."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = MonoidContext(fixture(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def ctx_factory():
    """Session-wide contexts so congruence caches are shared."""
    return context_factory()


@pytest.fixture(scope="session")
def m1(ctx_factory):
    return ctx_factory("M1")


@pytest.fixture(scope="session")
def m2(ctx_factory):
    return ctx_factory("M2")


@pytest.fixture(scope="session")
def m3(ctx_factory):
    return ctx_factory("M3")


@pytest.fixture(scope="session")
def b3(ctx_factory):
    return ctx_factory("B3")
