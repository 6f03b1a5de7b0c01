import numpy as np
import pytest

from helmrecon import Grid, PwcField, build_boundary_weights, forward, make_uniform_partition


@pytest.fixture(scope="session")
def grid17():
    return Grid(17)


@pytest.fixture(scope="session")
def grid33():
    return Grid(33)


@pytest.fixture(scope="session")
def weights17(grid17):
    return build_boundary_weights(grid17)


@pytest.fixture(scope="session")
def weights33(grid33):
    return build_boundary_weights(grid33)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def no_operator(monkeypatch):
    """Fail any HelmholtzOperator built in the test: a refusal that must come
    before any solve fails the test, rather than hangs it, where it is missing."""
    def refuse(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(forward.HelmholtzOperator, "__init__", refuse)


def random_field(grid, k, b1, b2, rng):
    part = make_uniform_partition(grid, k)
    return PwcField(part, rng.uniform(b1, b2, part.n_regions), (b1, b2))
