import numpy as np
import pytest

import inghamlab as il
from inghamlab.groups import default_grid

DEFAULT_PARAMS = dict(alpha=0.5, eta=0.25, t0=1.0)


@pytest.fixture(scope="session")
def sl2c():
    return il.sl2c()


@pytest.fixture(scope="session")
def offset_grid():
    """Half-step grid used by every group-mode computation."""
    return default_grid()


@pytest.fixture(scope="session")
def line_grid():
    return il.Grid.symmetric(64.0, 2 ** 14)


@pytest.fixture(scope="session")
def gaussian_on_line(line_grid):
    return il.SampledFunction.from_callable(
        line_grid, lambda x: np.exp(-x ** 2), label="gaussian")


@pytest.fixture(scope="session")
def gaussian_on_group(offset_grid):
    return il.SampledFunction.from_callable(
        offset_grid, lambda H: np.exp(-H ** 2), label="gaussian")


@pytest.fixture(scope="session")
def witness_params():
    return il.CounterexampleParams(**DEFAULT_PARAMS)


@pytest.fixture(scope="session")
def witness(witness_params, sl2c, offset_grid):
    return il.build_initial_data(witness_params, sl2c, offset_grid)


@pytest.fixture(scope="session")
def theta_pipeline(witness_params):
    """Full default pipeline run; shared because the evolution is slow."""
    return il.run_pipeline(witness_params, il.MODE_THETA)


@pytest.fixture(scope="session")
def linear_pipeline(witness_params):
    return il.run_pipeline(witness_params, il.MODE_LINEAR)
