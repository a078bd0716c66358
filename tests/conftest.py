import threading

import numpy as np
import pytest

from pidesolve.model import named_model, scalar_model
from pidesolve.forward import TimeGrid, simulate_paths


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    # the simulator's draw thread and the backward pass's helper are joined
    # before the call that started them returns or raises
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("pidesolve-")]
    assert not alive, f"threads left running: {alive}"


@pytest.fixture(scope="session")
def heat_model():
    return scalar_model(drift=lambda x: 0.0 * x,
                        diffusion=lambda x: np.ones_like(x))


@pytest.fixture(scope="session")
def toy_model():
    return named_model("toy-uniform")


@pytest.fixture(scope="session")
def merton_model():
    return named_model("merton")


@pytest.fixture(scope="session")
def zero_model():
    return scalar_model(drift=lambda x: 0.0 * x,
                        diffusion=lambda x: 0.0 * x)


@pytest.fixture(scope="session")
def small_heat_bundle(heat_model):
    return simulate_paths(heat_model, TimeGrid(0.0, 1.0, 25), 0.0, 20_000, seed=42)
