import numpy as np
import pytest

from hyperdecay.presets import PRESETS


@pytest.fixture(scope="session")
def stacks():
    return {name: pm.build() for name, pm in PRESETS.items()}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def propagator_inits(monkeypatch):
    """A list that gains one entry per `RadialPropagator` built during the test."""
    from hyperdecay import solver

    built = []
    init = solver.RadialPropagator.__init__
    monkeypatch.setattr(solver.RadialPropagator, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    return built
