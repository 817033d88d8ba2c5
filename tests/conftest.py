import numpy as np
import pytest

from hyperalpha.tapers import build_taper_set


@pytest.fixture(scope="session")
def set10():
    # default preset, 75 tapers
    return build_taper_set(2, 10)


@pytest.fixture(scope="session")
def set4():
    # reduced-CI preset, 12 tapers
    return build_taper_set(2, 4)


@pytest.fixture(scope="session")
def set5():
    # 16-taper preset used in the bias-variance comparison
    return build_taper_set(2, 5)


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Sizes of the matrices np.linalg.eigh is called on, in call order."""
    sizes = []
    eigh = np.linalg.eigh

    def recorded(a):
        sizes.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return sizes
