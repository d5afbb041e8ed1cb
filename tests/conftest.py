import numpy as np
import pytest

from pilot_suite import speech_like  # noqa: F401  (the tests import it from here)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
