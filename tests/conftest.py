import numpy as np
import pytest

from pilot_suite import speech_like  # noqa: F401  (the tests import it from here)
from sepfront import cli


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def kept_heaps(monkeypatch):
    """Each call that cli.main makes to keep its process's heap. The call is
    stubbed, so no test sets the allocator of the test process, which the
    pool workers inherit: a worker keeps its heap only by its initializer."""
    calls = []
    monkeypatch.setattr(cli, "_keep_process_heap", lambda: calls.append(True))
    return calls
