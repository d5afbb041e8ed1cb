import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


MIB = 1 << 20


def traced_peak_mib(task, *args):
    """(task(*args), the most memory in MiB that the call held at once beyond
    what was allocated before it), by tracemalloc, which is started for the
    call if it is not tracing already."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = task(*args)
        return result, (tracemalloc.get_traced_memory()[1] - before) / MIB
    finally:
        if started:
            tracemalloc.stop()


def fresh_python(code, *args, timeout=300):
    """The completed `python -c code *args` of a fresh interpreter that finds
    the sepfront under test and this directory's modules first on its path."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)
