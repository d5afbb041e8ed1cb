"""The MVDR pilot reruns to its committed record."""

import numpy as np
import pytest
from scipy.signal import lfilter

import pilot_suite
from conftest import fresh_python


def test_pilot_matches_its_record(capsys):
    """`python3 tests/pilot_suite.py`: every statistic of the 100-scene pilot
    equals tests/data/pilot_mvdr.json to rel_tol 1e-9."""
    code = pilot_suite.main([])
    assert code == 0, capsys.readouterr().out


def lfilter_lowpass(signal):
    return lfilter([0.1], [1.0, -0.9], signal)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("length", [0, 1, 2, 1000, 64000])
def test_lowpass_is_lfilter_bit_for_bit(length, seed, scale):
    signal = scale * np.random.default_rng(seed).standard_normal(length)
    got = pilot_suite.lowpass(signal)
    assert got.dtype == np.float64
    assert np.array_equal(got, lfilter_lowpass(signal))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("length", [0, 1, 2, 1000, 64000])
def test_speech_like_is_the_lfilter_pilot(length, seed, monkeypatch):
    """speech_like gives what it gave when scipy.signal.lfilter was its lowpass."""
    got = pilot_suite.speech_like(np.random.default_rng(seed), length)
    monkeypatch.setattr(pilot_suite, "lowpass", lfilter_lowpass)
    assert np.array_equal(got, pilot_suite.speech_like(np.random.default_rng(seed), length))


def test_importing_the_pilot_leaves_out_scipy_signal_linalg_and_fft():
    """The pilot scores SI-SDR and filters in Python, so a fresh interpreter
    that imports it, as every benchmark process does, loads none of them."""
    child = fresh_python("import sys, pilot_suite; "
                         "print(sorted({'scipy.signal', 'scipy.linalg', 'scipy.fft'} & set(sys.modules)))",
                         timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
