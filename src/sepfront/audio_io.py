"""WAV file reading and writing (RIFF, PCM16 or IEEE float32)."""

import numpy as np
from scipy.io import wavfile

from .dsp import MultichannelWaveform
from .errors import InputError

WAV_FORMATS = ("float32", "pcm16")

FLOAT32_MAX = float(np.finfo(np.float32).max)  # beyond it a float32 cast gives inf

# an integer WAV sample n reads as n / the full scale of its type
FULL_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}


def read_wav(path):
    """Read a WAV file into a MultichannelWaveform (float64, channels x length)."""
    try:
        rate, data = wavfile.read(path)
    except (ValueError, OSError) as exc:  # not a WAV, or not a readable file
        raise InputError(f"{path}: {exc}") from exc
    if data.ndim == 1:
        data = data[:, np.newaxis]
    if data.dtype not in (np.int16, np.int32, np.float32, np.float64):
        raise InputError(f"{path}: unsupported WAV sample format {data.dtype}")
    try:
        return MultichannelWaveform(_decode(data.T), int(rate))
    except InputError as exc:  # a NaN or Inf sample
        raise InputError(f"{path}: {exc}") from exc


def write_wav(path, waveform, fmt="float32"):
    """Write a MultichannelWaveform; fmt is "float32" (default) or "pcm16"."""
    wavfile.write(path, waveform.sample_rate, _encode(waveform.samples, fmt, f"{path}: ").T)


def quantize(samples, fmt, where=""):
    """The float64 samples that a WAV of fmt holding samples reads back as:
    pcm16 clips to [-1, 32767/32768] and rounds half to even, float32 casts.
    A sample beyond the float32 range is an InputError, prefixed by where."""
    return _decode(_encode(samples, fmt, where))


def _encode(samples, fmt, where):
    if fmt == "float32":
        if not max(samples.max(initial=0.0), -samples.min(initial=0.0)) <= FLOAT32_MAX:
            raise InputError(f"{where}samples beyond the float32 range (|x| > {FLOAT32_MAX:.6g})")
        return samples.astype(np.float32)
    if fmt == "pcm16":
        scale = FULL_SCALE[np.dtype(np.int16)]
        return np.round(np.clip(samples, -1.0, (scale - 1.0) / scale) * scale).astype(np.int16)
    raise InputError(f"{where}unsupported WAV format: {fmt!r}")


def _decode(data):
    samples = data.astype(np.float64, order="C")  # every channel row contiguous
    if data.dtype in FULL_SCALE:
        samples /= FULL_SCALE[data.dtype]
    return samples
