"""WAV file reading and writing (RIFF, PCM16 or IEEE float32)."""

import numpy as np
from scipy.io import wavfile

from .dsp import MultichannelWaveform
from .errors import InputError

WAV_FORMATS = ("float32", "pcm16")


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
    # one C-ordered conversion, so every channel row is contiguous
    samples = data.T.astype(np.float64, order="C")
    if data.dtype == np.int16:
        samples /= 32768.0
    elif data.dtype == np.int32:
        samples /= 2147483648.0
    return MultichannelWaveform(samples, int(rate))


def write_wav(path, waveform, fmt="float32"):
    """Write a MultichannelWaveform; fmt is "float32" (default) or "pcm16"."""
    data = waveform.samples.T
    if fmt == "float32":
        limit = np.finfo(np.float32).max  # beyond it the cast gives inf
        if max(data.max(initial=0.0), -data.min(initial=0.0)) > limit:
            raise InputError(f"{path}: samples beyond the float32 range (|x| > {limit:.6g})")
        wavfile.write(path, waveform.sample_rate, data.astype(np.float32))
    elif fmt == "pcm16":
        clipped = np.clip(data, -1.0, 32767.0 / 32768.0)
        wavfile.write(path, waveform.sample_rate, np.round(clipped * 32768.0).astype(np.int16))
    else:
        raise InputError(f"unsupported WAV format: {fmt!r}")
