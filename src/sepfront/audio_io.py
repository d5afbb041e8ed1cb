"""WAV file reading and writing (RIFF, PCM16 or IEEE float32)."""

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .dsp import MultichannelWaveform
from .errors import InputError

WAV_FORMATS = ("float32", "pcm16")

FLOAT32_MAX = float(np.finfo(np.float32).max)  # beyond it a float32 cast gives inf

# an integer WAV sample n reads as n / the full scale of its type
FULL_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}


@dataclass(frozen=True)
class WavRows(MultichannelWaveform):
    """The channels read_wav decoded, and how many channels the file holds."""

    file_channels: int


def read_wav(path, rows=None):
    """Read a WAV file into float64 channels x length samples.

    rows, a sequence of channel indices, decodes only those channels, in that
    order; None decodes every channel. Every channel is checked either way,
    so a NaN or Inf sample anywhere in the file is an InputError, and so is a
    row beyond the file's channels. Returns a WavRows, a MultichannelWaveform
    of the decoded rows whose file_channels is the file's channel count.
    """
    try:
        rate, data = wavfile.read(path)
    except (ValueError, OSError) as exc:  # not a WAV, or not a readable file
        raise InputError(f"{path}: {exc}") from exc
    if data.ndim == 1:
        data = data[:, np.newaxis]
    if data.dtype not in (np.int16, np.int32, np.float32, np.float64):
        raise InputError(f"{path}: unsupported WAV sample format {data.dtype}")
    channels = data.shape[1]
    for row in () if rows is None else rows:
        if not 0 <= row < channels:
            raise InputError(f"{path}: row {row} is not one of its {channels} channels")
    # NaN propagates through min and max, and an Inf is one of them
    if data.dtype.kind == "f" and not np.isfinite(data.min(initial=0.0) + data.max(initial=0.0)):
        raise InputError(f"{path}: waveform contains NaN or Inf samples")
    picked = data.T if rows is None else data.T[list(rows)]
    return WavRows(_decode(picked), int(rate), channels)


@dataclass(frozen=True)
class StoredWaveform:
    """A waveform as a WAV file stores it (see encode), with its rate."""

    data: np.ndarray
    sample_rate: int


def write_wav(path, waveform, fmt="float32"):
    """Write a MultichannelWaveform; fmt is "float32" (default) or "pcm16".
    A StoredWaveform, which encode made and checked, is written as it is."""
    if not isinstance(waveform, StoredWaveform):
        waveform = encode(waveform, fmt, f"{path}: ")
    wavfile.write(path, waveform.sample_rate, waveform.data.T)


def encode(waveform, fmt, where=""):
    """The StoredWaveform that a WAV of fmt holding waveform stores. A
    non-finite sample, or in float32 one beyond its range, is an InputError,
    prefixed by where."""
    return StoredWaveform(_encode(waveform.samples, fmt, where), waveform.sample_rate)


def quantize(samples, fmt, where=""):
    """The float64 samples that a WAV of fmt holding samples reads back as:
    pcm16 clips to [-1, 32767/32768] and rounds half to even, float32 casts.
    A non-finite sample, or one beyond the float32 range, is an InputError,
    prefixed by where."""
    return _decode(_encode(samples, fmt, where))


def _encode(samples, fmt, where):
    """int16 for pcm16, float32 for float32: channels x length, with the
    channels of each sample adjacent in memory, as the file interleaves them."""
    if fmt not in WAV_FORMATS:
        raise InputError(f"{where}unsupported WAV format: {fmt!r}")
    peak = max(samples.max(initial=0.0), -samples.min(initial=0.0))  # NaN if any sample is
    if not np.isfinite(peak):
        raise InputError(f"{where}non-finite sample (NaN or Inf)")
    if fmt == "float32":
        if peak > FLOAT32_MAX:
            raise InputError(f"{where}samples beyond the float32 range (|x| > {FLOAT32_MAX:.6g})")
        return samples.astype(np.float32, order="F")
    scale = FULL_SCALE[np.dtype(np.int16)]
    scaled = np.clip(samples, -1.0, (scale - 1.0) / scale) * scale
    return np.round(scaled, out=scaled).astype(np.int16, order="F")


def _decode(data):
    samples = data.astype(np.float64, order="C")  # every channel row contiguous
    if data.dtype in FULL_SCALE:
        samples /= FULL_SCALE[data.dtype]
    return samples
