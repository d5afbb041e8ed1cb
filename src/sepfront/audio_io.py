"""WAV file reading and writing (RIFF, PCM16 or IEEE float32)."""

import struct
import warnings
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
        with warnings.catch_warnings():
            # a chunk scipy does not know is skipped, as it skips LIST and JUNK;
            # its other warnings (a RIFF size past the end of the file, a cut
            # chunk ID) mean the file is truncated
            warnings.filterwarnings("error", category=wavfile.WavFileWarning)
            warnings.filterwarnings("ignore", r"Chunk \(non-data\) not understood",
                                    wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    # not a WAV, not a readable file, or a truncated one
    except (ValueError, OSError, wavfile.WavFileWarning) as exc:
        raise InputError(f"{path}: {exc}") from exc
    # header fields that scipy's reader uses unchecked (a zero sample width, a
    # missing data chunk, a size past any memory) fail in its own code
    except (TypeError, ZeroDivisionError, UnboundLocalError, struct.error, MemoryError) as exc:
        raise InputError(f"{path}: cannot read it as a WAV ({type(exc).__name__}: {exc})") from exc
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


def write_wav(path, waveform):
    """Write a StoredWaveform as it is stored (encode made and checked it), or
    a MultichannelWaveform as float32."""
    if not isinstance(waveform, StoredWaveform):
        waveform = encode(waveform, "float32", f"{path}: ")
    wavfile.write(path, waveform.sample_rate, waveform.data.T)


def encode(waveform, fmt, where=""):
    """The StoredWaveform that a WAV of fmt holding waveform stores: pcm16
    clips to [-1, 32767/32768] and rounds half to even into int16, float32
    casts. Its data is channels x length, with the channels of each sample
    adjacent in memory, as the file interleaves them. A non-finite sample, or
    in float32 one beyond its range, is an InputError, prefixed by where."""
    if fmt not in WAV_FORMATS:
        raise InputError(f"{where}unsupported WAV format: {fmt!r}")
    samples = waveform.samples
    peak = max(samples.max(initial=0.0), -samples.min(initial=0.0))  # NaN if any sample is
    if not np.isfinite(peak):
        raise InputError(f"{where}non-finite sample (NaN or Inf)")
    if fmt == "float32":
        if peak > FLOAT32_MAX:
            raise InputError(f"{where}samples beyond the float32 range (|x| > {FLOAT32_MAX:.6g})")
        data = samples.astype(np.float32, order="F")
    else:
        scale = FULL_SCALE[np.dtype(np.int16)]
        data = np.clip(samples, -1.0, (scale - 1.0) / scale) * scale
        data = np.round(data, out=data).astype(np.int16, order="F")
    return StoredWaveform(data, waveform.sample_rate)


def _decode(data):
    samples = data.astype(np.float64, order="C")  # every channel row contiguous
    if data.dtype in FULL_SCALE:
        samples /= FULL_SCALE[data.dtype]
    return samples
