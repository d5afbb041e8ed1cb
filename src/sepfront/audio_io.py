"""WAV file reading and writing, RIFF parsed and written here.

read_wav reads 16-, 24- and 32-bit PCM and 32- and 64-bit IEEE float, plain or
WAVE_FORMAT_EXTENSIBLE, and checks every size in the header against the file
before it allocates. write_wav writes PCM16 or IEEE float32 with the header
that scipy.io.wavfile.write gives the same data.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .dsp import MultichannelWaveform
from .errors import InputError

WAV_FORMATS = ("float32", "pcm16")

FLOAT32_MAX = float(np.finfo(np.float32).max)  # beyond it a float32 cast gives inf

# an integer WAV sample n reads as n / the full scale of its type
FULL_SCALE = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}

PCM, IEEE_FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE  # WAV format tags

# a WAVE_FORMAT_EXTENSIBLE subformat GUID is a format tag, then these 12 bytes
SUBFORMAT_GUID_TAIL = bytes.fromhex("0000 1000 8000 00aa00389b71")

# (format tag, bytes per sample): the type read_wav reads its samples as; 24-bit
# PCM is widened to int32, as scipy.io.wavfile.read gives it
SAMPLE_TYPES = {(PCM, 2): np.dtype("<i2"), (PCM, 3): np.dtype("<i4"), (PCM, 4): np.dtype("<i4"),
                (IEEE_FLOAT, 4): np.dtype("<f4"), (IEEE_FLOAT, 8): np.dtype("<f8")}


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
        data, rate = _read_data_chunk(path)
    except OSError as exc:  # a missing or unreadable file
        raise InputError(f"{path}: {exc}") from exc
    channels = data.shape[1]
    for row in () if rows is None else rows:
        if not 0 <= row < channels:
            raise InputError(f"{path}: row {row} is not one of its {channels} channels")
    # NaN propagates through min and max, and an Inf is one of them
    if data.dtype.kind == "f" and not np.isfinite(data.min(initial=0.0) + data.max(initial=0.0)):
        raise InputError(f"{path}: waveform contains NaN or Inf samples")
    picked = data.T if rows is None else data.T[list(rows)]
    return WavRows(_decode(picked), rate, channels)


def _read_data_chunk(path):
    """(the samples of the WAV at path, length x channels in the type that
    SAMPLE_TYPES gives them, its sample rate).

    Every chunk up to the end of the RIFF size is walked, and its size checked
    against the bytes the file holds, before a sample is read: a chunk is
    skipped unless it is the 'fmt ' or the 'data' chunk, and a size past the
    end is a truncation, so no header makes this allocate more than the file
    holds.
    """
    with open(path, "rb") as f:
        riff = f.read(12)
        if riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise InputError(f"{path}: not a RIFF WAVE file (it starts {riff!r})")
        end = 8 + struct.unpack_from("<I", riff, 4)[0]
        past = end - os.fstat(f.fileno()).st_size
        if past > 0:
            raise InputError(f"{path}: Reached EOF prematurely: "
                             f"the RIFF size runs {past} bytes past the end of the file")
        fmt = data_chunk = None
        at = 12
        while at < end:
            f.seek(at)
            header = f.read(min(8, end - at))
            if len(header) < 8:
                raise InputError(f"{path}: Incomplete chunk ID and size {header!r}: the chunk "
                                 f"header at byte {at} runs {8 - len(header)} bytes past the "
                                 "end of the RIFF chunk")
            chunk_id = header[:4].decode("latin-1")
            (size,) = struct.unpack_from("<I", header, 4)
            past = at + 8 + size - end
            if past > 0:
                raise InputError(f"{path}: Reached EOF prematurely: the {chunk_id!r} chunk "
                                 f"size runs {past} bytes past the end of the RIFF chunk")
            if chunk_id == "fmt ":
                fmt = f.read(min(size, 40))
            elif chunk_id == "data":
                data_chunk = at + 8, size
            at += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
        if fmt is None or data_chunk is None:
            raise InputError(f"{path}: no {'fmt ' if fmt is None else 'data'!r} chunk")
        if len(fmt) < 16:
            raise InputError(f"{path}: its 'fmt ' chunk has {len(fmt)} bytes, not 16 or more")
        tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
        if tag == EXTENSIBLE and fmt[28:] == SUBFORMAT_GUID_TAIL:
            (tag,) = struct.unpack_from("<I", fmt, 24)
        width = block_align // channels if channels else 0
        dtype = SAMPLE_TYPES.get((tag, width))
        # PCM may leave the low bits of its sample unused, as 20-bit PCM in 3 bytes
        valid_bits = range(8 * width - 7, 8 * width + 1) if tag == PCM else (8 * width,)
        if dtype is None or width * channels != block_align or bits not in valid_bits:
            raise InputError(f"{path}: unsupported WAV sample format (format tag {tag:#06x}, "
                             f"{channels} channels, block align {block_align}, "
                             f"{bits} bits per sample)")
        if byte_rate != rate * block_align:
            raise InputError(f"{path}: its byte rate {byte_rate} is not its sample rate {rate} "
                             f"times its block align {block_align}")
        offset, size = data_chunk
        if size % block_align:
            raise InputError(f"{path}: its data size {size} is not a whole number of "
                             f"{block_align}-byte frames")
        f.seek(offset)
        count = size // width
        if width == 3:  # widened to int32, its 3 bytes the high ones, as scipy's reader does
            wide = np.zeros((count, 4), np.uint8)
            wide[:, 1:] = np.fromfile(f, np.uint8, 3 * count).reshape(count, 3)
            samples = wide.view(dtype)
        else:
            samples = np.fromfile(f, dtype, count)
    return samples.reshape(-1, channels), rate


@dataclass(frozen=True)
class StoredWaveform:
    """A waveform as a WAV file stores it (see encode), with its rate."""

    data: np.ndarray
    sample_rate: int


def write_wav(path, waveform):
    """Write a StoredWaveform as it is stored (encode made and checked it), or
    a MultichannelWaveform as float32. A failed write is an InputError that
    names the file."""
    if not isinstance(waveform, StoredWaveform):
        waveform = encode(waveform, "float32", f"{path}: ")
    channels, frames = waveform.data.shape
    width, rate, nbytes = waveform.data.itemsize, waveform.sample_rate, waveform.data.nbytes
    tag = PCM if waveform.data.dtype.kind == "i" else IEEE_FLOAT
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * width * channels,
                      width * channels, 8 * width)
    fact = b""
    if tag == IEEE_FLOAT:  # a float 'fmt ' ends in a zero cbSize, and a 'fact' chunk follows
        fmt += b"\0\0"
        fact = b"fact" + struct.pack("<II", 4, frames)
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact + b"data"
    riff_size = len(chunks) + 4 + nbytes
    if riff_size > 0xFFFFFFFF:
        raise InputError(f"{path}: {nbytes} bytes of samples are more than a RIFF WAV holds")
    try:
        with open(path, "wb") as f:
            f.write(b"RIFF" + struct.pack("<I", riff_size) + chunks + struct.pack("<I", nbytes))
            waveform.data.T.tofile(f)  # sample by sample, its channels adjacent
    except OSError as exc:  # a short tofile write names no file
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


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
