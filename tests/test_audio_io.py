"""audio_io's RIFF reader and writer against scipy.io.wavfile, the reference
they replace, and the reader's rules for malformed files: every outcome is a
waveform or an InputError that names the path."""

import io
import re
import struct
from collections import Counter

import numpy as np
import pytest
from scipy.io import wavfile

from conftest import traced_peak_mib
from sepfront import audio_io
from sepfront.dsp import MultichannelWaveform

FS = 16000

PCM, IEEE_FLOAT = 1, 3


def riff(fmt, data, before_data=b""):
    """The bytes of a WAV whose 'fmt ' chunk body is fmt, with the chunks
    before_data and then a data chunk of data."""
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + before_data
              + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def fmt_body(tag, channels, width, bits=None, extensible=False, byte_rate=None):
    """A 'fmt ' chunk body of channels samples of width bytes each; an
    extensible one carries tag in its subformat GUID."""
    bits = 8 * width if bits is None else bits
    byte_rate = FS * width * channels if byte_rate is None else byte_rate
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, FS, byte_rate,
                       width * channels, bits)
    if extensible:  # cbSize, valid bits, channel mask, subformat GUID
        body += struct.pack("<HHII", 22, bits, 0, tag) + bytes.fromhex("00001000800000aa00389b71")
    return body


def with_negative_zero(data):
    data.flat[7] = -0.0
    return data


# the bytes of one WAV of each kind read_wav reads, 500 samples of 1 to 3 channels
WAV_FILES = {
    "pcm16": lambda rng: rng.integers(-32768, 32768, (500, 3)).astype(np.int16),
    "pcm24": lambda rng: riff(fmt_body(PCM, 2, 3), rng.bytes(500 * 2 * 3)),
    "pcm20-in-3-bytes": lambda rng: riff(fmt_body(PCM, 2, 3, bits=20), rng.bytes(500 * 2 * 3)),
    "pcm32": lambda rng: rng.integers(-2 ** 31, 2 ** 31, (500, 3)).astype(np.int32),
    "float32": lambda rng: with_negative_zero(rng.uniform(-1.0, 1.0, (500, 3)).astype(np.float32)),
    "float64": lambda rng: with_negative_zero(rng.uniform(-1.0, 1.0, (500, 3))),
    "mono": lambda rng: with_negative_zero(rng.uniform(-1.0, 1.0, 500).astype(np.float32)),
    "extensible-pcm24": lambda rng: riff(fmt_body(PCM, 2, 3, extensible=True),
                                         rng.bytes(500 * 2 * 3)),
    "extensible-float32": lambda rng: riff(
        fmt_body(IEEE_FLOAT, 2, 4, extensible=True),
        with_negative_zero(rng.uniform(-1.0, 1.0, (500, 2)).astype("<f4")).tobytes()),
}


def write_kind(path, kind, rng):
    made = WAV_FILES[kind](rng)
    if isinstance(made, bytes):
        path.write_bytes(made)
    else:
        wavfile.write(path, FS, made)


@pytest.mark.parametrize("kind", list(WAV_FILES))
def test_read_equals_scipy_read_and_decode(kind, rng, tmp_path):
    """read_wav gives, bit for bit, what scipy's reader and the decode read_wav
    applied to its output gave."""
    path = tmp_path / "x.wav"
    write_kind(path, kind, rng)
    rate, data = wavfile.read(path)
    expected = audio_io._decode(data.reshape(len(data), -1).T)
    read = audio_io.read_wav(path)
    assert np.array_equal(read.samples, expected)
    assert np.array_equal(np.signbit(read.samples), np.signbit(expected))
    assert (read.sample_rate, read.file_channels) == (rate, expected.shape[0])


@pytest.mark.parametrize("channels", [1, 8])
@pytest.mark.parametrize("fmt", audio_io.WAV_FORMATS)
def test_written_bytes_equal_scipy_write(fmt, channels, rng, tmp_path):
    waveform = MultichannelWaveform(rng.uniform(-1.0, 1.0, (channels, 301)), FS)
    stored = audio_io.encode(waveform, fmt)
    audio_io.write_wav(tmp_path / "x.wav", stored)
    reference = io.BytesIO()
    wavfile.write(reference, FS, stored.data.T)
    assert (tmp_path / "x.wav").read_bytes() == reference.getvalue()


def test_more_samples_than_a_riff_holds_is_an_input_error(tmp_path):
    """4 GiB of samples are refused before the file is made (a broadcast
    array has that size without the memory)."""
    data = np.broadcast_to(np.zeros((1, 1), np.float32), (1, 2 ** 30))
    with pytest.raises(audio_io.InputError, match="more than a RIFF WAV holds"):
        audio_io.write_wav(tmp_path / "x.wav", audio_io.StoredWaveform(data, FS))
    assert not (tmp_path / "x.wav").exists()


def test_odd_sized_chunk_is_padded_and_skipped(rng, tmp_path):
    samples = rng.uniform(-1.0, 1.0, (2, 300)).astype("<f4")
    path = tmp_path / "x.wav"
    path.write_bytes(riff(fmt_body(IEEE_FLOAT, 2, 4), samples.T.tobytes(),
                          before_data=b"LIST" + struct.pack("<I", 5) + b"odd\0\0" + b"\0"))
    read = audio_io.read_wav(path)
    assert np.array_equal(read.samples, samples.astype(np.float64))


def float32_wav(rng, samples=300):
    """The bytes of a 2-channel float32 WAV as scipy writes it."""
    buffer = io.BytesIO()
    wavfile.write(buffer, FS, rng.uniform(-1.0, 1.0, (samples, 2)).astype(np.float32))
    return bytearray(buffer.getvalue())


def grow_size(wav, at, by):
    struct.pack_into("<I", wav, at, struct.unpack_from("<I", wav, at)[0] + by)


@pytest.mark.parametrize("edit, message", [
    (lambda wav: grow_size(wav, 4, 1000),
     "Reached EOF prematurely: the RIFF size runs 1000 bytes past the end of the file"),
    (lambda wav: grow_size(wav, wav.index(b"data") + 4, 6),
     "Reached EOF prematurely: the 'data' chunk size runs 6 bytes past the end of the RIFF chunk"),
    (lambda wav: (wav.extend(b"da"), grow_size(wav, 4, 2)),
     "Incomplete chunk ID and size b'da': the chunk header at byte 2458 runs 6 bytes past "
     "the end of the RIFF chunk"),
], ids=["riff-size", "data-size", "chunk-header"])
def test_truncation_says_which_size_runs_past_the_end(edit, message, rng, tmp_path):
    path = tmp_path / "x.wav"
    wav = float32_wav(rng)
    edit(wav)
    path.write_bytes(bytes(wav))
    with pytest.raises(audio_io.InputError) as info:
        audio_io.read_wav(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("wav, field", [
    (riff(fmt_body(PCM, 2, 1), bytes(600)), "format tag 0x0001, 2 channels, block align 2, 8 bits"),
    (riff(fmt_body(PCM, 1, 8), bytes(800)), "format tag 0x0001, 1 channels, block align 8, 64"),
    (riff(fmt_body(IEEE_FLOAT, 1, 4, bits=24), bytes(400)), "block align 4, 24 bits per sample"),
    (riff(fmt_body(6, 1, 1), bytes(100)), "format tag 0x0006"),  # A-law
    (riff(fmt_body(6, 1, 2, extensible=True), bytes(100)), "format tag 0x0006"),
    (riff(fmt_body(PCM, 0, 2), bytes(100)), "0 channels, block align 0"),
    (riff(fmt_body(PCM, 2, 2)[:14], bytes(100)), "'fmt ' chunk has 14 bytes"),
    (riff(fmt_body(IEEE_FLOAT, 2, 4, byte_rate=128001), bytes(80)),
     "byte rate 128001 is not its sample rate 16000 times its block align 8"),
    (riff(fmt_body(PCM, 2, 2), bytes(101)), "data size 101 is not a whole number of 4-byte"),
    (riff(fmt_body(PCM, 2, 2), bytes(100))[:36], "no 'data' chunk"),
    (b"RIFX" + riff(fmt_body(PCM, 2, 2), bytes(100))[4:], "not a RIFF WAVE file"),
], ids=["pcm8", "pcm64", "float24", "alaw", "extensible-alaw", "no-channels", "short-fmt",
        "byte-rate", "partial-frame", "no-data", "big-endian"])
def test_unsupported_or_malformed_header_names_the_field(wav, field, tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(wav[:4] + struct.pack("<I", len(wav) - 8) + wav[8:])  # a RIFF size that fits
    with pytest.raises(audio_io.InputError, match=f"^{re.escape(f'{path}: ')}.*{re.escape(field)}"):
        audio_io.read_wav(path)


@pytest.mark.parametrize("fmt", audio_io.WAV_FORMATS)
def test_changed_or_cut_header_reads_or_names_the_path(fmt, tmp_path):
    """2500 changes of 1 to 3 of the first 64 bytes of a 2-channel WAV, and
    500 cuts: each reads, or is an InputError naming the path; no other
    exception and no warning (filterwarnings = error) escapes."""
    rng = np.random.default_rng(28)
    waveform = MultichannelWaveform(rng.uniform(-1.0, 1.0, (2, 300)), FS)
    path = tmp_path / "x.wav"
    audio_io.write_wav(path, audio_io.encode(waveform, fmt))
    original = path.read_bytes()
    outcomes = Counter()
    for trial in range(3000):
        wav = bytearray(original)
        if trial < 500:
            del wav[rng.integers(len(wav)):]
        else:
            for at in rng.choice(64, rng.integers(1, 4), replace=False):
                wav[at] = rng.integers(256)
        path.write_bytes(bytes(wav))
        try:
            read = audio_io.read_wav(path)
        except audio_io.InputError as exc:
            assert str(exc).startswith(f"{path}: ")
            outcomes["error"] += 1
        else:
            assert read.samples.dtype == np.float64
            assert read.num_channels == read.file_channels
            outcomes["read"] += 1
    assert outcomes["read"] > 100 and outcomes["error"] > 100


def test_data_size_past_the_file_fails_before_allocating(rng, tmp_path):
    """A data chunk that claims 4e9 bytes in a file under 3 KB fails at its
    size check, having allocated under 1 MiB."""
    path = tmp_path / "x.wav"
    wav = float32_wav(rng, samples=350)
    struct.pack_into("<I", wav, wav.index(b"data") + 4, 4_000_000_000)
    path.write_bytes(bytes(wav))

    def failed_read():
        with pytest.raises(audio_io.InputError, match="'data' chunk size runs"):
            audio_io.read_wav(path)

    assert len(wav) < 3000
    assert traced_peak_mib(failed_read)[1] < 1.0
