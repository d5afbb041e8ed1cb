"""STFT analysis and weighted overlap-add synthesis.

All transforms are pure functions over immutable value objects and operate
in float64/complex128. Reconstruction uses the WOLA dual synthesis window
s[n] = w[n] / sum_j w[n + j*hop]^2, which is exact for any hop whose
squared-window shifts cover every sample.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, InputError

# Overlap weights below this are treated as uncovered samples.
_COVERAGE_TOL = 1e-12

# Size of the block of frames that stft windows and transforms, and istft
# inverts, in one call: large enough that numpy's per-call cost is small,
# small enough that no copy of a whole channel's frames is made
_BLOCK_BYTES = 1 << 18


def make_window(length):
    """Periodic Hann analysis window of length taps, at least 2.

    Returns:
        float64 vector w[n] = 0.5*(1 - cos(2*pi*n/length)).
    """
    if length < 2:
        raise ConfigurationError(f"window length must be >= 2, got {length}")
    n = np.arange(length, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / length))


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters for the STFT pair."""

    window_length: int = 512
    hop: int = 128
    fft_size: int = None

    def __post_init__(self):
        if self.fft_size is None:
            object.__setattr__(self, "fft_size", self.window_length)
        if self.window_length < 2:
            raise ConfigurationError("window_length must be >= 2")
        if not 1 <= self.hop <= self.window_length:
            raise ConfigurationError("hop must satisfy 1 <= hop <= window_length")
        if self.fft_size < self.window_length:
            raise ConfigurationError("fft_size must be >= window_length")
        if self.fft_size & (self.fft_size - 1):
            raise ConfigurationError("fft_size must be a power of two")
        # interior samples see the full periodic sum of squared-window shifts;
        # edge deficits are handled by the per-sample normalization in istft
        wsq = self.window() ** 2
        period = np.bincount(np.arange(self.window_length) % self.hop, weights=wsq)
        if not np.all(period > _COVERAGE_TOL):
            raise ConfigurationError(
                f"window/hop pair (hann, {self.window_length}/{self.hop}) "
                "does not cover all samples (COLA violated)"
            )

    @property
    def num_bins(self):
        return self.fft_size // 2 + 1

    def window(self):
        return make_window(self.window_length)

    def num_frames(self, length):
        """Frame count for a signal of the given length."""
        return 1 + length // self.hop


@dataclass(frozen=True)
class MultichannelWaveform:
    """Real multichannel signal, channels x length, with a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        if samples.ndim != 2:
            raise InputError(f"samples must be 1-D or 2-D, got ndim={samples.ndim}")
        if not np.all(np.isfinite(samples)):
            raise InputError("waveform contains NaN or Inf samples")
        object.__setattr__(self, "samples", samples)

    @property
    def num_channels(self):
        return self.samples.shape[0]

    @property
    def num_samples(self):
        return self.samples.shape[1]

    def channel(self, index):
        if not 0 <= index < self.num_channels:
            raise ConfigurationError(
                f"channel index {index} out of range for {self.num_channels} channels"
            )
        return self.samples[index]


@dataclass(frozen=True)
class Spectrogram:
    """One-sided complex STFT, channels x frames x frequencies."""

    bins: np.ndarray
    config: StftConfig
    original_length: int
    sample_rate: int = 16000

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim == 2:
            bins = bins[np.newaxis, :, :]
        if bins.ndim != 3:
            raise InputError(f"bins must be 2-D or 3-D, got ndim={bins.ndim}")
        if bins.shape[2] != self.config.num_bins:
            raise InputError(
                f"expected {self.config.num_bins} frequency bins, got {bins.shape[2]}"
            )
        if bins.shape[1] != self.config.num_frames(self.original_length):
            raise InputError(
                f"expected {self.config.num_frames(self.original_length)} frames "
                f"for length {self.original_length}, got {bins.shape[1]}"
            )
        object.__setattr__(self, "bins", bins)

    @property
    def num_channels(self):
        return self.bins.shape[0]

    @property
    def num_frames(self):
        return self.bins.shape[1]

    @property
    def num_bins(self):
        return self.bins.shape[2]

    @cached_property
    def freq_major(self):
        """bins as a C-contiguous (F, M, T) array, taken on first use and kept.

        The spatial kernels run one small matmul per frequency; in this
        layout each frequency's M x T matrix is contiguous, so BLAS reads it
        without striding. For a multichannel stft output this is the array
        that bins views, so no copy is made; other bins are copied once, and
        every kernel call on the spectrogram shares the result.
        """
        return np.ascontiguousarray(self.bins.transpose(2, 0, 1))

    def channel(self, index):
        """Single-channel view as a new Spectrogram."""
        if not 0 <= index < self.num_channels:
            raise ConfigurationError(
                f"channel index {index} out of range for {self.num_channels} channels"
            )
        return Spectrogram(
            self.bins[index:index + 1], self.config, self.original_length, self.sample_rate
        )


def _frames_per_block(row_bytes):
    """Frames in one block of a transform whose rows take row_bytes each."""
    return max(1, _BLOCK_BYTES // row_bytes)


def stft(waveform, config):
    """Short-time Fourier transform of every channel.

    Frame t covers samples [t*hop, t*hop + window_length) of the signal after
    window_length // 2 leading zeros; spectra are one-sided rfft of size fft_size.
    A one-channel result's bins are C-contiguous (T, F) rows. A multichannel
    result's bins are the (M, T, F) view of a C-contiguous (F, M, T) array,
    which freq_major then returns without a copy.

    One channel is padded at a time, and one block of its frames is windowed
    and transformed at a time, straight into the result: the result is the
    only array the size of the grid.
    """
    x = waveform.samples
    if not np.all(np.isfinite(x)):
        raise InputError("waveform contains NaN or Inf samples")
    channels, length = x.shape
    num_frames = config.num_frames(length)
    w = config.window_length
    window = config.window()
    if channels == 1:
        # masking and the iSTFT read one channel's (T, F) rows
        spectra = np.empty((1, num_frames, config.num_bins), dtype=np.complex128)
    else:
        # the spatial kernels read (F, M, T), which freq_major then returns as it is
        layout = np.empty((config.num_bins, channels, num_frames), dtype=np.complex128)
        spectra = layout.transpose(1, 2, 0)
    step = _frames_per_block(8 * config.fft_size)
    for row, out in zip(x, spectra):
        padded = np.pad(row, (w // 2, w // 2 + w))
        frames = sliding_window_view(padded, w)[: num_frames * config.hop: config.hop]
        for lo in range(0, num_frames, step):
            # an rfft row's bits do not depend on how many rows share the call
            out[lo:lo + step] = np.fft.rfft(frames[lo:lo + step] * window,
                                            n=config.fft_size, axis=1)
    return Spectrogram(spectra, config, length, waveform.sample_rate)


def istft(spec):
    """Inverse STFT via weighted overlap-add with the dual synthesis window.

    One block of frames is inverted at a time and added in ascending frame
    order. Returns a MultichannelWaveform trimmed to the spectrogram's
    original_length.
    """
    config = spec.config
    w = config.window_length
    hop = config.hop
    window = config.window()
    num_frames = spec.num_frames

    padded_len = (num_frames - 1) * hop + w
    acc = np.zeros((spec.num_channels, padded_len), dtype=np.float64)
    norm = np.zeros(padded_len, dtype=np.float64)
    wsq = window ** 2
    step = _frames_per_block(8 * config.fft_size * spec.num_channels)
    for lo in range(0, num_frames, step):
        frames = np.fft.irfft(spec.bins[:, lo:lo + step], n=config.fft_size, axis=2)
        for t in range(lo, min(lo + step, num_frames)):
            start = t * hop
            acc[:, start:start + w] += frames[:, t - lo, :w] * window
            norm[start:start + w] += wsq

    covered = norm > _COVERAGE_TOL
    np.divide(acc, norm, out=acc, where=covered)
    acc[:, ~covered] = 0.0

    out = acc[:, w // 2: w // 2 + spec.original_length]
    if out.shape[1] < spec.original_length:
        out = np.pad(out, ((0, 0), (0, spec.original_length - out.shape[1])))
    return MultichannelWaveform(out, spec.sample_rate)
