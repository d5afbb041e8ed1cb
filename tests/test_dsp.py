import numpy as np
import pytest

from sepfront import dsp
from sepfront.dsp import MultichannelWaveform, Spectrogram, StftConfig, istft, make_window, stft
from sepfront.errors import ConfigurationError, InputError


def direct_dft(frame, fft_size):
    """O(N^2) one-sided DFT oracle."""
    n = np.arange(fft_size)
    bins = []
    for k in range(fft_size // 2 + 1):
        bins.append(np.sum(frame * np.exp(-2j * np.pi * k * n / fft_size)))
    return np.array(bins)


class TestMakeWindow:
    def test_paper_length(self):
        w = make_window(512)
        assert w[0] == 0.0
        assert w[256] == 1.0

    def test_closed_form_length_4(self):
        assert np.allclose(make_window(4), [0.0, 0.5, 1.0, 0.5])

    def test_matches_cosine_formula(self):
        w = make_window(8)
        n = np.arange(8)
        expected = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / 8))
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_rejects_length_below_two(self):
        with pytest.raises(ConfigurationError):
            make_window(1)


class TestStftConfig:
    def test_fft_size_defaults_to_window(self):
        assert StftConfig(512, 128).fft_size == 512

    def test_rejects_non_power_of_two_fft(self):
        with pytest.raises(ConfigurationError):
            StftConfig(500, 125, fft_size=500)

    def test_rejects_hop_above_window(self):
        with pytest.raises(ConfigurationError):
            StftConfig(256, 512)

    def test_rejects_cola_violation(self):
        # hop == window leaves the zero-valued first sample uncovered
        with pytest.raises(ConfigurationError):
            StftConfig(512, 512)


class TestStft:
    def test_zero_signal(self):
        x = MultichannelWaveform(np.zeros((1, 16000)), 16000)
        spec = stft(x, StftConfig(512, 128))
        assert np.all(spec.bins == 0.0)

    def test_impulse_without_centering(self):
        """The frame whose window starts on an impulse, rather than centres on it."""
        x = np.zeros((1, 2048))
        x[0, 0] = 1.0
        cfg = StftConfig(512, 128)
        spec = stft(MultichannelWaveform(x, 16000), cfg)
        # frame 2 starts 2 * 128 - 512 // 2 = 0 samples into the signal, so it
        # sees w * delta at n=0; periodic Hann has w[0] = 0
        np.testing.assert_allclose(np.abs(spec.bins[0, 2]), 0.0, atol=1e-15)
        # frame 0 is centred on the impulse and sees w[256] = 1 at every bin
        np.testing.assert_allclose(np.abs(spec.bins[0, 0]), 1.0, atol=1e-15)

    def test_sine_matches_direct_dft(self, rng):
        cfg = StftConfig(64, 16)
        fs = 16000
        k = 5
        t = np.arange(400) / fs
        x = np.sin(2.0 * np.pi * (k * fs / cfg.fft_size) * t)
        spec = stft(MultichannelWaveform(x, fs), cfg)
        window = cfg.window()
        # frame t starts window_length // 2 samples before t * hop
        for frame_index in [2, 5, 12]:
            start = frame_index * cfg.hop - cfg.window_length // 2
            frame = window * x[start:start + cfg.window_length]
            oracle = direct_dft(frame, cfg.fft_size)
            np.testing.assert_allclose(spec.bins[0, frame_index], oracle, atol=1e-10)
            # energy concentrated at bin k
            assert np.argmax(np.abs(oracle)) in (k - 1, k, k + 1)

    def test_nan_errors(self):
        x = np.zeros((1, 2048))
        wf = MultichannelWaveform(x, 16000)
        wf.samples[0, 5] = np.nan  # bypass constructor validation
        with pytest.raises(InputError):
            stft(wf, StftConfig(512, 128))

    def test_linearity(self, rng):
        cfg = StftConfig(512, 128)
        x = rng.standard_normal((1, 5000))
        y = rng.standard_normal((1, 5000))
        a, b = 1.7, -0.3
        fs = 16000
        combined = stft(MultichannelWaveform(a * x + b * y, fs), cfg)
        separate = a * stft(MultichannelWaveform(x, fs), cfg).bins + b * stft(
            MultichannelWaveform(y, fs), cfg
        ).bins
        np.testing.assert_allclose(combined.bins, separate, atol=1e-12)

    def test_parseval_per_frame(self, rng):
        cfg = StftConfig(512, 128)
        x = rng.standard_normal(3000)
        spec = stft(MultichannelWaveform(x, 16000), cfg)
        window = cfg.window()
        # the signal with the window_length // 2 zeros the first frames read
        # in front of it and the zeros the last frames read behind it
        padded = np.pad(x, (cfg.window_length // 2, cfg.window_length))
        for t in range(spec.num_frames):
            frame = window * padded[t * cfg.hop: t * cfg.hop + cfg.window_length]
            time_energy = np.sum(frame ** 2)
            mags = np.abs(spec.bins[0, t]) ** 2
            # one-sided: double all bins except DC and Nyquist
            spec_energy = (mags[0] + mags[-1] + 2.0 * mags[1:-1].sum()) / cfg.fft_size
            np.testing.assert_allclose(spec_energy, time_energy, rtol=1e-9)

    @pytest.mark.parametrize("shorter_than_window", [True, False])
    def test_frame_count_formula(self, shorter_than_window, rng):
        cfg = StftConfig(512, 128)
        start = 1 if shorter_than_window else 512
        for length in range(start, start + 4 * 128 + 1):
            x = MultichannelWaveform(rng.standard_normal((1, length)), 16000)
            spec = stft(x, cfg)
            assert spec.num_frames == cfg.num_frames(length)


def framed_rfft(x, cfg):
    """STFT oracle: copy each frame out of the padded signal, then rfft."""
    w = cfg.window_length
    padded = np.pad(x, ((0, 0), (w // 2, w // 2 + w)))
    starts = range(0, cfg.num_frames(x.shape[1]) * cfg.hop, cfg.hop)
    frames = np.stack([padded[:, s:s + w] for s in starts], axis=1)
    return np.fft.rfft(frames * cfg.window(), n=cfg.fft_size, axis=2)


CONFIGS = [
    StftConfig(512, 128),
    StftConfig(400, 160, fft_size=512),
    StftConfig(256, 100),
    StftConfig(300, 7, fft_size=512),
    StftConfig(64, 1),
]
CONFIG_IDS = ["512-128", "400-160-fft512", "256-100", "300-7-fft512", "64-1"]


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_stft_equals_per_frame_rfft(cfg, rng):
    # one channel takes the batched path, more take the per-channel one;
    # the last length is shorter than the window
    for channels in (1, 3, 8):
        for length in [cfg.window_length, 3 * cfg.window_length + 5, 4001,
                       cfg.window_length // 2 + 1]:
            x = rng.standard_normal((channels, length))
            spec = stft(MultichannelWaveform(x, 16000), cfg)
            assert np.array_equal(spec.bins, framed_rfft(x, cfg))


@pytest.mark.parametrize("channels", [1, 2, 8])
def test_stft_layout(channels, rng):
    cfg = StftConfig(512, 128)
    spec = stft(MultichannelWaveform(rng.standard_normal((channels, 3000)), 16000), cfg)
    assert spec.bins.shape == (channels, cfg.num_frames(3000), cfg.num_bins)
    if channels == 1:
        # masking and the iSTFT read (T, F) rows
        assert spec.bins.flags.c_contiguous
    else:
        # the spatial kernels' layout is the array the bins view, not a copy
        layout = spec.freq_major
        assert layout.flags.c_contiguous
        assert layout.shape == (cfg.num_bins, channels, spec.num_frames)
        assert np.shares_memory(layout, spec.bins)
    np.testing.assert_array_equal(spec.freq_major, spec.bins.transpose(2, 0, 1))


class TestIstft:
    @pytest.mark.parametrize("hop", [128, 256])
    def test_round_trip(self, hop, rng):
        cfg = StftConfig(512, hop)
        x = rng.standard_normal((2, 12000))
        wf = MultichannelWaveform(x, 16000)
        y = istft(stft(wf, cfg))
        assert np.abs(y.samples - x).max() < 1e-10 * max(1.0, np.abs(x).max())

    def test_zero_spectrogram(self):
        cfg = StftConfig(512, 128)
        spec = Spectrogram(np.zeros((1, 10, 257), dtype=complex), cfg, 9 * 128)
        y = istft(spec)
        assert np.all(y.samples == 0.0)
        assert y.num_samples == 9 * 128

    def test_shape_mismatch_errors(self):
        cfg = StftConfig(512, 128)
        with pytest.raises(InputError):
            Spectrogram(np.zeros((1, 10, 100), dtype=complex), cfg, 9 * 128)
        with pytest.raises(InputError):
            Spectrogram(np.zeros((1, 10, 257), dtype=complex), cfg, 50 * 128)

    def test_single_bin_edit_support(self, rng):
        """A one-bin change only affects samples under the frames touching it."""
        cfg = StftConfig(512, 128)
        x = rng.standard_normal((1, 6000))
        wf = MultichannelWaveform(x, 16000)
        spec = stft(wf, cfg)
        edited = spec.bins.copy()
        frame_index = 12
        edited[0, frame_index, 40] += 3.0
        y = istft(Spectrogram(edited, cfg, spec.original_length))
        diff = np.abs(y.samples[0] - istft(spec).samples[0])
        # overlap-add oracle: frame t covers padded samples
        # [t*hop, t*hop + window_length), minus the centering offset
        start = frame_index * cfg.hop - cfg.window_length // 2
        stop = start + cfg.window_length
        outside = np.ones(6000, dtype=bool)
        outside[max(start, 0):stop] = False
        assert diff[outside].max() < 1e-12
        assert diff[~outside].max() > 1e-6


def length_for(cfg, num_frames):
    """A signal length whose STFT has num_frames frames."""
    return (num_frames - 1) * cfg.hop


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_stft_blocks_equal_per_frame_rfft(cfg, rng):
    """Frames that span several of stft's blocks, the last one partly."""
    step = dsp._frames_per_block(8 * cfg.fft_size)
    for channels in (1, 3):
        x = rng.standard_normal((channels, length_for(cfg, 3 * step + 5)))
        spec = stft(MultichannelWaveform(x, 16000), cfg)
        assert np.array_equal(spec.bins, framed_rfft(x, cfg))


def whole_array_istft(bins, cfg, length):
    """iSTFT oracle: irfft every frame in one call, then overlap-add them in
    ascending frame order and divide by the summed squared window."""
    w, hop = cfg.window_length, cfg.hop
    window = cfg.window()
    frames = np.fft.irfft(bins, n=cfg.fft_size, axis=2)[:, :, :w]
    padded_len = (bins.shape[1] - 1) * hop + w
    acc = np.zeros((len(bins), padded_len))
    norm = np.zeros(padded_len)
    for t in range(bins.shape[1]):
        acc[:, t * hop:t * hop + w] += frames[:, t] * window
        norm[t * hop:t * hop + w] += window ** 2
    covered = norm > 1e-12
    acc[:, covered] /= norm[covered]
    acc[:, ~covered] = 0.0
    out = acc[:, w // 2:w // 2 + length]
    return np.pad(out, ((0, 0), (0, length - out.shape[1])))


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("channels", [1, 3])
def test_istft_equals_whole_array_overlap_add(cfg, channels, rng):
    """Bit for bit, at frame counts one below, at and one above a multiple of
    istft's block of frames."""
    step = dsp._frames_per_block(8 * cfg.fft_size * channels)
    for num_frames in (2 * step - 1, 2 * step, 2 * step + 1):
        length = length_for(cfg, num_frames)
        shape = (channels, num_frames, cfg.num_bins)
        bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = istft(Spectrogram(bins, cfg, length)).samples
        assert np.array_equal(got, whole_array_istft(bins, cfg, length))
