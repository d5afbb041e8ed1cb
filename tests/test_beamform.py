import tracemalloc

import numpy as np
import pytest

import pilot_suite
from conftest import speech_like
from sepfront.beamform import (
    DEFAULT_LOADING,
    TRACE_TOL,
    BeamformerWeights,
    apply_beamformer,
    interference_covariance,
    mvdr_weights,
    separate_mvdr,
    spatial_covariance,
)
from sepfront.dsp import MultichannelWaveform, Spectrogram, StftConfig, stft
from sepfront.errors import ConfigurationError, InputError
from sepfront.masks import MaskSet, oracle_mask_from_waveforms
from sepfront.metrics import si_sdr
from sepfront.simulate import SceneSpec, SourceSpec, linear_array, render_scene

FS = 16000
CFG = StftConfig(512, 128)


def multichannel_spec(rng, channels, frames, cfg=CFG):
    shape = (channels, frames, cfg.num_bins)
    bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Spectrogram(bins, cfg, (frames - 1) * cfg.hop)


def fixed_weights(w):
    """BeamformerWeights of the (F, M) weights w, with no passthrough frequency."""
    return BeamformerWeights(w, np.zeros(len(w), dtype=bool))


def random_psd(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return a @ a.conj().T + 0.1 * np.eye(m)


def covariance_einsum(spec, mask):
    """The einsum covariance that the batched matmul replaced, kept as its oracle."""
    z = spec.bins
    weighted = np.einsum("tf,ctf,dtf->fcd", mask, z, np.conj(z), optimize=True)
    mass = mask.sum(axis=0)
    zero = mass <= 0.0
    matrices = np.zeros_like(weighted)
    matrices[~zero] = weighted[~zero] / mass[~zero, np.newaxis, np.newaxis]
    return 0.5 * (matrices + np.conj(np.swapaxes(matrices, 1, 2)))


def beamform_loop(w, spec):
    """w[f]^H z[:, t, f], one frequency at a time."""
    out = np.empty(spec.bins.shape[1:], dtype=complex)
    for f in range(spec.num_bins):
        out[:, f] = np.conj(w[f]) @ spec.bins[:, :, f]
    return out


@pytest.fixture(scope="module")
def pilot_spectra():
    """(mixture spectrogram, oracle IRM set) of pilot scenes 0-5, 8 mics, 4 s."""
    cases = []
    for index in range(6):
        scene = render_scene(pilot_suite.make_scene(index))
        images = [*scene.source_images, scene.noise_image]
        mask_set = oracle_mask_from_waveforms(scene.mixture, images, "irm", CFG, 0)
        cases.append((stft(scene.mixture, CFG), mask_set))
    return cases


def covariance_from(matrices):
    from sepfront.beamform import SpatialCovarianceSet

    matrices = np.asarray(matrices, dtype=complex)
    return SpatialCovarianceSet(
        matrices=matrices,
        mass=np.ones(matrices.shape[0]),
        zero_mass=np.zeros(matrices.shape[0], dtype=bool),
    )


class TestSpatialCovariance:
    def test_scalar_constant_signal(self):
        cfg = StftConfig(8, 4, fft_size=8)
        frames = 5
        bins = np.ones((1, frames, cfg.num_bins), dtype=complex)
        spec = Spectrogram(bins, cfg, (frames - 1) * cfg.hop)
        cov = spatial_covariance(spec, np.ones((frames, cfg.num_bins)))
        np.testing.assert_allclose(cov.matrices[:, 0, 0], 1.0, atol=1e-15)

    def test_zero_mass_flagged(self, rng):
        spec = multichannel_spec(rng, 2, 4)
        mask = np.ones((4, CFG.num_bins))
        mask[:, 100] = 0.0
        cov = spatial_covariance(spec, mask)
        assert cov.zero_mass[100]
        assert np.all(cov.matrices[100] == 0.0)
        assert not cov.zero_mass[99]

    def test_matches_hand_summation(self, rng):
        cfg = StftConfig(4, 2, fft_size=4)
        frames, m = 3, 2
        bins = rng.standard_normal((m, frames, cfg.num_bins)) + 1j * rng.standard_normal(
            (m, frames, cfg.num_bins)
        )
        spec = Spectrogram(bins, cfg, (frames - 1) * cfg.hop)
        mask = rng.uniform(0.1, 1.0, (frames, cfg.num_bins))
        cov = spatial_covariance(spec, mask)
        for f in range(cfg.num_bins):
            total = np.zeros((m, m), dtype=complex)
            for t in range(frames):
                z = bins[:, t, f]
                total += mask[t, f] * np.outer(z, z.conj())
            expected = total / mask[:, f].sum()
            np.testing.assert_allclose(cov.matrices[f], expected, rtol=1e-12, atol=1e-14)

    def test_hermitian_psd_for_random_masks(self, rng):
        for _ in range(20):
            spec = multichannel_spec(rng, 3, 5)
            mask = rng.uniform(0.0, 1.0, (5, CFG.num_bins))
            cov = spatial_covariance(spec, mask)
            herm_drift = np.abs(
                cov.matrices - np.conj(np.swapaxes(cov.matrices, 1, 2))
            ).max()
            assert herm_drift < 1e-12 * max(np.abs(cov.matrices).max(), 1.0)
            for f in range(0, CFG.num_bins, 32):
                eigs = np.linalg.eigvalsh(cov.matrices[f])
                trace = np.real(np.trace(cov.matrices[f]))
                assert eigs.min() >= -1e-9 * trace / 3 - 1e-15

    def test_equals_einsum_on_pilot_scenes(self, pilot_spectra):
        zero_bins = [0, 100, 256]
        for spec, mask_set in pilot_spectra:
            for k in range(len(mask_set.masks)):
                mask = mask_set.masks[k].copy()
                mask[:, zero_bins] = 0.0
                cov = spatial_covariance(spec, mask)
                assert np.array_equal(cov.matrices, covariance_einsum(spec, mask))
                assert np.flatnonzero(cov.zero_mass).tolist() == zero_bins

    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_einsum_on_random_spectrograms(self, channels, rng):
        spec = multichannel_spec(rng, channels, 7)
        mask = rng.uniform(0.0, 1.0, (7, CFG.num_bins))
        mask[:, 5] = 0.0
        cov = spatial_covariance(spec, mask)
        assert np.array_equal(cov.matrices, covariance_einsum(spec, mask))
        assert cov.matrices.shape == (CFG.num_bins, channels, channels)

    def test_layout_built_once_and_bins_kept(self, rng):
        spec = multichannel_spec(rng, 3, 5)
        bins = spec.bins.copy()
        layout = spec.freq_major
        assert layout.flags.c_contiguous and layout.shape == (CFG.num_bins, 3, 5)
        np.testing.assert_array_equal(layout, bins.transpose(2, 0, 1))
        spatial_covariance(spec, rng.uniform(0.0, 1.0, (5, CFG.num_bins)))
        apply_beamformer(fixed_weights(np.ones((CFG.num_bins, 3), complex)), spec)
        assert spec.freq_major is layout
        np.testing.assert_array_equal(spec.bins, bins)
        np.testing.assert_array_equal(layout, bins.transpose(2, 0, 1))

    def test_first_call_peak_memory(self, rng):
        # the layout copy plus one weighted block reads about 1.15x; a weighted
        # copy of the whole grid, or a cached conj(z) layout, would read 2x or more
        spec = stft(render_scene(pilot_suite.make_scene(0)).mixture, CFG)
        assert spec.bins.shape == (8, CFG.num_frames(4 * FS), CFG.num_bins)
        mask = rng.uniform(0.0, 1.0, spec.bins.shape[1:])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spatial_covariance(spec, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.5 * spec.bins.nbytes

    def test_negative_mask_rejected(self, rng):
        spec = multichannel_spec(rng, 2, 4)
        mask = np.ones((4, CFG.num_bins))
        mask[0, 0] = -0.1
        with pytest.raises(InputError):
            spatial_covariance(spec, mask)

    def test_nan_mask_rejected(self, rng):
        spec = multichannel_spec(rng, 2, 4)
        mask = np.ones((4, CFG.num_bins))
        mask[2, 7] = np.nan
        with pytest.raises(InputError):
            spatial_covariance(spec, mask)


class TestInterferenceCovariance:
    def test_two_speakers_plus_noise(self, rng):
        covs = [covariance_from([random_psd(rng, 3) for _ in range(4)]) for _ in range(3)]
        interference = interference_covariance(covs, target=0)
        np.testing.assert_array_equal(
            interference.matrices, covs[1].matrices + covs[2].matrices
        )

    def test_zero_noise_leaves_other_speaker(self, rng):
        speaker = covariance_from([random_psd(rng, 2) for _ in range(3)])
        other = covariance_from([random_psd(rng, 2) for _ in range(3)])
        zero = covariance_from(np.zeros((3, 2, 2)))
        interference = interference_covariance([speaker, other, zero], target=0)
        np.testing.assert_array_equal(interference.matrices, other.matrices)

    def test_sum_stays_hermitian_psd(self, rng):
        covs = [covariance_from([random_psd(rng, 4) for _ in range(2)]) for _ in range(3)]
        interference = interference_covariance(covs, target=1)
        for f in range(2):
            v = interference.matrices[f]
            np.testing.assert_allclose(v, v.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(v).min() > 0.0

    def test_no_other_streams(self, rng):
        only = covariance_from([random_psd(rng, 2)])
        with pytest.raises(ConfigurationError):
            interference_covariance([only], target=0)


class TestMvdrWeights:
    def test_single_channel_is_identity(self, rng):
        target = covariance_from(rng.uniform(0.5, 2.0, (6, 1, 1)) + 0j)
        interference = covariance_from(rng.uniform(0.5, 2.0, (6, 1, 1)) + 0j)
        weights = mvdr_weights(target, interference, ref_mic=0)
        np.testing.assert_allclose(weights.weights, 1.0, rtol=1e-6)

    def test_rank_one_distortionless(self, rng):
        for m in (2, 4, 8):
            d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            target = covariance_from([2.5 * np.outer(d, d.conj())])
            interference = covariance_from([np.eye(m)])
            weights = mvdr_weights(target, interference, ref_mic=0)
            response = weights.weights[0].conj() @ d
            assert abs(response - d[0]) < 1e-8 * abs(d[0])

    def test_matches_explicit_inverse_oracle(self, rng):
        m = 4
        for _ in range(20):
            vt = random_psd(rng, m)
            vi = random_psd(rng, m)
            weights = mvdr_weights(covariance_from([vt]), covariance_from([vi]), ref_mic=2)
            # oracle: full inversion of the loaded matrix, then trace-normalize
            loaded = vi + 1e-7 * np.real(np.trace(vi)) / m * np.eye(m)
            ratio = np.linalg.inv(loaded) @ vt
            expected = (ratio / np.trace(ratio))[:, 2]
            np.testing.assert_allclose(weights.weights[0], expected, rtol=1e-8)

    def test_scale_invariance_of_target(self, rng):
        vt = random_psd(rng, 3)
        vi = random_psd(rng, 3)
        base = mvdr_weights(covariance_from([vt]), covariance_from([vi]), 0)
        scaled = mvdr_weights(covariance_from([37.5 * vt]), covariance_from([vi]), 0)
        np.testing.assert_allclose(base.weights, scaled.weights, rtol=1e-12)

    def test_degenerate_frequency_passthrough(self, rng):
        vt = np.zeros((1, 3, 3), dtype=complex)
        vi = np.array([random_psd(rng, 3)])
        weights = mvdr_weights(covariance_from(vt), covariance_from(vi), ref_mic=1)
        assert weights.passthrough[0]
        np.testing.assert_array_equal(weights.weights[0], [0, 1, 0])

    def test_batched_solve_matches_per_frequency_loop(self, rng):
        m, ref_mic = 4, 2
        vt = np.array([random_psd(rng, m) for _ in range(6)])
        vi = np.array([random_psd(rng, m) for _ in range(6)])
        vi[1] = 0.0  # zero interference trace: never solved
        vt[4] = 0.0  # zero target: the solved ratio has zero trace
        weights = mvdr_weights(covariance_from(vt), covariance_from(vi), ref_mic)

        expected = np.empty((6, m), dtype=complex)
        for f in range(6):
            trace_i = np.real(np.trace(vi[f]))
            if trace_i <= 0.0:
                expected[f] = np.eye(m)[ref_mic]
                continue
            loaded = vi[f] + (DEFAULT_LOADING * trace_i / m) * np.eye(m)
            ratio = np.linalg.solve(loaded, vt[f])
            tr = np.trace(ratio)
            if abs(tr) < TRACE_TOL * m:
                expected[f] = np.eye(m)[ref_mic]
                continue
            expected[f] = ratio[:, ref_mic] / tr
        np.testing.assert_array_equal(weights.passthrough, [0, 1, 0, 0, 1, 0])
        np.testing.assert_array_equal(weights.weights[[1, 4]], np.eye(m)[[ref_mic] * 2])
        assert np.array_equal(weights.weights, expected)

    def test_non_hermitian_rejected(self, rng):
        bad = np.array([[[1.0, 2.0], [0.5, 1.0]]], dtype=complex)
        with pytest.raises(InputError):
            mvdr_weights(covariance_from(bad), covariance_from([np.eye(2)]), 0)

    def test_ref_mic_out_of_range(self, rng):
        cov = covariance_from([random_psd(rng, 2)])
        with pytest.raises(ConfigurationError):
            mvdr_weights(cov, cov, ref_mic=5)


class TestApplyBeamformer:
    def test_one_hot_selects_reference_channel(self, rng):
        spec = multichannel_spec(rng, 3, 4)
        w = np.zeros((CFG.num_bins, 3), dtype=complex)
        w[:, 1] = 1.0
        out = apply_beamformer(fixed_weights(w), spec)
        np.testing.assert_array_equal(out.bins[0], spec.bins[1])

    def test_single_channel_unit_weight(self, rng):
        spec = multichannel_spec(rng, 1, 4)
        w = np.ones((CFG.num_bins, 1), dtype=complex)
        out = apply_beamformer(fixed_weights(w), spec)
        np.testing.assert_array_equal(out.bins, spec.bins)

    def test_matches_per_bin_dot_product(self, rng):
        spec = multichannel_spec(rng, 3, 5)
        w = rng.standard_normal((CFG.num_bins, 3)) + 1j * rng.standard_normal((CFG.num_bins, 3))
        out = apply_beamformer(fixed_weights(w), spec)
        for t in (0, 4):
            for f in (0, 57, 256):
                expected = np.vdot(w[f], spec.bins[:, t, f])
                assert abs(out.bins[0, t, f] - expected) < 1e-12 * max(1, abs(expected))

    def test_matches_per_frequency_loop_on_pilot_scenes(self, pilot_spectra):
        for spec, mask_set in pilot_spectra:
            covs = [spatial_covariance(spec, m) for m in mask_set.masks]
            for k in range(2):
                weights = mvdr_weights(covs[k], interference_covariance(covs, k), 0)
                out = apply_beamformer(weights, spec).bins[0]
                expected = beamform_loop(weights.weights, spec)
                np.testing.assert_allclose(
                    out, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
                )

    def test_linear_in_spectrogram(self, rng):
        a = multichannel_spec(rng, 2, 4)
        b = multichannel_spec(rng, 2, 4)
        w = rng.standard_normal((CFG.num_bins, 2)) + 0j
        weights = fixed_weights(w)
        combined = apply_beamformer(
            weights, Spectrogram(a.bins + 3.0 * b.bins, CFG, a.original_length)
        )
        np.testing.assert_allclose(
            combined.bins,
            apply_beamformer(weights, a).bins + 3.0 * apply_beamformer(weights, b).bins,
            atol=1e-12,
        )

    def test_shape_mismatch(self, rng):
        spec = multichannel_spec(rng, 3, 4)
        w = np.ones((CFG.num_bins, 2), dtype=complex)
        with pytest.raises(InputError):
            apply_beamformer(fixed_weights(w), spec)


class TestSeparateMvdr:
    def test_single_speaker_noiseless_distortionless(self, rng):
        n = 2 * FS
        spec = SceneSpec(
            sources=(SourceSpec(speech_like(rng, n), azimuth=0.4),),
            geometry=linear_array(8, 0.04),
            sample_rate=FS,
        )
        scene = render_scene(spec)
        frames = CFG.num_frames(n)
        ones = MaskSet(np.ones((1, frames, CFG.num_bins)), 1)
        outs, _ = separate_mvdr(scene.mixture, ones, CFG, ref_mic=0)
        score = si_sdr(outs[0].samples[0], scene.source_images[0].samples[0])
        assert score > 40.0

    def test_mask_swap_swaps_outputs(self, rng):
        scene = render_scene(
            SceneSpec(
                sources=(
                    SourceSpec(speech_like(rng, FS), azimuth=0.2),
                    SourceSpec(speech_like(rng, FS), azimuth=1.5),
                ),
                geometry=linear_array(4, 0.05),
                sample_rate=FS,
                seed=3,
            )
        )
        images = [*scene.source_images, scene.noise_image]
        mask_set = oracle_mask_from_waveforms(scene.mixture, images, "irm", CFG, 0)
        swapped = MaskSet(
            np.stack([mask_set.masks[1], mask_set.masks[0], mask_set.masks[2]]),
            mask_set.num_speakers,
        )
        outs, _ = separate_mvdr(scene.mixture, mask_set, CFG, 0)
        outs_swapped, _ = separate_mvdr(scene.mixture, swapped, CFG, 0)
        np.testing.assert_allclose(outs[0].samples, outs_swapped[1].samples, atol=1e-12)
        np.testing.assert_allclose(outs[1].samples, outs_swapped[0].samples, atol=1e-12)

    def test_flags_reported(self, rng):
        scene = render_scene(
            SceneSpec(
                sources=(SourceSpec(speech_like(rng, FS), azimuth=0.4),),
                geometry=linear_array(2, 0.05),
                sample_rate=FS,
            )
        )
        images = [*scene.source_images, scene.noise_image]
        mask_set = oracle_mask_from_waveforms(scene.mixture, images, "irm", CFG, 0)
        _, flags = separate_mvdr(scene.mixture, mask_set, CFG, 0)
        assert set(flags[0]) == {"passthrough_freqs", "zero_mass_freqs", "loading"}

    def test_ref_mic_out_of_range(self, rng):
        scene = render_scene(
            SceneSpec(
                sources=(SourceSpec(speech_like(rng, FS), azimuth=0.4),),
                geometry=linear_array(2, 0.05),
                sample_rate=FS,
            )
        )
        images = [*scene.source_images, scene.noise_image]
        mask_set = oracle_mask_from_waveforms(scene.mixture, images, "irm", CFG, 0)
        with pytest.raises(ConfigurationError):
            separate_mvdr(scene.mixture, mask_set, CFG, ref_mic=7)
