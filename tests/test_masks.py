import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pilot_suite
from conftest import speech_like
from sepfront.dsp import MultichannelWaveform, Spectrogram, StftConfig, istft, stft
from sepfront.errors import ConfigurationError, InputError
from sepfront.masks import (
    MASK_EPS,
    MASK_KINDS,
    MaskSet,
    apply_mask,
    oracle_mask,
    oracle_mask_from_waveforms,
    separate_masking,
)
from sepfront.metrics import si_sdr
from sepfront.simulate import NoiseSpec, SceneSpec, SourceSpec, linear_array, render_scene
from sepfront import tensorio

FS = 16000
CFG = StftConfig(512, 128)


def spec_from(bins, cfg=CFG):
    frames, freqs = bins.shape[-2:]
    length = (frames - 1) * cfg.hop
    return Spectrogram(bins.reshape(1, frames, freqs), cfg, length)


def random_specs(rng, streams, frames=6, cfg=CFG):
    shape = (frames, cfg.num_bins)
    out = []
    for _ in range(streams):
        out.append(spec_from(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg))
    return out


class TestOracleMask:
    def test_single_source_zero_noise(self, rng):
        source = random_specs(rng, 1)[0]
        noise = spec_from(np.zeros_like(source.bins[0]))
        mixture = source
        for kind in ("ibm", "irm"):
            mask_set = oracle_mask([source, noise], kind, mixture)
            speaker = mask_set.masks[0]
            active = np.abs(source.bins[0]) > 0
            np.testing.assert_allclose(speaker[active], 1.0, atol=1e-6)

    def test_disjoint_supports_complementary_ibm(self, rng):
        frames, freqs = 6, CFG.num_bins
        a = np.zeros((frames, freqs), dtype=complex)
        b = np.zeros((frames, freqs), dtype=complex)
        a[:, : freqs // 2] = rng.standard_normal((frames, freqs // 2)) + 1.0
        b[:, freqs // 2:] = rng.standard_normal((frames, freqs - freqs // 2)) + 1.0
        noise = np.zeros((frames, freqs), dtype=complex)
        mask_set = oracle_mask(
            [spec_from(a), spec_from(b), spec_from(noise)], "ibm", spec_from(a + b)
        )
        np.testing.assert_array_equal(mask_set.masks[0], np.abs(a) > 0)
        np.testing.assert_array_equal(mask_set.masks[1], np.abs(b) > 0)

    def test_irm_per_bin_oracle(self, rng):
        specs = random_specs(rng, 3)  # 2 speakers + noise
        mixture = spec_from(sum(s.bins[0] for s in specs))
        mask_set = oracle_mask(specs, "irm", mixture)
        t, f = 2, 17
        mags = [abs(s.bins[0, t, f]) for s in specs]
        for k in range(3):
            expected = mags[k] / (sum(mags) + MASK_EPS)
            assert abs(mask_set.masks[k][t, f] - expected) < 1e-12

    def test_psm_clipped_and_projected(self, rng):
        specs = random_specs(rng, 2)
        mixture = spec_from(sum(s.bins[0] for s in specs))
        mask_set = oracle_mask(specs, "psm", mixture)
        assert mask_set.masks.min() >= 0.0
        assert mask_set.masks.max() <= 1.0
        t, f = 1, 9
        z = mixture.bins[0, t, f]
        expected = np.clip(
            np.real(specs[0].bins[0, t, f] * np.conj(z)) / (abs(z) ** 2 + MASK_EPS), 0, 1
        )
        assert abs(mask_set.masks[0][t, f] - expected) < 1e-12

    def test_irm_streams_sum_to_at_most_one(self, rng):
        specs = random_specs(rng, 4)
        mixture = spec_from(sum(s.bins[0] for s in specs))
        mask_set = oracle_mask(specs, "irm", mixture)
        total = mask_set.masks.sum(axis=0)
        assert total.max() <= 1.0 + 1e-9

    def test_ibm_partitions_every_bin(self, rng):
        specs = random_specs(rng, 3)
        mixture = spec_from(sum(s.bins[0] for s in specs))
        mask_set = oracle_mask(specs, "ibm", mixture)
        np.testing.assert_array_equal(mask_set.masks.sum(axis=0), 1.0)

    def test_ibm_tie_breaks_to_lowest_stream(self):
        frames, freqs = 2, CFG.num_bins
        same = np.ones((frames, freqs), dtype=complex)
        mask_set = oracle_mask(
            [spec_from(same), spec_from(same.copy()), spec_from(same.copy())],
            "ibm",
            spec_from(3 * same),
        )
        assert np.all(mask_set.masks[0] == 1.0)
        assert np.all(mask_set.masks[1:] == 0.0)

    def test_shape_mismatch(self, rng):
        a = random_specs(rng, 1)[0]
        short = spec_from(rng.standard_normal((3, CFG.num_bins)) + 0j)
        with pytest.raises(InputError):
            oracle_mask([a, short], "irm", a)

    def test_unknown_kind(self, rng):
        specs = random_specs(rng, 2)
        with pytest.raises(ConfigurationError):
            oracle_mask(specs, "wiener", specs[0])


def full_array_reference(waveform, ref_mic):
    """Channel ref_mic of the STFT of every channel: the reference for one-channel paths."""
    return stft(waveform, CFG).channel(ref_mic)


def stacked_masks(specs, kind, mixture):
    """Each kind's formula on the stacked (K+1, T, F) reference spectra."""
    refs = np.stack([spec.bins[0] for spec in specs])
    mix = mixture.bins[0]
    if kind == "psm":
        proj = np.real(refs * np.conj(mix))
        return np.clip(proj / (np.abs(mix) ** 2 + MASK_EPS), 0.0, 1.0)
    mags = np.abs(refs)
    if kind == "ibm":
        winner = np.argmax(mags, axis=0)
        return (winner[np.newaxis] == np.arange(len(mags))[:, None, None]).astype(np.float64)
    return mags / (mags.sum(axis=0) + MASK_EPS)


@pytest.mark.parametrize("kind", MASK_KINDS)
def test_masks_equal_stacked_formulas(kind, rng):
    specs = random_specs(rng, 4, frames=9)
    mixture = spec_from(sum(spec.bins[0] for spec in specs))
    assert np.array_equal(oracle_mask(specs, kind, mixture).masks,
                          stacked_masks(specs, kind, mixture))
    for index, ref_mic in ((0, 0), (5, 3)):
        scene = render_scene(pilot_suite.make_scene(index))
        images = [*scene.source_images, scene.noise_image]
        expected = stacked_masks([full_array_reference(im, ref_mic) for im in images], kind,
                                 full_array_reference(scene.mixture, ref_mic))
        got = oracle_mask_from_waveforms(scene.mixture, images, kind, CFG, ref_mic)
        assert np.array_equal(got.masks, expected)


class TestOracleMaskFromWaveforms:
    @pytest.mark.parametrize("ref_mic", [0, 3])
    def test_matches_full_array_stft(self, ref_mic):
        for index in range(6):
            scene = render_scene(pilot_suite.make_scene(index))
            images = [*scene.source_images, scene.noise_image]
            specs = [full_array_reference(im, ref_mic) for im in images]
            mixture = full_array_reference(scene.mixture, ref_mic)
            for kind in MASK_KINDS:
                expected = oracle_mask(specs, kind, mixture)
                got = oracle_mask_from_waveforms(scene.mixture, images, kind, CFG, ref_mic)
                assert np.array_equal(got.masks, expected.masks)
                assert got.num_speakers == expected.num_speakers

    def test_ref_mic_out_of_range(self):
        scene = render_scene(pilot_suite.make_scene(0))
        images = [*scene.source_images, scene.noise_image]
        with pytest.raises(ConfigurationError):
            oracle_mask_from_waveforms(scene.mixture, images, "irm", CFG, pilot_suite.NUM_MICS)


class TestNoiseMask:
    def test_explicit_noise_stream_used(self, rng):
        specs = random_specs(rng, 2)
        mixture = spec_from(sum(s.bins[0] for s in specs))
        mask_set = oracle_mask(specs, "irm", mixture)
        np.testing.assert_array_equal(mask_set.noise_mask(), mask_set.masks[1])

    def test_trailing_stream_is_noise(self, rng):
        masks = rng.uniform(0, 1, (3, 4, CFG.num_bins))
        mask_set = MaskSet(masks, 2)
        np.testing.assert_array_equal(mask_set.speakers, masks[:2])
        np.testing.assert_array_equal(mask_set.noise_mask(), masks[2])
        for num_speakers in (1, 4):  # two noise streams, or a speaker missing
            with pytest.raises(InputError, match="3 mask streams"):
                MaskSet(masks, num_speakers)

    def test_residual_noise_mask(self, rng):
        shape = (4, CFG.num_bins)
        speakers = np.clip(rng.uniform(0, 0.8, size=(2,) + shape), 0, 1)
        mask_set = MaskSet(speakers, 2)
        residual = mask_set.noise_mask()
        np.testing.assert_allclose(
            residual, np.clip(1.0 - speakers.sum(axis=0), 0.0, 1.0), atol=1e-15
        )


class TestApplyMask:
    def test_ones_mask_is_identity(self, rng):
        spec = random_specs(rng, 1)[0]
        out = apply_mask(np.ones(spec.bins.shape[1:]), spec)
        np.testing.assert_array_equal(out.bins, spec.bins)

    def test_zero_mask(self, rng):
        spec = random_specs(rng, 1)[0]
        out = apply_mask(np.zeros(spec.bins.shape[1:]), spec)
        assert np.all(out.bins == 0.0)

    def test_linear_in_spectrogram(self, rng):
        a, b = random_specs(rng, 2)
        mask = rng.uniform(0, 1, a.bins.shape[1:])
        combined = apply_mask(mask, spec_from(a.bins[0] + 2.0 * b.bins[0]))
        np.testing.assert_allclose(
            combined.bins, apply_mask(mask, a).bins + 2.0 * apply_mask(mask, b).bins,
            atol=1e-12,
        )

    def test_shape_mismatch(self, rng):
        spec = random_specs(rng, 1)[0]
        with pytest.raises(InputError):
            apply_mask(np.ones((3, 3)), spec)


class TestSeparateMasking:
    def test_all_ones_round_trip(self, rng):
        x = speech_like(rng, 4000)
        wf = MultichannelWaveform(x, FS)
        frames = CFG.num_frames(4000)
        ones = np.ones((1, frames, CFG.num_bins))
        mask_set = MaskSet(ones, 1)
        (out,), flags = separate_masking(wf, mask_set, CFG, ref_mic=0)
        assert flags == [{}]
        assert np.abs(out.samples[0] - x).max() < 1e-10

    def test_zero_mask_stream_gives_silence(self, rng):
        x = speech_like(rng, 4000)
        frames = CFG.num_frames(4000)
        masks = np.stack([np.ones((frames, CFG.num_bins)), np.zeros((frames, CFG.num_bins))])
        mask_set = MaskSet(masks, 2)
        outs, flags = separate_masking(MultichannelWaveform(x, FS), mask_set, CFG, 0)
        assert flags == [{}, {}] and flags[0] is not flags[1]
        assert np.all(outs[1].samples == 0.0)

    def test_oracle_irm_beats_input_sdr(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            n = 2 * FS
            spec = SceneSpec(
                sources=(
                    SourceSpec(speech_like(local, n), azimuth=0.3),
                    SourceSpec(speech_like(local, n), azimuth=1.6),
                ),
                geometry=linear_array(2, 0.05),
                sample_rate=FS,
                noise=NoiseSpec(snr_db=20.0),
                seed=seed,
            )
            scene = render_scene(spec)
            images = [*scene.source_images, scene.noise_image]
            mask_set = oracle_mask_from_waveforms(scene.mixture, images, "irm", CFG, 0)
            outs, _ = separate_masking(scene.mixture, mask_set, CFG, 0)
            for k, out in enumerate(outs):
                ref = scene.source_images[k].samples[0]
                gained = si_sdr(out.samples[0], ref)
                baseline = si_sdr(scene.mixture.samples[0], ref)
                assert gained > baseline

    def test_matches_full_array_stft(self):
        scene = render_scene(pilot_suite.make_scene(1))
        images = [*scene.source_images, scene.noise_image]
        mask_set = oracle_mask_from_waveforms(scene.mixture, images, "psm", CFG, 5)
        mixture = full_array_reference(scene.mixture, 5)
        outs, _ = separate_masking(scene.mixture, mask_set, CFG, 5)
        for mask, out in zip(mask_set.speakers, outs):
            expected = istft(apply_mask(mask, mixture))
            assert np.array_equal(out.samples, expected.samples)

    def test_config_mismatch(self, rng):
        x = speech_like(rng, 4000)
        frames = CFG.num_frames(4000)
        mask_set = MaskSet(np.ones((1, frames + 3, CFG.num_bins)), 1)
        with pytest.raises(InputError):
            separate_masking(MultichannelWaveform(x, FS), mask_set, CFG, 0)


class TestTensorFormat:
    def test_mask_round_trip(self, rng, tmp_path):
        masks = rng.uniform(0, 1, (3, 10, 257))
        mask_set = MaskSet(masks, 2)
        path = tmp_path / "masks.tns"
        mask_set.save(path)
        loaded = MaskSet.load(path, 2)
        np.testing.assert_allclose(loaded.masks, masks.astype(np.float32), atol=1e-7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.tns"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputError):
            tensorio.load_tensor(path)

    @pytest.mark.parametrize(
        "header",
        [b"TNS1", b"TNS1\x03\x00", b"TNS1" + struct.pack("<II", 3, 10)],
        ids=["no-ndim", "short-ndim", "missing-dims"],
    )
    def test_truncated_header(self, header, tmp_path):
        path = tmp_path / "truncated.tns"
        path.write_bytes(header)
        with pytest.raises(InputError, match="truncated.tns"):
            tensorio.load_tensor(path)

    def test_overflowing_dimensions_rejected(self, tmp_path):
        # 65536**4 wraps to 0 in a fixed-width product, matching an empty payload
        path = tmp_path / "overflow.tns"
        path.write_bytes(b"TNS1" + struct.pack("<5I", 4, *(65536,) * 4))
        with pytest.raises(InputError, match="overflow.tns"):
            tensorio.load_tensor(path)

    def test_header_bounded_by_file_size(self, tmp_path):
        path = tmp_path / "huge.tns"
        path.write_bytes(b"TNS1" + struct.pack("<I", 0xFFFFFFFF) + b"\x00" * 8)
        with pytest.raises(InputError, match="truncated"):
            tensorio.load_tensor(path)

    def test_unrepresentable_empty_shape_rejected(self, tmp_path):
        # zero elements, but numpy cannot build a (0, 2**32-1, 2**32-1) array
        path = tmp_path / "empty.tns"
        path.write_bytes(b"TNS1" + struct.pack("<4I", 3, 0, 2**32 - 1, 2**32 - 1))
        with pytest.raises(InputError, match="empty.tns"):
            tensorio.load_tensor(path)

    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda dims, extra, payload: struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
            + payload[: 4 * int(np.prod(dims, dtype=object)) + extra],
            st.lists(st.sampled_from([0, 1, 2, 3, 65536, 2**32 - 1]), max_size=4),
            st.integers(-3, 3),
            st.binary(min_size=40, max_size=40),
        ),
    ))
    def test_arbitrary_bytes_load_or_input_error(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("fuzz") / "t.tns"
        path.write_bytes(tensorio.MAGIC + body)
        try:
            tensor = tensorio.load_tensor(path)
        except InputError:
            return
        assert tensor.dtype == np.float32
        assert tensor.size == int(np.prod(tensor.shape, dtype=object))
        assert 4 * tensor.size == len(body) - 4 - 4 * tensor.ndim

    def test_changed_or_cut_tensor_loads_or_names_the_path(self, tmp_path):
        """A float32 signaling NaN, then 2500 changes of 1 to 3 bytes of a
        (3, 4, 5) mask tensor and 500 cuts: each loads as a MaskSet or is an
        InputError naming the path; no other exception and no warning
        (filterwarnings = error) escapes. The NaN's cast to float64 used to
        warn 'invalid value encountered in cast'."""
        rng = np.random.default_rng(31)
        path = tmp_path / "m.tns"
        MaskSet(rng.uniform(0.0, 1.0, (3, 4, 5)), 2).save(path)
        original = path.read_bytes()
        outcomes = Counter()
        for trial in range(-1, 3000):
            tensor = bytearray(original)
            if trial < 0:
                tensor[-4:] = struct.pack("<I", 0x7FA00000)  # quiet bit clear: signaling
            elif trial < 500:
                del tensor[rng.integers(len(tensor)):]
            else:
                for at in rng.choice(len(tensor), rng.integers(1, 4), replace=False):
                    tensor[at] = rng.integers(256)
            path.write_bytes(bytes(tensor))
            try:
                loaded = MaskSet.load(path, 2)
            except InputError as exc:
                assert str(exc).startswith(f"{path}: ")
                if trial < 0:
                    assert "NaN is rejected" in str(exc)
                outcomes["error"] += 1
            else:
                assert loaded.masks.dtype == np.float64
                assert np.all(np.isfinite(loaded.masks)) and np.all(loaded.masks >= 0.0)
                outcomes["load"] += 1
        assert outcomes["load"] > 100 and outcomes["error"] > 100

    def test_nan_mask_rejected(self):
        masks = np.ones((2, 3, 4))
        masks[1, 2, 3] = np.nan
        with pytest.raises(InputError):
            MaskSet(masks, 1)

    def test_infinite_mask_rejected(self):
        masks = np.ones((2, 3, 4))
        masks[1, 2, 3] = np.inf
        with pytest.raises(InputError, match="mask values must be finite"):
            MaskSet(masks, 1)
