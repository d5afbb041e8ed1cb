import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import speech_like
from sepfront import audio_io, cli
from sepfront.beamform import separate_mvdr
from sepfront.dsp import StftConfig
from sepfront.masks import MaskSet, oracle_mask_from_waveforms

FS = 16000


def write_manifest(base, num_scenes=2, num_sources=2, num_mics=4, seconds=0.5,
                   noise_snr=15.0, seed0=100, reference_mic=0):
    """Manifest plus dry WAVs under base; returns the manifest path."""
    base = Path(base)
    (base / "dry").mkdir(parents=True, exist_ok=True)
    scenes = []
    for i in range(num_scenes):
        rng = np.random.default_rng(seed0 + i)
        sources = []
        for k in range(num_sources):
            rel = f"dry/s{i}_{k}.wav"
            dry = speech_like(rng, int(seconds * FS))
            audio_io.write_wav(base / rel, audio_io.MultichannelWaveform(dry, FS))
            sources.append(
                {"path": rel, "azimuth": 0.3 + 1.2 * k, "elevation": 0.0, "gain": 1.0}
            )
        scene = {"id": f"scene_{i:04d}", "seed": seed0 + i, "reference_mic": reference_mic,
                 "sources": sources}
        if noise_snr is not None:
            scene["noise"] = {"kind": "white_gaussian", "snr_db": noise_snr}
        scenes.append(scene)
    spacing = 0.05
    x = (np.arange(num_mics) - (num_mics - 1) / 2) * spacing
    manifest = {
        "sample_rate": FS,
        "geometry": {"mic_positions": [[float(v), 0.0, 0.0] for v in x]},
        "scenes": scenes,
    }
    path = base / "manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    return path


def run_main(tmp_path, config, command):
    """Run `sepfront --config <file> --command <command>` and return its exit code."""
    path = tmp_path / "config.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    return cli.main(["--config", str(path), "--command", command])


def base_config(manifest, out_dir, **kwargs):
    config = cli.load_config(None, {})
    config["scene_manifest"] = str(manifest)
    config["output_dir"] = str(out_dir)
    for key, value in kwargs.items():
        if isinstance(value, dict):
            config[key].update(value)
        else:
            config[key] = value
    return config


class TestConfig:
    @pytest.mark.parametrize(
        "entry, key",
        [({"seperator": {"method": "masking"}}, "'seperator'"),
         ({"stft": 5}, "'stft'"),
         ({"ref_mic": 0}, "'ref_mic'"),
         ({"metric": {"taps": 512}}, "'metric.taps'")],
        ids=["typo", "non-object-section", "removed-ref-mic", "unknown-field"],
    )
    def test_unknown_or_mistyped_key_exit_code(self, entry, key, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out"), **entry}
        assert run_main(tmp_path, config, "simulate") == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [("stft", "fft_size", 512.0), ("stft", "hop", True), ("metric", "ci_sdr_taps", "512"),
         ("separator", "mask_import_dir", 5)],
    )
    def test_wrong_typed_field_exit_code(self, section, field, value, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out"),
                  section: {field: value}}
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_CONFIG
        assert f"'{section}.{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, key",
        [({"command": "sim"}, "'command'"),
         ({"seed": "x"}, "'seed'"),
         ({"seed": -1}, "'seed'"),
         ({"jobs": True}, "'jobs'"),
         ({"jobs": 0}, "'jobs'"),
         ({"output_dir": 5}, "'output_dir'"),
         ({"scene_manifest": 5}, "'scene_manifest'"),
         ({"wav_format": "pcm24"}, "'wav_format'"),
         ({"stft": {"hop": 0}}, "'stft': hop"),
         ({"separator": {"method": "beam"}}, "'separator.method'"),
         ({"separator": {"mask_oracle_kind": "cirm"}}, "'separator.mask_oracle_kind'"),
         ({"metric": {"name": "sdr"}}, "'metric.name'"),
         ({"metric": {"ci_sdr_taps": 0}}, "'metric': ci_sdr_taps"),
         ({"metric": {"cap_db": -1}}, "'metric': cap_db")],
    )
    def test_bad_value_exits_at_load(self, entry, key, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out"), **entry}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "scenes").exists()

    def test_null_fft_size_follows_window_length(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"stft": {"window_length": 256, "hop": 64, "fft_size": None}}))
        assert cli._stft_config(cli.load_config(path)) == StftConfig(256, 64)

    def test_readme_and_field_types_have_the_default_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Pipeline config \(JSON\)\s+```json\n(.*?)```", readme, re.S)
        documented = json.loads(block.group(1))

        def keys(config):
            return {k: keys(v) if isinstance(v, dict) else None for k, v in config.items()}

        assert keys(documented) == keys(cli.DEFAULT_CONFIG)
        assert keys(cli.FIELD_TYPES) == keys(cli.DEFAULT_CONFIG)


class TestAudioIo:
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_read_wav_rows_are_contiguous(self, fmt, rng, tmp_path):
        samples = rng.uniform(-0.5, 0.5, (3, 1000))
        audio_io.write_wav(tmp_path / "x.wav", audio_io.MultichannelWaveform(samples, FS), fmt)
        read = audio_io.read_wav(tmp_path / "x.wav")
        assert read.samples.flags.c_contiguous
        np.testing.assert_allclose(read.samples, samples, atol=1.0 / 32768.0)


class TestSimulate:
    def test_single_source_noiseless_mixture_equals_image(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1, num_sources=1, noise_snr=None)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        assert (scene_dir / "mixture.wav").read_bytes() == (scene_dir / "source_1.wav").read_bytes()

    def test_deterministic_outputs(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=2)
        config_a = base_config(manifest, tmp_path / "a")
        config_b = base_config(manifest, tmp_path / "b")
        cli.cmd_simulate(config_a)
        cli.cmd_simulate(config_b)
        for scene in ("scene_0000", "scene_0001"):
            for name in ("mixture.wav", "source_1.wav", "source_2.wav", "noise.wav"):
                assert (tmp_path / "a" / "scenes" / scene / name).read_bytes() == (
                    tmp_path / "b" / "scenes" / scene / name
                ).read_bytes()

    def test_decomposition_from_written_files(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        for scene_dir in sorted((tmp_path / "out" / "scenes").iterdir()):
            mixture = audio_io.read_wav(scene_dir / "mixture.wav").samples
            total = np.zeros_like(mixture)
            for k in (1, 2):
                total = total + audio_io.read_wav(scene_dir / f"source_{k}.wav").samples
            total = total + audio_io.read_wav(scene_dir / "noise.wav").samples
            # float32 storage: decomposition holds to float32 rounding
            assert np.abs(total - mixture).max() < 1e-6

    def test_manifest_scene_missing_key_exit_code(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=2)
        content = json.loads(manifest.read_text())
        del content["scenes"][1]["sources"][0]["azimuth"]
        manifest.write_text(json.dumps(content))
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out")}
        assert run_main(tmp_path, config, "simulate") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert str(manifest) in err and "scene_0001" in err and "'azimuth'" in err

    def test_missing_manifest_exit_code(self, tmp_path):
        code = cli.main(
            ["--command", "simulate", "--scene-manifest", str(tmp_path / "nope.json"),
             "--output-dir", str(tmp_path / "out")]
        )
        assert code == cli.EXIT_INPUT


class TestSeparate:
    def test_masking_single_source_reproduces_mixture(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1, num_sources=1, noise_snr=None)
        config = base_config(
            manifest, tmp_path / "out",
            separator={"method": "masking", "mask_oracle_kind": "irm"},
        )
        cli.cmd_simulate(config)
        cli.cmd_separate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        est = audio_io.read_wav(scene_dir / "est_1.wav").samples[0]
        mix = audio_io.read_wav(scene_dir / "mixture.wav").samples[0]
        assert np.abs(est - mix).max() < 1e-6

    def test_mvdr_with_imported_masks_matches_api(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        config = base_config(
            manifest, tmp_path / "out",
            separator={"method": "mvdr", "mask_import_dir": str(mask_dir)},
        )
        cli.cmd_simulate(config)
        stft_config = StftConfig(512, 128)
        mixture = audio_io.read_wav(tmp_path / "out" / "scenes" / "scene_0000" / "mixture.wav")
        frames = stft_config.num_frames(mixture.num_samples)
        rng = np.random.default_rng(5)
        masks = rng.uniform(0.0, 1.0, (2, frames, stft_config.num_bins)).astype(np.float32)
        mask_set = MaskSet(masks.astype(np.float64), ("speaker_1", "speaker_2"))
        mask_set.save(mask_dir / "scene_0000.tns")
        cli.cmd_separate(config)

        api_out, _ = separate_mvdr(mixture, MaskSet.load(mask_dir / "scene_0000.tns"),
                                   stft_config, 0)
        for k, est in enumerate(api_out, start=1):
            written = audio_io.read_wav(
                tmp_path / "out" / "scenes" / "scene_0000" / f"est_{k}.wav"
            ).samples[0]
            np.testing.assert_array_equal(written, est.samples[0].astype(np.float32))

    def test_flags_sidecar_written(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        cli.cmd_separate(config)
        with open(tmp_path / "out" / "scenes" / "scene_0000" / "flags.json") as f:
            flags = json.load(f)
        assert flags["method"] == "mvdr"
        assert len(flags["per_speaker"]) == 2

    def test_ref_mic_out_of_range_exit_code(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config_path = tmp_path / "config.json"
        with open(config_path, "w") as f:
            json.dump(
                {"command": "run-all", "scene_manifest": str(manifest),
                 "output_dir": str(tmp_path / "out"), "ref_mic": 99}, f,
            )
        assert cli.main(["--config", str(config_path)]) == cli.EXIT_CONFIG

    def test_saved_oracle_masks_import_round_trip(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        cli.load_scene_masks(scene_dir, config, StftConfig(512, 128)).save(
            mask_dir / "scene_0000.tns"
        )
        config["separator"]["mask_import_dir"] = str(mask_dir)
        imported = cli.load_scene_masks(scene_dir, config, StftConfig(512, 128))
        assert imported.labels == ("speaker_1", "speaker_2", "noise")
        assert run_main(tmp_path, config, "separate") == cli.EXIT_OK
        assert run_main(tmp_path, config, "evaluate") == cli.EXIT_OK
        assert sorted(p.name for p in scene_dir.glob("est_*.wav")) == ["est_1.wav", "est_2.wav"]

    def test_truncated_mask_file_exit_code(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        (mask_dir / "scene_0000.tns").write_bytes(b"TNS1")
        config = base_config(
            manifest, tmp_path / "out", separator={"mask_import_dir": str(mask_dir)}
        )
        cli.cmd_simulate(config)
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT

    def test_stale_estimates_are_not_scored(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        leftover = audio_io.read_wav(scene_dir / "source_1.wav").samples[0]
        audio_io.write_wav(scene_dir / "est_3.wav", audio_io.MultichannelWaveform(leftover, FS))
        assert run_main(tmp_path, config, "separate") == cli.EXIT_OK
        assert run_main(tmp_path, config, "evaluate") == cli.EXIT_OK
        assert not (scene_dir / "est_3.wav").exists()

    def test_missing_references_for_oracle_masks(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        (tmp_path / "out" / "scenes" / "scene_0000" / "source_1.wav").unlink()
        with pytest.raises(cli.ConfigurationError):
            cli.cmd_separate(config)


class TestEvaluate:
    def test_estimates_equal_references(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        for k in (1, 2):
            ref = audio_io.read_wav(scene_dir / f"source_{k}.wav")
            audio_io.write_wav(
                scene_dir / f"est_{k}.wav",
                audio_io.MultichannelWaveform(ref.samples[0], FS),
            )
        report = cli.cmd_evaluate(config)
        record = report["records"][0]
        assert record["assignment"] == [0, 1]
        assert record["output_db"] == [100.0, 100.0]

    def test_shuffled_estimates_same_scores(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        for k, ref_k in ((1, 2), (2, 1)):
            ref = audio_io.read_wav(scene_dir / f"source_{ref_k}.wav")
            audio_io.write_wav(
                scene_dir / f"est_{k}.wav",
                audio_io.MultichannelWaveform(ref.samples[0], FS),
            )
        report = cli.cmd_evaluate(config)
        record = report["records"][0]
        assert record["assignment"] == [1, 0]
        assert record["output_db"] == [100.0, 100.0]

    def test_count_mismatch(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        ref = audio_io.read_wav(scene_dir / "source_1.wav")
        audio_io.write_wav(
            scene_dir / "est_1.wav", audio_io.MultichannelWaveform(ref.samples[0], FS)
        )
        with pytest.raises(cli.InputError):
            cli.cmd_evaluate(config)


class TestRunAll:
    def test_aggregate_recomputable_from_records(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        config = base_config(manifest, tmp_path / "out")
        report = cli.run(config)
        records = report["records"]
        assert len(records) == 3
        scores = [s for r in records for s in r["output_db"]]
        assert abs(report["aggregate"]["mean_output_db"] - np.mean(scores)) < 1e-12
        # report files exist
        for name in ("report.jsonl", "report.json", "report.txt"):
            assert (tmp_path / "out" / name).exists()

    def test_scene_reference_mic_steers_separation(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1, num_mics=4, reference_mic=2)
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        mixture = audio_io.read_wav(scene_dir / "mixture.wav")
        images = [audio_io.read_wav(scene_dir / name)
                  for name in ("source_1.wav", "source_2.wav", "noise.wav")]
        stft_config = StftConfig(512, 128)
        mask_set = oracle_mask_from_waveforms(mixture, images, "irm", stft_config, 2)
        api_out, _ = separate_mvdr(mixture, mask_set, stft_config, 2)
        for k, est in enumerate(api_out, start=1):
            written = audio_io.read_wav(scene_dir / f"est_{k}.wav").samples[0]
            assert np.array_equal(written, est.samples[0].astype(np.float32))

    def test_scores_only_its_manifest_scenes(self, tmp_path):
        first = write_manifest(tmp_path / "a", num_scenes=2)
        second = write_manifest(tmp_path / "b", num_scenes=1)
        content = json.loads(second.read_text())
        content["scenes"][0]["id"] = "other_0000"
        second.write_text(json.dumps(content))
        cli.run(base_config(first, tmp_path / "out"))
        report = cli.run(base_config(second, tmp_path / "out"))
        assert [r["scene_id"] for r in report["records"]] == ["other_0000"]
        assert report["aggregate"]["num_scenes"] == 1

    def test_parallel_jobs_match_serial(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        serial = base_config(manifest, tmp_path / "serial", jobs=1)
        parallel = base_config(manifest, tmp_path / "parallel", jobs=3)
        rep_a = cli.run(serial)
        rep_b = cli.run(parallel)
        for ra, rb in zip(rep_a["records"], rep_b["records"]):
            assert ra["scene_id"] == rb["scene_id"]
            assert ra["output_db"] == rb["output_db"]
