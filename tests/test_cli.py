import json
from pathlib import Path

import numpy as np
import pytest

from conftest import speech_like
from sepfront import audio_io, cli
from sepfront.beamform import separate_mvdr
from sepfront.dsp import StftConfig
from sepfront.masks import MaskSet

FS = 16000


def write_manifest(base, num_scenes=2, num_sources=2, num_mics=4, seconds=0.5,
                   noise_snr=15.0, seed0=100):
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
        scene = {"id": f"scene_{i:04d}", "seed": seed0 + i, "reference_mic": 0,
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

    def test_parallel_jobs_match_serial(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        serial = base_config(manifest, tmp_path / "serial", jobs=1)
        parallel = base_config(manifest, tmp_path / "parallel", jobs=3)
        rep_a = cli.run(serial)
        rep_b = cli.run(parallel)
        for ra, rb in zip(rep_a["records"], rep_b["records"]):
            assert ra["scene_id"] == rb["scene_id"]
            assert ra["output_db"] == rb["output_db"]
