import copy
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pilot_suite
from conftest import speech_like
from sepfront import audio_io, beamform, cli
from sepfront.beamform import separate_mvdr
from sepfront.dsp import StftConfig
from sepfront.masks import MaskSet, oracle_mask_from_waveforms

FS = 16000

# the manifest scene that write_manifest(num_scenes=3) renders last
LAST = ("scenes", 2)


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


def write_estimates(scene_dir, signals):
    """est_k.wav per signal and the flags.json that lists them, as separate writes."""
    outputs = [f"est_{k}.wav" for k in range(1, len(signals) + 1)]
    for name, signal in zip(outputs, signals):
        audio_io.write_wav(scene_dir / name, audio_io.MultichannelWaveform(signal, FS))
    with open(scene_dir / "flags.json", "w", encoding="utf-8") as f:
        json.dump({"outputs": outputs}, f)


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
         ({"stft": {"window_length": 1 << 40, "hop": 1 << 39, "fft_size": 1 << 40}},
          "'stft.window_length' must be <= 65536"),
         ({"stft": {"fft_size": 1 << 40}}, "'stft.fft_size' must be <= 65536")],
    )
    def test_bad_value_exits_at_load(self, entry, key, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out"), **entry}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "scenes").exists()

    @pytest.mark.parametrize("document, code", [("config", cli.EXIT_CONFIG),
                                                ("manifest", cli.EXIT_INPUT)])
    def test_file_that_is_not_utf8_exit_code(self, document, code, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        flag = "--config" if document == "config" else "--scene-manifest"
        assert cli.main([flag, str(bad), "--output-dir", str(tmp_path / "out")]) == code
        assert f"{bad} is not valid JSON" in capsys.readouterr().err

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
        assert keys(cli.CONFIG_SCHEMA) == keys(cli.DEFAULT_CONFIG)


# strings that valid configs and manifests hold, so that drawn documents are
# often valid
CHOICE_WORDS = st.sampled_from([
    *cli.COMMANDS, "float32", "pcm16", "mvdr", "masking", "irm", "psm", "si_sdr", "ci_sdr",
    "white_gaussian", "file", "dry/s0_0.wav",
])


def json_values(integers):
    """Any JSON value Python's json reads back, NaN and Infinity included."""
    leaves = st.one_of(st.none(), st.booleans(), integers, st.floats(), st.text(max_size=6),
                       CHOICE_WORDS)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=5,
    )


def config_objects(schema=cli.CONFIG_SCHEMA, defaults=cli.DEFAULT_CONFIG):
    """JSON objects of a few of the config's keys, at times with one it lacks.
    A key's value is its default, any JSON value or, for a section, such an
    object of the section's keys."""
    def entry(key):
        value = st.just(defaults.get(key)) | json_values(st.integers())
        if isinstance(schema.get(key), dict):
            value |= config_objects(schema[key], defaults[key])
        return st.tuples(st.just(key), value)

    return st.lists(st.sampled_from([*schema, "ref_mic"]).flatmap(entry), max_size=3).map(dict)


def node_paths(node, path=()):
    """The path of every object key and list item under node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def node_at(document, path):
    for step in path:
        document = document[step]
    return document


def mutate(document, action, path, value):
    """A copy of document with the key or item at path set to value or
    deleted, or with the (key, value) pair value added to the object at path."""
    document = copy.deepcopy(document)
    if action == "add":
        key, value = value
        node_at(document, path)[key] = value
    elif action == "set":
        node_at(document, path[:-1])[path[-1]] = value
    else:
        del node_at(document, path[:-1])[path[-1]]
    return document


class TestSchemaProperties:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=config_objects())
    def test_any_config_object_loads_or_is_a_configuration_error(self, document, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        try:
            config = cli.load_config(path)
        except cli.ConfigurationError:
            return
        cli._check(config, cli.CONFIG_SCHEMA, "", "config", cli.ConfigurationError)
        assert set(config) == set(cli.DEFAULT_CONFIG)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_manifest_mutation_exits_cleanly_inside_output_dir(self, data, tmp_path):
        """One key of a valid 1-scene, 0.5 s manifest set to any JSON value,
        deleted, or added: run-all exits 0, 2 or 3 and writes nothing outside
        output_dir."""
        base = tmp_path / "in"
        if not base.exists():
            write_manifest(base, num_scenes=1, num_mics=2)
        valid = json.loads((base / "manifest.json").read_text())
        manifest = base / "mutated.json"  # beside the dry WAVs its paths name
        paths = list(node_paths(valid))
        objects = [p for p in [(), *paths] if isinstance(node_at(valid, p), dict)]
        value = json_values(st.integers())
        action, path, new = data.draw(st.one_of(
            st.tuples(st.just("set"), st.sampled_from(paths), value),
            st.tuples(st.just("delete"), st.sampled_from(paths), st.none()),
            st.tuples(st.just("add"), st.sampled_from(objects),
                      st.tuples(st.text(max_size=4), value)),
        ))
        manifest.write_text(json.dumps(mutate(valid, action, path, new)))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        before = set(tmp_path.rglob("*"))
        code = cli.main(["--command", "run-all", "--scene-manifest", str(manifest),
                         "--output-dir", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INPUT)
        written = set(tmp_path.rglob("*")) - before
        assert all(p == out or out in p.parents for p in written)


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

    @pytest.mark.parametrize("path, value, key", [
        (LAST, {"seed": -1}, "seed"),
        (LAST, {"id": 5}, "id"),
        (LAST, {"sample_rate": "16k"}, "sample_rate"),
        ((*LAST, "sources", 0), {"azimuth": "north"}, "azimuth"),
        ((*LAST, "sources", 1), {"gain": "loud"}, "gain"),
        ((*LAST, "noise"), {"snr_db": "x"}, "snr_db"),
        (LAST, {"sample_rate": -16000}, "sample_rate"),
        (LAST, {"geometry": {"mic_positions": [[0.0, 0.0]]}}, "mic_positions"),
        ((*LAST, "sources", 0), {"azimuth": float("nan")}, "azimuth"),
        ((*LAST, "sources", 1), {"elevation": float("inf")}, "elevation"),
        ((*LAST, "sources", 0), {"gain": float("-inf")}, "gain"),
        ((*LAST, "noise"), {"snr_db": float("nan")}, "snr_db"),
        (LAST, {"geometry": {"mic_positions": [[0.0, 0.0, 0.0]], "speed_of_sound": float("inf")}},
         "speed_of_sound"),
        (LAST, {"refrence_mic": 3}, "refrence_mic"),
        ((), {"sampel_rate": 16000}, "sampel_rate"),
        ((*LAST, "sources", 0), {"gian": 2.0}, "gian"),
        (LAST, {"noise": False}, "noise"),
        (LAST, {"noise": {}}, "noise"),
        ((*LAST, "noise"), {"snr_db": 1e10}, "snr_db"),
    ])
    def test_bad_manifest_value_exit_code(self, path, value, key, tmp_path, capsys):
        """A bad value in the scene that renders last, or at the top level,
        exits 3 naming the key, before any scene is written."""
        manifest = write_manifest(tmp_path, num_scenes=3)
        content = json.loads(manifest.read_text())  # NaN and Infinity are JSON to Python
        entry = content
        for step in path:
            entry = entry[step]
        entry.update(value)
        manifest.write_text(json.dumps(content))
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out")}
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert str(manifest) in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry, key", [
        ({"sample_rate": "x"}, "sample_rate"),
        ({"sample_rate": True}, "sample_rate"),
        ({"sample_rate": 0}, "sample_rate"),
        ({"geometry": [[0.0, 0.0, 0.0]]}, "geometry"),
        ({"geometry": {"mic_positions": [[0.0, 0.0], [0.05, 0.0]]}}, "mic_positions"),
        ({"geometry": {"mic_positions": [[0.0, 0.0, "x"]]}}, "mic_positions"),
        ({"geometry": {"mic_positions": [[float("nan"), 0.0, 0.0]]}}, "mic_positions"),
        ({"geometry": {"mic_positions": []}}, "mic_positions"),
        ({"geometry": {"mic_positions": [[0.0, 0.0, 0.0]], "speed_of_sound": -343.0}},
         "speed_of_sound"),
        ({"geometry": {"mic_positions": [[0.0, 0.0, 0.0]], "speed_of_sound": "fast"}},
         "speed_of_sound"),
    ], ids=["rate-str", "rate-bool", "rate-zero", "geometry-list", "positions-2d",
            "positions-str", "positions-nan", "positions-empty", "speed-negative", "speed-str"])
    def test_bad_manifest_top_level_exit_code(self, entry, key, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        content = json.loads(manifest.read_text())
        content.update(entry)
        manifest.write_text(json.dumps(content))
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out")}
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert str(manifest) in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("index, scene_id", [
        (0, ""), (1, "scene_0000"), (0, "../escaped"), (0, "a/b"), (0, "a\0b"),
    ], ids=["empty", "duplicate", "parent-dir", "two-components", "nul"])
    def test_bad_scene_id_exit_code(self, index, scene_id, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "in", num_scenes=2)
        content = json.loads(manifest.read_text())
        content["scenes"][index]["id"] = scene_id
        manifest.write_text(json.dumps(content))
        before = set(tmp_path.rglob("*"))
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out")}
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(scene_id) in err
        # rejected before any scene is rendered: nothing lands anywhere,
        # let alone outside out/scenes/
        assert set(tmp_path.rglob("*")) - before == {tmp_path / "config.json"}

    @pytest.mark.parametrize("path, value, fragment", [
        ((), {"sources": 5}, "'sources'"),
        ((), {"sources": ["a"]}, "'sources'"),
        ((), {"noise": 5}, "'noise'"),
        (("sources", 0), {"path": 5}, "'sources[0].path'"),
        (("noise",), {"path": ["n.wav"]}, "'noise.path'"),
        ((), {"reference_mic": 9}, "reference_mic 9"),
        (("noise",), {"kind": "pink"}, "'pink'"),
        ((), {"sources": []}, "at least one source"),
    ], ids=["sources-int", "sources-str-items", "noise-int", "source-path-int",
            "noise-path-list", "ref-mic-out-of-range", "noise-kind-pink", "sources-empty"])
    def test_bad_scene_value_names_manifest_and_scene(self, path, value, fragment, tmp_path,
                                                      capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        content = json.loads(manifest.read_text())
        entry = content["scenes"][0]
        for step in path:
            entry = entry[step]
        entry.update(value)
        manifest.write_text(json.dumps(content))
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out")}
        assert run_main(tmp_path, config, "simulate") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert str(manifest) in err and "'scene_0000'" in err and fragment in err

    @pytest.mark.parametrize("wav, samples, rate, entry, fragment", [
        ("noise.wav", np.full(100, 0.1), FS,
         {"noise": {"kind": "file", "path": "noise.wav", "snr_db": 10.0}},
         "noise recording shorter than the scene"),
        ("dry/s0_0.wav", np.full(FS // 4, 0.1), FS // 2, None,
         f"sample rate {FS // 2} != scene rate {FS}"),
        ("dry/s0_0.wav", np.zeros(FS // 2), FS, None, "zero-power source images"),
        (None, None, None, {"noise": {"kind": "file", "path": "dry", "snr_db": 10.0}},
         "Is a directory"),
        (None, None, None, {"sources": [{"path": "dry/s0_0.wav", "azimuth": 0.3, "gain": 1e40}]},
         "mixture.wav: samples beyond the float32 range"),
    ], ids=["noise-too-short", "source-rate", "zero-power-sources", "noise-path-is-a-directory",
            "gain-beyond-float32"])
    def test_render_error_names_manifest_and_scene(self, wav, samples, rate, entry, fragment,
                                                   tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1, num_sources=1)
        if wav is not None:
            audio_io.write_wav(tmp_path / wav, audio_io.MultichannelWaveform(samples, rate))
        if entry is not None:
            content = json.loads(manifest.read_text())
            content["scenes"][0].update(entry)
            manifest.write_text(json.dumps(content))
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out")}
        assert run_main(tmp_path, config, "simulate") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert str(manifest) in err and "'scene_0000'" in err and fragment in err

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
        mask_set = MaskSet(masks.astype(np.float64), 2)
        mask_set.save(mask_dir / "scene_0000.tns")
        cli.cmd_separate(config)

        api_out, _ = separate_mvdr(mixture, MaskSet.load(mask_dir / "scene_0000.tns", 2),
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
        assert imported.num_speakers == 2 and len(imported.masks) == 3
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

    @pytest.mark.parametrize("streams", [1, 4], ids=["K-1", "K+2"])
    def test_mask_file_stream_count_exit_code(self, streams, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        config = base_config(
            manifest, tmp_path / "out", separator={"mask_import_dir": str(mask_dir)}
        )
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        mixture = audio_io.read_wav(scene_dir / "mixture.wav")
        frames = StftConfig(512, 128).num_frames(mixture.num_samples)
        path = mask_dir / "scene_0000.tns"
        MaskSet(np.full((streams, frames, 257), 0.25), streams).save(path)
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT
        assert f"{path}: {streams} mask streams for 2 speakers" in capsys.readouterr().err
        assert not list(scene_dir.glob("est_*.wav"))

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

    def test_mixture_read_once_per_scene(self, tmp_path, monkeypatch):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out", command="simulate")
        cli.run(config)
        reads = []
        read_wav = audio_io.read_wav

        def counting_read_wav(path):
            reads.append(Path(path).name)
            return read_wav(path)

        monkeypatch.setattr(audio_io, "read_wav", counting_read_wav)
        cli.cmd_separate(config)
        assert sorted(reads) == ["mixture.wav", "noise.wav", "source_1.wav", "source_2.wav"]

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
        write_estimates(scene_dir, [
            audio_io.read_wav(scene_dir / f"source_{k}.wav").samples[0] for k in (1, 2)
        ])
        report = cli.cmd_evaluate(config)
        record = report["records"][0]
        assert record["assignment"] == [0, 1]
        assert record["output_db"] == [100.0, 100.0]

    def test_shuffled_estimates_same_scores(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        write_estimates(scene_dir, [
            audio_io.read_wav(scene_dir / f"source_{k}.wav").samples[0] for k in (2, 1)
        ])
        report = cli.cmd_evaluate(config)
        record = report["records"][0]
        assert record["assignment"] == [1, 0]
        assert record["output_db"] == [100.0, 100.0]

    def test_count_mismatch(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        write_estimates(scene_dir, [audio_io.read_wav(scene_dir / "source_1.wav").samples[0]])
        with pytest.raises(cli.InputError, match="1 estimates vs 2 references"):
            cli.cmd_evaluate(config)

    def test_unlisted_estimate_is_not_scored(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        cli.cmd_separate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        shutil.copy(scene_dir / "est_1.wav", scene_dir / "est_3.wav")
        assert run_main(tmp_path, config, "evaluate") == cli.EXIT_OK
        report = cli.cmd_evaluate(config)
        assert len(report["records"][0]["output_db"]) == 2

    @pytest.mark.parametrize("remove", ["flags.json", "est_2.wav"])
    def test_missing_listed_output_exit_code(self, remove, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        cli.cmd_separate(config)
        missing = tmp_path / "out" / "scenes" / "scene_0000" / remove
        missing.unlink()
        assert run_main(tmp_path, config, "evaluate") == cli.EXIT_INPUT
        assert str(missing) in capsys.readouterr().err


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

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"),
                                       cli.NumericalError("solve failed")],
                             ids=["LinAlgError", "NumericalError"])
    def test_numerical_failure_exit_code(self, error, tmp_path, monkeypatch, capsys):
        def failing_mvdr_weights(*args):
            raise error

        monkeypatch.setattr(beamform, "mvdr_weights", failing_mvdr_weights)
        manifest = write_manifest(tmp_path, num_scenes=1)
        code = cli.main(["--command", "run-all", "--scene-manifest", str(manifest),
                         "--output-dir", str(tmp_path / "out"), "--jobs", "1"])
        assert code == cli.EXIT_NUMERICAL
        assert f"numerical failure: {error}" in capsys.readouterr().err

    def test_parallel_jobs_match_serial(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        serial = base_config(manifest, tmp_path / "serial", jobs=1)
        parallel = base_config(manifest, tmp_path / "parallel", jobs=3)
        rep_a = cli.run(serial)
        rep_b = cli.run(parallel)
        for ra, rb in zip(rep_a["records"], rep_b["records"]):
            assert ra["scene_id"] == rb["scene_id"]
            assert ra["output_db"] == rb["output_db"]


def _pool_blas_threads(_):
    """The OpenBLAS thread count of the process that runs this task."""
    return cli._numpy_openblas()[0]()


@pytest.fixture
def pools(monkeypatch):
    """Counts the process pools the CLI constructs."""
    made = []

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    return made


@pytest.fixture
def openblas():
    """numpy's OpenBLAS (get, set); its thread count is put back after the test."""
    blas = cli._numpy_openblas()
    if blas is None:
        pytest.skip("numpy ships no OpenBLAS")
    before = blas[0]()
    yield blas
    blas[1](before)


def worker_share(jobs):
    return max(1, len(os.sched_getaffinity(0)) // jobs)


class TestScenePool:
    @pytest.mark.parametrize("jobs, expected", [(1, []), (2, [2])])
    def test_one_pool_per_run(self, jobs, expected, pools, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        config = base_config(manifest, tmp_path / "out", jobs=jobs)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert pools == expected
        assert len((tmp_path / "out" / "report.jsonl").read_text().splitlines()) == 3

    def test_bare_stage_runs_in_its_own_pool(self, pools, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out", jobs=2)
        assert cli.cmd_simulate(config) == ["scene_0000", "scene_0001"]
        assert pools == [2]

    def test_workers_get_an_even_share_of_the_cpus(self, openblas):
        jobs = 2
        openblas[1](worker_share(jobs) + 1)  # the parent's count differs from the share
        with cli._scene_pool(jobs) as scene_map:
            seen = scene_map(_pool_blas_threads, range(4))
            assert openblas[0]() == worker_share(jobs)
        assert seen == [worker_share(jobs)] * 4
        assert openblas[0]() == worker_share(jobs) + 1

    @pytest.mark.parametrize("bad_scene", [False, True], ids=["ok", "stage-raises"])
    def test_parent_blas_threads_restored(self, bad_scene, openblas, pools, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=3)
        if bad_scene:
            content = json.loads(manifest.read_text())
            content["scenes"][2]["reference_mic"] = 9
            manifest.write_text(json.dumps(content))
        parent = worker_share(2) + 1
        openblas[1](parent)
        config = base_config(manifest, tmp_path / "out", jobs=2)
        expected = cli.EXIT_INPUT if bad_scene else cli.EXIT_OK
        assert run_main(tmp_path, config, "run-all") == expected
        assert pools == [2]
        assert openblas[0]() == parent
        if bad_scene:
            assert "'scene_0002'" in capsys.readouterr().err

    def test_runs_without_openblas(self, monkeypatch, pools, tmp_path):
        monkeypatch.setattr(cli, "_numpy_openblas", lambda: None)
        manifest = write_manifest(tmp_path, num_scenes=3)
        config = base_config(manifest, tmp_path / "out", jobs=2)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert pools == [2]
        assert len((tmp_path / "out" / "report.jsonl").read_text().splitlines()) == 3

    def test_numpy_openblas_is_found(self):
        """A numpy wheel with a bundled OpenBLAS must expose its thread
        functions under a name the locator knows, or --jobs loses its cap."""
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        if not list(libs.glob("*openblas*")):
            pytest.skip("numpy ships no bundled OpenBLAS")
        blas = cli._numpy_openblas()
        assert blas is not None
        assert blas[0]() >= 1

    def test_jobs_give_identical_outputs_on_pilot_scenes(self, tmp_path):
        manifest = pilot_suite.write_cli_suite(tmp_path / "in", num_scenes=2)
        outputs, reports = {}, {}
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            reports[jobs] = cli.run(base_config(manifest, out_dir, jobs=jobs))["records"]
            outputs[jobs] = {
                p.relative_to(out_dir): p.read_bytes()
                for pattern in ("scenes/*/est_*.wav", "scenes/*/flags.json")
                for p in sorted(out_dir.glob(pattern))
            }
        assert len(outputs[1]) == 2 * 3
        assert outputs[1] == outputs[2]
        # scores are sums whose BLAS reduction order follows the thread
        # count, so they may differ in the last bits
        for serial, parallel in zip(reports[1], reports[2]):
            assert serial["scene_id"] == parallel["scene_id"]
            for key in ("input_db", "output_db"):
                assert np.allclose(serial[key], parallel[key], rtol=0.0, atol=1e-12)
