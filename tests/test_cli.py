import copy
import ctypes
import json
import os
import pickle
import re
import resource
import shutil
import struct
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.io import wavfile

import pilot_suite
from conftest import fresh_python, speech_like
from sepfront import audio_io, beamform, cli, metrics, simulate, tensorio
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
    """est_k.wav per signal and a flags.json, as masking separation writes them."""
    for k, signal in enumerate(signals, start=1):
        audio_io.write_wav(scene_dir / f"est_{k}.wav", audio_io.MultichannelWaveform(signal, FS))
    with open(scene_dir / "flags.json", "w", encoding="utf-8") as f:
        json.dump({"method": "masking", "per_speaker": [{} for _ in signals]}, f)


def recorded_reads(monkeypatch):
    """The path of every audio_io.read_wav call made from here on."""
    reads = []
    read_wav = audio_io.read_wav

    def recording_read_wav(path, rows=None):
        reads.append(path)
        return read_wav(path, rows)

    monkeypatch.setattr(audio_io, "read_wav", recording_read_wav)
    return reads


def in_dir(path, directory):
    """Whether path, with its '..' steps resolved, names a file in directory."""
    return Path(os.path.normpath(path)).parent == directory


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
         ({"stft": {"fft_size": 1 << 40}}, "'stft.fft_size' must be <= 65536"),
         ({"metric": {"ci_sdr_taps": 4097}}, "'metric.ci_sdr_taps' must be <= 4096")],
    )
    def test_bad_value_exits_at_load(self, entry, key, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out"), **entry}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["--config", str(path)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "scenes").exists()

    def test_jobs_above_the_bound_starts_no_pool(self, pools, tmp_path, capsys):
        assert cli.load_config(None, {"jobs": cli.MAX_JOBS})["jobs"] == cli.MAX_JOBS
        manifest = write_manifest(tmp_path, num_scenes=2)
        code = cli.main(["--command", "run-all", "--scene-manifest", str(manifest),
                         "--output-dir", str(tmp_path / "out"),
                         "--jobs", str(cli.MAX_JOBS + 1)])
        assert code == cli.EXIT_CONFIG
        assert f"'jobs' must be in 1..{cli.MAX_JOBS}, got {cli.MAX_JOBS + 1}" in (
            capsys.readouterr().err)
        assert pools == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document, code", [("config", cli.EXIT_CONFIG),
                                                ("manifest", cli.EXIT_INPUT)])
    def test_file_that_is_not_utf8_exit_code(self, document, code, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        flag = "--config" if document == "config" else "--scene-manifest"
        assert cli.main([flag, str(bad), "--output-dir", str(tmp_path / "out")]) == code
        assert f"{bad} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("document, code", [("config", cli.EXIT_CONFIG),
                                                ("manifest", cli.EXIT_INPUT)])
    def test_json_nested_too_deep_exit_code(self, document, code, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        depth = 200_000
        deep.write_text('{"a": ' + "[" * depth + "]" * depth + "}")
        flag = "--config" if document == "config" else "--scene-manifest"
        assert cli.main([flag, str(deep), "--command", "simulate",
                         "--output-dir", str(tmp_path / "out")]) == code
        assert f"{deep} is not valid JSON" in capsys.readouterr().err

    def test_manifest_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        manifest = write_manifest(tmp_path, num_scenes=1)
        monkeypatch.setattr(json, "load", out_of_memory)
        assert cli.main(["--scene-manifest", str(manifest), "--command", "simulate",
                         "--output-dir", str(tmp_path / "out")]) == cli.EXIT_INPUT
        assert (f"input error: scene manifest {manifest}: out of memory\n"
                in capsys.readouterr().err)

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

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_flags_mutation_exits_cleanly_reading_only_the_scene(self, data, tmp_path,
                                                                     monkeypatch):
        """One key of a 1-scene, 0.5 s run's flags.json set to any JSON value,
        deleted, or added: evaluate exits 0 with the run's scores and reads no
        WAV outside the scene's directory, though one lies where
        '../../../../x.wav' leads."""
        out = tmp_path / "run" / "out"
        scene_dir = out / "scenes" / "scene_0000"
        if not out.exists():
            cli.run(base_config(write_manifest(tmp_path / "in", num_scenes=1), out))
            shutil.copy(scene_dir / "flags.json", tmp_path / "flags.json")
            shutil.copy(out / "report.jsonl", tmp_path / "report.jsonl")
            shutil.copy(scene_dir / "est_1.wav", tmp_path / "x.wav")
        valid = json.loads((tmp_path / "flags.json").read_text())
        scored = json.loads((tmp_path / "report.jsonl").read_text())
        paths = list(node_paths(valid))
        objects = [p for p in [(), *paths] if isinstance(node_at(valid, p), dict)]
        # some edits add an outputs key that lists file names, which evaluate
        # must not read
        names = st.sampled_from(["../../../../x.wav", "mixture.wav", "est_1.wav", "est_2.wav",
                                 "est_3.wav"])
        value = json_values(st.integers())
        action, path, new = data.draw(st.one_of(
            st.tuples(st.just("add"), st.just(()),
                      st.tuples(st.just("outputs"), names | st.lists(names, max_size=3))),
            st.tuples(st.just("set"), st.sampled_from(paths), value),
            st.tuples(st.just("delete"), st.sampled_from(paths), st.none()),
            st.tuples(st.just("add"), st.sampled_from(objects),
                      st.tuples(st.text(max_size=4), value)),
        ))
        (scene_dir / "flags.json").write_text(json.dumps(mutate(valid, action, path, new)))
        with monkeypatch.context() as patch:
            reads = recorded_reads(patch)
            code = cli.main(["--command", "evaluate", "--output-dir", str(out),
                             "--scene-manifest", str(tmp_path / "in" / "manifest.json")])
        assert code == cli.EXIT_OK
        assert all(in_dir(p, scene_dir) for p in reads)
        record = json.loads((out / "report.jsonl").read_text())
        assert [record[k] for k in ("input_db", "output_db", "assignment")] == [
            scored[k] for k in ("input_db", "output_db", "assignment")]

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_scene_mutation_exits_cleanly_naming_the_file(self, data, tmp_path, capsys):
        """One mutation of a 1-scene, 0.5 s run: a key of scene.json set to
        any JSON value, deleted or added, or a WAV cut to half its length,
        short of a channel or at half its rate. evaluate, then separate, each
        exit 0 or 3; an exit 3 names a file of the scene by its path, and so
        the scene, and nothing is written outside output_dir."""
        pristine, run = tmp_path / "pristine", tmp_path / "run"
        if not pristine.exists():
            cli.run(base_config(write_manifest(tmp_path / "in", num_scenes=1), pristine / "out"))
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(pristine, run)
        out = run / "out"
        scene_dir = out / "scenes" / "scene_0000"
        valid = json.loads((scene_dir / "scene.json").read_text())
        paths = list(node_paths(valid))
        objects = [p for p in [(), *paths] if isinstance(node_at(valid, p), dict)]
        wavs = sorted(p.name for p in scene_dir.glob("*.wav"))
        value = json_values(st.integers())
        edit = data.draw(st.one_of(
            # the keys a stage reads, set to numbers near their valid values
            st.tuples(st.just("set"), st.sampled_from([("reference_mic",), ("sample_rate",)]),
                      st.integers(-1, 5) | st.sampled_from([8000, 16000])),
            st.tuples(st.just("set"), st.sampled_from(paths), value),
            st.tuples(st.just("delete"), st.sampled_from(paths), st.none()),
            st.tuples(st.just("add"), st.sampled_from(objects),
                      st.tuples(st.text(max_size=4), value)),
            st.tuples(st.sampled_from(["half-length", "half-rate"]), st.sampled_from(wavs)),
            # est_k.wav is mono, the others have a channel per mic
            st.tuples(st.just("channel-dropped"),
                      st.sampled_from([w for w in wavs if not w.startswith("est_")])),
        ))
        if edit[0] in WAV_CHANGES:
            edit_wav(edit[1], WAV_CHANGES[edit[0]])(scene_dir)
        else:
            (scene_dir / "scene.json").write_text(json.dumps(mutate(valid, *edit)))
        before = set(tmp_path.rglob("*"))
        for command in ("evaluate", "separate"):
            code = cli.main(["--command", command, "--output-dir", str(out),
                             "--scene-manifest", str(tmp_path / "in" / "manifest.json")])
            err = capsys.readouterr().err
            assert code in (cli.EXIT_OK, cli.EXIT_INPUT)
            if code == cli.EXIT_INPUT:
                assert re.search(re.escape(f"{scene_dir}{os.sep}") + r"\w+\.(json|wav)", err)
        written = set(tmp_path.rglob("*")) - before
        assert all(out in p.parents for p in written)


class TestAudioIo:
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_read_wav_rows_are_contiguous(self, fmt, rng, tmp_path):
        samples = rng.uniform(-0.5, 0.5, (3, 1000))
        waveform = audio_io.MultichannelWaveform(samples, FS)
        audio_io.write_wav(tmp_path / "x.wav", audio_io.encode(waveform, fmt))
        read = audio_io.read_wav(tmp_path / "x.wav")
        assert read.samples.flags.c_contiguous
        np.testing.assert_allclose(read.samples, samples, atol=1.0 / 32768.0)

    def test_written_format_follows_the_data(self, rng, tmp_path):
        """A StoredWaveform is written in the format encode gave it, and a
        MultichannelWaveform as float32."""
        waveform = audio_io.MultichannelWaveform(rng.uniform(-0.5, 0.5, (2, 100)), FS)
        audio_io.write_wav(tmp_path / "pcm16.wav", audio_io.encode(waveform, "pcm16"))
        audio_io.write_wav(tmp_path / "raw.wav", waveform)
        assert wavfile.read(tmp_path / "pcm16.wav")[1].dtype == np.int16
        assert wavfile.read(tmp_path / "raw.wav")[1].dtype == np.float32

    @staticmethod
    def assert_encoded_reads_back(samples, fmt, path):
        """What encode stores for samples in fmt is, bit for bit, what a WAV of
        fmt reads back as: the float32 value, or the int16 value / 32768."""
        stored = audio_io.encode(audio_io.MultichannelWaveform(samples, FS), fmt)
        audio_io.write_wav(path, stored)
        read = audio_io.read_wav(path).samples
        if fmt == "float32":
            assert stored.data.dtype == np.float32
            expected = stored.data.astype(np.float64)
        else:
            assert stored.data.dtype == np.int16
            expected = stored.data / 32768.0
        assert np.array_equal(expected, read)
        assert np.array_equal(np.signbit(expected), np.signbit(read))

    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_quantize_equals_the_written_samples_at_edge_values(self, fmt, tmp_path):
        edges = [1.0, -1.0, 32767.0 / 32768.0, 0.5 / 32768.0, 1.5 / 32768.0, -0.5 / 32768.0,
                 -1.5 / 32768.0, -0.0, 1e-40, 1e-50, -1e-50, audio_io.FLOAT32_MAX,
                 -audio_io.FLOAT32_MAX]
        self.assert_encoded_reads_back(np.array(edges), fmt, tmp_path / "x.wav")

    def test_quantize_pcm16_clips_and_rounds_half_to_even(self):
        samples = np.array([2.0, -2.0, 0.5 / 32768.0, 1.5 / 32768.0, -0.5 / 32768.0])
        stored = audio_io.encode(audio_io.MultichannelWaveform(samples, FS), "pcm16")
        assert stored.data.dtype == np.int16
        assert np.array_equal(stored.data, [[32767, -32768, 0, 2, 0]])

    def test_quantize_beyond_float32_raises(self, tmp_path):
        beyond = np.array([0.0, np.nextafter(audio_io.FLOAT32_MAX, np.inf)])
        for samples in (beyond, -beyond):
            waveform = audio_io.MultichannelWaveform(samples, FS)
            with pytest.raises(audio_io.InputError,
                               match=r"^est_1\.wav: samples beyond the float32 range"):
                audio_io.encode(waveform, "float32", "est_1.wav: ")
            with pytest.raises(audio_io.InputError, match="x.wav: samples beyond the float32"):
                audio_io.write_wav(tmp_path / "x.wav", waveform)
        assert not (tmp_path / "x.wav").exists()
        # pcm16 clips instead
        stored = audio_io.encode(audio_io.MultichannelWaveform(beyond, FS), "pcm16")
        assert stored.data[0, 1] == 32767

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    def test_non_finite_sample_is_named(self, fmt, value):
        """Neither format stores a NaN or an Inf: float32 would keep it, and
        pcm16 would store a NaN as 0 and an Inf as full scale."""
        waveform = audio_io.MultichannelWaveform(np.array([[0.0, 0.5], [0.25, 0.0]]), FS)
        waveform.samples[1, 1] = value  # bypass constructor validation
        with pytest.raises(audio_io.InputError, match=r"^est_1\.wav: non-finite sample"):
            audio_io.encode(waveform, fmt, "est_1.wav: ")

    # WAV data, samples x channels, of each sample type read_wav decodes
    WAV_DATA = {
        "pcm16": lambda rng: rng.integers(-32768, 32768, (500, 3)).astype(np.int16),
        "int32": lambda rng: rng.integers(-2 ** 31, 2 ** 31, (500, 3)).astype(np.int32),
        "float32": lambda rng: rng.uniform(-1.0, 1.0, (500, 3)).astype(np.float32),
        "float64": lambda rng: rng.uniform(-1.0, 1.0, (500, 3)),
        "mono": lambda rng: rng.uniform(-1.0, 1.0, 500).astype(np.float32),
    }

    @pytest.mark.parametrize("kind", list(WAV_DATA))
    def test_read_rows_are_the_rows_of_the_whole_read(self, kind, rng, tmp_path):
        path = tmp_path / "x.wav"
        wavfile.write(path, FS, self.WAV_DATA[kind](rng))
        whole = audio_io.read_wav(path)
        last = whole.num_channels - 1
        for rows in ([last], [0], [last, 0], list(range(last + 1))):
            read = audio_io.read_wav(path, rows)
            assert read.samples.flags.c_contiguous
            assert read.samples.dtype == np.float64
            assert read.samples.tobytes() == whole.samples[rows].tobytes()
            assert (read.file_channels, read.sample_rate) == (whole.num_channels, FS)

    @pytest.mark.parametrize("rows", [[3], [0, 3], [-1]])
    def test_row_beyond_the_file_names_the_path(self, rows, rng, tmp_path):
        path = tmp_path / "x.wav"
        samples = rng.uniform(-0.5, 0.5, (3, 100))
        audio_io.write_wav(path, audio_io.MultichannelWaveform(samples, FS))
        message = f"{path}: row {rows[-1]} is not one of its 3 channels"
        with pytest.raises(audio_io.InputError, match=re.escape(message)):
            audio_io.read_wav(path, rows)

    def test_unknown_chunk_is_skipped_without_a_warning(self, rng, tmp_path):
        path = tmp_path / "x.wav"
        audio_io.write_wav(path, audio_io.MultichannelWaveform(rng.uniform(-1, 1, (2, 400)), FS))
        original = audio_io.read_wav(path)
        wav = bytearray(path.read_bytes())
        chunk = b"abcd" + struct.pack("<I", 6) + b"sixbyt"
        at = wav.index(b"data")
        wav[at:at] = chunk
        struct.pack_into("<I", wav, 4, struct.unpack_from("<I", wav, 4)[0] + len(chunk))
        path.write_bytes(bytes(wav))
        read = audio_io.read_wav(path)  # filterwarnings = error: no warning escapes
        assert read.samples.tobytes() == original.samples.tobytes()
        assert (read.sample_rate, read.file_channels) == (FS, 2)

    @pytest.mark.parametrize("extra, grow, message",
                             [(b"", 1000, "Reached EOF prematurely"),
                              (b"da", 2, "Incomplete chunk ID")],
                             ids=["riff-size-past-the-end", "cut-chunk-id"])
    def test_truncated_wav_names_the_path(self, extra, grow, message, rng, tmp_path):
        """A RIFF size past the end of the file, or a file that ends inside a
        chunk ID, is a truncation: an InputError naming the path, not a warning."""
        path = tmp_path / "x.wav"
        audio_io.write_wav(path, audio_io.MultichannelWaveform(rng.uniform(-1, 1, (2, 400)), FS))
        wav = bytearray(path.read_bytes() + extra)
        struct.pack_into("<I", wav, 4, struct.unpack_from("<I", wav, 4)[0] + grow)
        path.write_bytes(bytes(wav))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the rule is read_wav's, not pytest's filter
            with pytest.raises(audio_io.InputError, match=f"^{re.escape(f'{path}: {message}')}"):
                audio_io.read_wav(path)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fmt=st.sampled_from(audio_io.WAV_FORMATS), data=st.data())
    def test_quantize_equals_the_written_samples(self, fmt, data, tmp_path):
        sample = st.one_of(
            st.floats(-audio_io.FLOAT32_MAX, audio_io.FLOAT32_MAX),
            st.floats(-2.0, 2.0),
            st.integers(-70000, 70000).map(lambda n: n / 65536.0),  # pcm16 steps and ties
        )
        shape = data.draw(st.tuples(st.integers(1, 2), st.integers(1, 64)))
        samples = np.array(data.draw(st.lists(sample, min_size=shape[0] * shape[1],
                                              max_size=shape[0] * shape[1])))
        self.assert_encoded_reads_back(samples.reshape(shape), fmt, tmp_path / "x.wav")


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

    def test_scene_json_echoes_manifest_and_defaults(self, tmp_path):
        """scene_0000 sets every value a scene may set; scene_0001 sets none it
        may leave out, so it gets the defaults and a seed of --seed plus its
        index."""
        manifest = write_manifest(tmp_path, num_scenes=2, reference_mic=2)
        content = json.loads(manifest.read_text())
        content["scenes"][0]["sources"][1].update(elevation=0.25, gain=0.5)
        scene = content["scenes"][1]
        for key in ("seed", "reference_mic", "noise"):
            del scene[key]
        for src in scene["sources"]:
            del src["elevation"], src["gain"]
        manifest.write_text(json.dumps(content))
        cli.cmd_simulate(base_config(manifest, tmp_path / "out", seed=7))

        mic_positions = content["geometry"]["mic_positions"]
        geometry = simulate.ArrayGeometry(np.asarray(mic_positions))
        for index, scene in enumerate(content["scenes"]):
            path = tmp_path / "out" / "scenes" / scene["id"] / "scene.json"
            record = json.loads(path.read_text())
            assert record.pop("sources") == [
                {"azimuth": src["azimuth"], "elevation": src.get("elevation", 0.0),
                 "gain": src.get("gain", 1.0),
                 "delays_s": simulate.plane_wave_delays(
                     geometry, src["azimuth"], src.get("elevation", 0.0)).tolist()}
                for src in scene["sources"]]
            assert record == {
                "sample_rate": FS, "reference_mic": scene.get("reference_mic", 0),
                "seed": scene.get("seed", 7 + index), "mic_positions": mic_positions,
                "speed_of_sound": simulate.SPEED_OF_SOUND, "noise": scene.get("noise")}

    def test_task_size_does_not_grow_with_the_manifest(self, tmp_path):
        """Each simulate task carries the manifest's defaults, not its scenes;
        loading the manifest opens no dry WAV, so none is written."""
        sizes = []
        for base, num_scenes in (("a", 2), ("b", 200)):
            manifest = tmp_path / base / "manifest.json"
            manifest.parent.mkdir()
            manifest.write_text(json.dumps({
                "sample_rate": FS, "geometry": {"mic_positions": [[0.0, 0.0, 0.0]]},
                "scenes": [{"id": f"scene_{i:04d}", "sources": [{"path": "dry.wav",
                                                                "azimuth": 0.0}]}
                           for i in range(num_scenes)]}))
            tasks = []

            def recording_map(fn, items):
                tasks.extend(items)
                return []

            cli.cmd_simulate(base_config(manifest, tmp_path / base / "out"), recording_map)
            assert len(tasks) == num_scenes
            sizes.append(len(pickle.dumps(tasks[0])))
        assert sizes[0] == sizes[1]

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
        ((), {"scenes": []}, "scenes"),
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
         f"s0_0.wav: 1 channels x {FS // 4} samples at {FS // 2} Hz, "
         f"where the scene has 1 x {FS // 4} at {FS} Hz"),
        ("dry/s0_0.wav", np.full((2, FS // 2), 0.1), FS, None,
         f"s0_0.wav: 2 channels x {FS // 2} samples at {FS} Hz, where the scene has 1 x"),
        ("noise.wav", np.full(FS, 0.1), FS // 2,
         {"noise": {"kind": "file", "path": "noise.wav", "snr_db": 10.0}},
         f"noise.wav: 1 channels x {FS} samples at {FS // 2} Hz, "
         f"where the scene has 1 x {FS} at {FS} Hz"),
        ("dry/s0_0.wav", np.zeros(FS // 2), FS, None, "zero-power source images"),
        (None, None, None, {"noise": {"kind": "file", "path": "dry", "snr_db": 10.0}},
         "Is a directory"),
        (None, None, None, {"sources": [{"path": "dry/s0_0.wav", "azimuth": 0.3, "gain": 1e40}]},
         "mixture.wav: samples beyond the float32 range"),
        (None, None, None, {"sources": [{"path": "dry/s0_0.wav", "azimuth": 0.3},
                                        {"path": "dry/s0_0.wav", "azimuth": 1.5, "gain": 0.0}]},
         "source 2 is silent at reference mic 0"),
    ], ids=["noise-too-short", "source-rate", "source-stereo", "noise-half-rate",
            "zero-power-sources", "noise-path-is-a-directory", "gain-beyond-float32",
            "muted-source"])
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

    @pytest.mark.parametrize("fmt, gain", [("pcm16", 1e-7), ("float32", 1e-50)])
    def test_source_silent_as_written_exit_code(self, fmt, gain, tmp_path, capsys):
        """A source that renders non-silent but quantizes to zeros at the
        reference mic in the scene's WAV format fails at simulate, before
        its scene directory is made."""
        manifest = write_manifest(tmp_path, num_scenes=1)
        content = json.loads(manifest.read_text())
        content["scenes"][0]["sources"][1]["gain"] = gain
        manifest.write_text(json.dumps(content))
        config = {"scene_manifest": str(manifest), "output_dir": str(tmp_path / "out"),
                  "wav_format": fmt}
        assert run_main(tmp_path, config, "simulate") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert str(manifest) in err and "'scene_0000'" in err
        assert "source 2 is silent at reference mic 0" in err
        assert not (tmp_path / "out" / "scenes" / "scene_0000").exists()

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
        assert sorted(flags) == ["method", "per_speaker"]
        assert flags["method"] == "mvdr"
        assert len(flags["per_speaker"]) == 2

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

    @pytest.mark.parametrize("method", cli.SEPARATION_METHODS)
    def test_mask_file_infinite_value_exit_code(self, method, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        config = base_config(manifest, tmp_path / "out",
                             separator={"method": method, "mask_import_dir": str(mask_dir)})
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        mixture = audio_io.read_wav(scene_dir / "mixture.wav")
        masks = np.full((2, StftConfig(512, 128).num_frames(mixture.num_samples), 257), 0.5)
        masks[0, 3, 40] = np.inf
        path = mask_dir / "scene_0000.tns"
        tensorio.save_tensor(path, masks)
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT
        assert f"{path}: mask values must be finite" in capsys.readouterr().err
        assert not list(scene_dir.glob("est_*.wav"))

    @pytest.mark.parametrize("method", cli.SEPARATION_METHODS)
    def test_mask_file_grid_exit_code(self, method, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        config = base_config(manifest, tmp_path / "out",
                             separator={"method": method, "mask_import_dir": str(mask_dir)})
        cli.cmd_simulate(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        mixture = audio_io.read_wav(scene_dir / "mixture.wav")
        frames = StftConfig(512, 128).num_frames(mixture.num_samples)
        path = mask_dir / "scene_0000.tns"
        MaskSet(np.full((2, 100, 257), 0.5), 2).save(path)
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT
        assert (f"{path}: scene 'scene_0000': mask grid (100, 257) does not match the "
                f"mixture's STFT grid ({frames}, 257)") in capsys.readouterr().err
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
        reads = recorded_reads(monkeypatch)
        cli.cmd_separate(config)
        assert sorted(Path(p).name for p in reads) == [
            "mixture.wav", "noise.wav", "source_1.wav", "source_2.wav"]

    def test_missing_references_for_oracle_masks(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.cmd_simulate(config)
        missing = tmp_path / "out" / "scenes" / "scene_0000" / "source_1.wav"
        missing.unlink()
        with pytest.raises(cli.InputError, match=re.escape(str(missing))):
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
        with pytest.raises(cli.InputError, match=re.escape(str(scene_dir / "est_2.wav"))):
            cli.cmd_evaluate(config)

    @pytest.mark.parametrize("metric", sorted(metrics.METRIC_FUNCTIONS))
    def test_input_db_is_the_mixture_metric(self, metric, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1, reference_mic=1)
        config = base_config(manifest, tmp_path / "out", metric={"name": metric,
                                                                 "ci_sdr_taps": 64})
        record = cli.run(config)["records"][0]
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        mixture_ref = audio_io.read_wav(scene_dir / "mixture.wav").channel(1)
        references = [audio_io.read_wav(scene_dir / f"source_{k}.wav").channel(1)
                      for k in (1, 2)]
        metric_config = metrics.MetricConfig(ci_sdr_taps=64)
        assert record["input_db"] == [
            metrics.METRIC_FUNCTIONS[metric](mixture_ref, ref, metric_config)
            for ref in references
        ]

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

    @pytest.mark.parametrize("metric", sorted(metrics.METRIC_FUNCTIONS))
    def test_scores_are_the_library_call(self, metric, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1, reference_mic=1)
        config = base_config(manifest, tmp_path / "out", metric={"name": metric,
                                                                 "ci_sdr_taps": 64})
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        (record,) = [json.loads(line) for line in
                     (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
        result = metrics.evaluate_separation(
            audio_io.read_wav(scene_dir / "mixture.wav").channel(1),
            [audio_io.read_wav(scene_dir / f"est_{k}.wav").channel(0) for k in (1, 2)],
            [audio_io.read_wav(scene_dir / f"source_{k}.wav").channel(1) for k in (1, 2)],
            metric, metrics.MetricConfig(ci_sdr_taps=64))
        assert record["input_db"] == result["input_db"]
        assert record["output_db"] == result["per_speaker_db"]
        assert record["assignment"] == list(result["assignment"].permutation)

    @pytest.mark.parametrize("metric, seconds, silent, message", [
        ("si_sdr", 0.5, True, "reference signal is all-zero"),
        ("ci_sdr", 0.5, True, "reference signal is all-zero"),
        ("ci_sdr", 0.025, False, "signals of length 400 shorter than the 512-tap filter"),
    ], ids=["si_sdr-silent-source", "ci_sdr-silent-source", "ci_sdr-shorter-than-taps"])
    def test_scoring_error_names_the_scene(self, metric, seconds, silent, message, tmp_path,
                                           capsys):
        manifest = write_manifest(tmp_path, num_scenes=1, seconds=seconds)
        config = base_config(manifest, tmp_path / "out", metric={"name": metric})
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        command = "run-all"
        if silent:  # simulate rejects a silent source, so silence a rendered one
            assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
            edit_wav("source_2.wav", lambda rate, data: (rate, np.zeros_like(data)))(scene_dir)
            command = "evaluate"
        assert run_main(tmp_path, config, command) == cli.EXIT_INPUT
        assert f"input error: {message}, scoring {scene_dir}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code, prefix", [
        (MemoryError(), cli.EXIT_INPUT, "input error: out of memory"),
        (np.linalg.LinAlgError("not positive definite"), cli.EXIT_NUMERICAL,
         "numerical failure: not positive definite"),
    ], ids=["MemoryError", "LinAlgError"])
    def test_scoring_failure_exit_code(self, error, code, prefix, tmp_path, monkeypatch,
                                       capsys):
        def failing_evaluate_separation(*args):
            raise error

        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out", jobs=1)
        monkeypatch.setattr(metrics, "evaluate_separation", failing_evaluate_separation)
        assert run_main(tmp_path, config, "run-all") == code
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        assert f"{prefix}, scoring {scene_dir}\n" in capsys.readouterr().err

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


def edit_json(name, change):
    """An edit that applies change to the object in the scene's JSON file name."""
    def edit(scene_dir):
        path = scene_dir / name
        document = json.loads(path.read_text())
        change(document)
        path.write_text(json.dumps(document))
        return path
    return edit


def set_outputs(outputs):
    """A change that lists outputs in a flags.json object."""
    return lambda flags: flags.update(outputs=outputs)


def edit_wav(name, change):
    """An edit that rewrites the scene's WAV file name as change(rate, data)
    returns it, data being samples x channels (one axis for a mono file)."""
    def edit(scene_dir):
        path = scene_dir / name
        wavfile.write(path, *change(*wavfile.read(path)))
        return path
    return edit


def remove(name):
    """An edit that deletes the scene's file name."""
    def edit(scene_dir):
        (scene_dir / name).unlink()
        return scene_dir / name
    return edit


# changes to a WAV's (rate, data) for edit_wav
WAV_CHANGES = {
    "half-length": lambda rate, data: (rate, data[: len(data) // 2]),
    "channel-dropped": lambda rate, data: (rate, data[:, :-1]),
    "half-rate": lambda rate, data: (rate // 2, data),
}


def replace_text(name, text):
    """An edit that replaces the scene file name with text."""
    def edit(scene_dir):
        (scene_dir / name).write_text(text)
        return scene_dir / name
    return edit


def nan_sample(scene_dir):
    """An edit that puts a NaN into the float32 est_1.wav."""
    path = scene_dir / "est_1.wav"
    rate, data = wavfile.read(path)
    data = data.copy()
    data[len(data) // 2] = np.nan
    wavfile.write(path, rate, data)
    return path


class TestSceneFiles:
    @pytest.mark.parametrize("edit, command, code", [
        # flags.json's outputs records what separate wrote; evaluate does not read it
        *((edit_json("flags.json", set_outputs(outputs)), "evaluate", cli.EXIT_OK)
          for outputs in [5, ["../../../../x.wav", "est_2.wav"], ["mixture.wav"],
                          ["mixture.wav", "est_2.wav"], ["est_1.wav", "est_1.wav"],
                          ["est_2.wav", "est_1.wav"]]),
        (replace_text("flags.json", '{"outputs": '), "evaluate", cli.EXIT_INPUT),
        (replace_text("scene.json", '{"reference_mic": '), "separate", cli.EXIT_INPUT),
        (replace_text("scene.json", "[0]"), "evaluate", cli.EXIT_INPUT),
        (nan_sample, "evaluate", cli.EXIT_INPUT),
        *((edit, command, cli.EXIT_INPUT) for command in ("separate", "evaluate") for edit in [
            edit_json("scene.json", lambda record: record.pop("reference_mic")),
            edit_json("scene.json", lambda record: record.update(reference_mic=9)),
            edit_json("scene.json", lambda record: record.update(sources="s")),
            edit_wav("mixture.wav", lambda rate, data: (rate, data[:, :2])),
            edit_wav("source_1.wav", WAV_CHANGES["half-length"]),
            remove("source_1.wav"),
            # the directory names the scene; an id key is unknown
            edit_json("scene.json", lambda record: record.update(id="scene_0001",
                                                                 reference_mic="0")),
        ]),
        (edit_wav("noise.wav", WAV_CHANGES["half-rate"]), "separate", cli.EXIT_INPUT),
        (edit_wav("est_2.wav", WAV_CHANGES["half-length"]), "evaluate", cli.EXIT_INPUT),
    ], ids=["outputs-5", "outputs-outside-scene", "outputs-mixture",
            "outputs-mixture-and-est", "outputs-repeated", "outputs-swapped",
            "flags-not-json", "scene-not-json", "scene-not-an-object", "est-nan",
            *(f"{case}-{command}" for command in ("separate", "evaluate") for case in [
                "no-reference-mic", "reference-mic-9-of-4", "sources-mistyped",
                "mixture-2-of-4-channels", "source-half-length", "source-missing",
                "id-of-another-scene"]),
            "noise-half-rate", "est-half-length"])
    def test_edited_scene_file_exit_code(self, edit, command, code, tmp_path, monkeypatch,
                                         capsys):
        """After a 1-scene run-all, one edited scene file makes the next stage
        exit 3 naming that file by its path, and so the scene, and no other
        scene, or, for an edit of flags.json's outputs, exit 0 with the
        unedited run's scores; no WAV outside the scene is read."""
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "run" / "out")
        scored = cli.run(config)["records"][0]
        scene_dir = tmp_path / "run" / "out" / "scenes" / "scene_0000"
        # a valid WAV where '../../../../x.wav' leads from the scene directory
        shutil.copy(scene_dir / "est_1.wav", tmp_path / "x.wav")
        edited = edit(scene_dir)
        reads = recorded_reads(monkeypatch)
        assert run_main(tmp_path, config, command) == code
        assert all(in_dir(p, scene_dir) for p in reads)
        if code == cli.EXIT_INPUT:
            err = capsys.readouterr().err
            assert str(edited) in err and "scene_0001" not in err
        else:
            record = json.loads((scene_dir.parents[1] / "report.jsonl").read_text())
            assert record["flags"] == json.loads(edited.read_text())
            for key in ("input_db", "output_db", "assignment"):
                assert record[key] == scored[key]

    @pytest.mark.parametrize("offset, value", [(23, 86), (33, 95), (51, 21)],
                             ids=["channels", "block-align", "data-chunk-id"])
    def test_mixture_header_byte_exit_code(self, offset, value, tmp_path, capsys):
        """One changed header byte of mixture.wav that scipy's reader fails on
        in its own code (a ZeroDivisionError, a TypeError, and after a skipped
        chunk an UnboundLocalError) makes separate exit 3 naming the file."""
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        path = tmp_path / "out" / "scenes" / "scene_0000" / "mixture.wav"
        wav = bytearray(path.read_bytes())
        wav[offset] = value
        path.write_bytes(bytes(wav))
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {path}: ")

    def test_truncated_mixture_exit_code(self, tmp_path, capsys):
        """mixture.wav cut short by whole sample frames still parses, but its
        RIFF size promises the lost bytes: separate exits 3 naming the file."""
        manifest = write_manifest(tmp_path, num_scenes=1)  # 4 float32 channels
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        path = tmp_path / "out" / "scenes" / "scene_0000" / "mixture.wav"
        path.write_bytes(path.read_bytes()[:-10 * 4 * 4])
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {path}: Reached EOF")

    def test_truncated_mixture_message_is_one_line(self, tmp_path, capsys):
        """The input error of a mixture.wav cut by 10 frames is one line that
        names the file and the bytes it lacks, and the scene's suffix follows
        the reader's message with no stray period."""
        manifest = write_manifest(tmp_path, num_scenes=1)  # 4 float32 channels
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        path = tmp_path / "out" / "scenes" / "scene_0000" / "mixture.wav"
        path.write_bytes(path.read_bytes()[:-10 * 4 * 4])
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT
        (line,) = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("input error:")]
        assert f"{path}: " in line and "runs 160 bytes past the end" in line
        assert ".," not in line

    def test_nan_beside_the_reference_row_exit_code(self, tmp_path, capsys):
        """separate and evaluate decode only the reference row of source_1.wav,
        but a NaN in another of its channels still fails both, naming it."""
        manifest = write_manifest(tmp_path, num_scenes=1)  # reference mic 0 of 4
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"

        def nan_in_channel_2(rate, data):
            data = data.copy()
            data[len(data) // 2, 2] = np.nan
            return rate, data

        path = edit_wav("source_1.wav", nan_in_channel_2)(scene_dir)
        for command in ("evaluate", "separate"):  # separate deletes the estimates first
            assert run_main(tmp_path, config, command) == cli.EXIT_INPUT
            assert f"{path}: waveform contains NaN or Inf samples" in capsys.readouterr().err

    def test_nan_beside_the_reference_row_of_the_mixture_exit_code(self, tmp_path, capsys):
        """masking separate decodes only the reference row of mixture.wav, but
        a NaN in another of its channels still fails it, naming the file."""
        manifest = write_manifest(tmp_path, num_scenes=1)  # reference mic 0 of 4
        config = base_config(manifest, tmp_path / "out", separator={"method": "masking"})
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"

        def nan_in_channel_2(rate, data):
            data = data.copy()
            data[len(data) // 2, 2] = np.nan
            return rate, data

        path = edit_wav("mixture.wav", nan_in_channel_2)(scene_dir)
        assert run_main(tmp_path, config, "separate") == cli.EXIT_INPUT
        assert f"{path}: waveform contains NaN or Inf samples" in capsys.readouterr().err

    def test_scene_json_read_once_per_scene_per_stage(self, tmp_path, monkeypatch):
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out", command="simulate")
        cli.run(config)
        scene_files = sorted((tmp_path / "out" / "scenes").glob("*/scene.json"))
        read_json = cli._read_json
        for stage in (cli.cmd_separate, cli.cmd_evaluate):
            reads = []

            def recording_read_json(path, *args):
                reads.append(Path(path))
                return read_json(path, *args)

            monkeypatch.setattr(cli, "_read_json", recording_read_json)
            stage(config)
            assert sorted(p for p in reads if p.name == "scene.json") == scene_files


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

    def test_overflowing_mixture_exit_code(self, tmp_path, capsys):
        """A finite float64 mixture too loud for the covariances exits 4 naming
        the mixture, and leaves no estimate or flags.json of the earlier run."""
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.run(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        edit_wav("mixture.wav", lambda rate, data: (rate, data.astype(np.float64) * 1e160))(
            scene_dir)
        assert run_main(tmp_path, config, "separate") == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: non-finite spatial covariance" in err
        assert str(scene_dir / "mixture.wav") in err
        assert not list(scene_dir.glob("est_*.wav")) and not (scene_dir / "flags.json").exists()

    def test_estimate_beyond_float32_exit_code(self, tmp_path, capsys):
        """A float64 mixture whose covariances stay finite but whose estimates
        lie beyond float32 exits 4 naming the mixture, and writes nothing."""
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        cli.run(config)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        edit_wav("mixture.wav", lambda rate, data: (rate, data.astype(np.float64) * 1e150))(
            scene_dir)
        assert run_main(tmp_path, config, "separate") == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: est_1.wav: samples beyond the float32 range" in err
        assert f"separating {scene_dir / 'mixture.wav'}" in err
        assert not list(scene_dir.glob("est_*.wav")) and not (scene_dir / "flags.json").exists()

    @pytest.mark.parametrize("stage", ["render", "separate"])
    def test_memory_error_is_an_input_error(self, stage, tmp_path, monkeypatch, capsys):
        def out_of_memory(*args):
            raise MemoryError

        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out", jobs=1)
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        if stage == "render":
            monkeypatch.setattr(simulate, "render_scene", out_of_memory)
            named = f"scene manifest {manifest}: scene 'scene_0000': out of memory"
        else:
            assert run_main(tmp_path, config, "simulate") == cli.EXIT_OK
            monkeypatch.setattr(beamform, "separate_mvdr", out_of_memory)
            named = f"out of memory, separating {scene_dir / 'mixture.wav'}"
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_INPUT
        assert f"input error: {named}" in capsys.readouterr().err
        assert not list(scene_dir.glob("est_*.wav")) and not (scene_dir / "flags.json").exists()

    @pytest.mark.parametrize("command, module, name, error, message", [
        ("separate", audio_io, "read_wav", MemoryError(), "out of memory"),
        ("evaluate", audio_io, "read_wav", MemoryError(), "out of memory"),
        ("separate", beamform, "separate_mvdr", cli.InputError("no mask mass"), "no mask mass"),
    ], ids=["separate-reading", "evaluate-reading", "separator-input-error"])
    def test_stage_failure_names_the_scene(self, command, module, name, error, message,
                                           tmp_path, monkeypatch, capsys):
        def failing(*args):
            raise error

        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out", jobs=1)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        monkeypatch.setattr(module, name, failing)
        assert run_main(tmp_path, config, command) == cli.EXIT_INPUT
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        where = (f"separating {scene_dir / 'mixture.wav'}" if command == "separate"
                 else f"scoring {scene_dir}")
        assert capsys.readouterr().err == f"input error: {message}, {where}\n"

    def test_parallel_jobs_match_serial(self, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        serial = base_config(manifest, tmp_path / "serial", jobs=1)
        parallel = base_config(manifest, tmp_path / "parallel", jobs=3)
        rep_a = cli.run(serial)
        rep_b = cli.run(parallel)
        for ra, rb in zip(rep_a["records"], rep_b["records"]):
            assert ra["scene_id"] == rb["scene_id"]
            assert ra["output_db"] == rb["output_db"]


# cli's separate task as it defines it, for the tests that patch it
SEPARATE_ONE = cli._separate_one


def _pool_blas_threads(_):
    """The thread count of every bundled OpenBLAS in the process that runs this task."""
    return [get() for get, _ in cli._bundled_openblas()]


def _separate_recording_blas_threads(arg):
    """cli's separate task, which also writes the thread count of every bundled
    OpenBLAS in the process that runs it to the scene's blas_threads.json."""
    SEPARATE_ONE(arg)
    (arg[0] / "blas_threads.json").write_text(json.dumps(_pool_blas_threads(None)))


def _separate_or_die(arg):
    """cli's separate task, except that the worker given scene_0001 dies, as
    one the kernel's OOM killer ends."""
    if arg[0].name == "scene_0001":
        os._exit(137)
    SEPARATE_ONE(arg)


def _second_allocation_faults(_):
    """Minor page faults of this process while it makes, writes and frees a
    20 MiB array for the second time."""
    def touch_and_free():
        np.ones((20 << 20) // 8)

    touch_and_free()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    touch_and_free()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


# `sepfront *argv` with cli's evaluate task failing unless scipy.linalg is
# loaded when it starts and scipy.fft is not when it ends, and the run failing
# if it loaded scipy.fft; the wrapper takes the task's name, so the pool sends
# it by that name
EVALUATE_WITH_SCIPY_LOADED = """
import functools
import sys

from sepfront import cli

evaluate_one = cli._evaluate_one


@functools.wraps(evaluate_one)
def checked(arg):
    if "scipy.linalg" not in sys.modules:
        raise RuntimeError("a CI-SDR scene task started before scipy.linalg was imported")
    record = evaluate_one(arg)
    if "scipy.fft" in sys.modules:
        raise RuntimeError("a CI-SDR scene task loaded scipy.fft")
    return record


cli._evaluate_one = checked
code = cli.main(sys.argv[1:])
if "scipy.fft" in sys.modules:
    sys.exit("the run loaded scipy.fft")
sys.exit(code)
"""

# `sepfront *argv` in a process whose files may not grow past argv[1] bytes;
# CPython ignores SIGXFSZ, so a write past the limit fails with EFBIG
RUN_WITH_FILE_SIZE_LIMIT = """
import resource
import sys

from sepfront import cli

_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))
sys.exit(cli.main(sys.argv[2:]))
"""


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
    """(get, set) of every bundled OpenBLAS; their thread counts are put back
    after the test."""
    copies = cli._bundled_openblas()
    if not copies:
        pytest.skip("neither numpy nor scipy ships an OpenBLAS")
    before = [get() for get, _ in copies]
    yield copies
    for (_, set_), count in zip(copies, before):
        set_(count)


def set_threads(copies, count):
    for _, set_ in copies:
        set_(count)


def threads(copies):
    return [get() for get, _ in copies]


def worker_share(jobs):
    return max(1, len(os.sched_getaffinity(0)) // jobs)


def outputs_of(out_dir):
    """{path under out_dir: bytes} of a run's estimates and flags, and its
    report.jsonl records without their timing."""
    outputs = {p.relative_to(out_dir): p.read_bytes()
               for pattern in ("scenes/*/est_*.wav", "scenes/*/flags.json")
               for p in sorted(out_dir.glob(pattern))}
    records = [json.loads(line) for line in (out_dir / "report.jsonl").read_text().splitlines()]
    for record in records:
        del record["timing_s"]
    return outputs, records


class TestStageLineage:
    """Every stage takes its scenes from scene_manifest, and a render deletes
    the scene's separation, so no stage scores what an earlier run left."""

    def test_rerendered_scene_is_not_scored_with_old_estimates(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        content = json.loads(manifest.read_text())
        for scene in content["scenes"]:
            scene.update(seed=777, sources=scene["sources"][::-1],
                         noise={"kind": "white_gaussian", "snr_db": 0.0})
        manifest.write_text(json.dumps(content))
        assert run_main(tmp_path, config, "simulate") == cli.EXIT_OK
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        assert not list(scene_dir.glob("est_*.wav"))
        assert run_main(tmp_path, config, "evaluate") == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{scene_dir / 'flags.json'}; run separate first" in err

    def test_standalone_evaluate_scores_only_its_manifest_scenes(self, tmp_path):
        first = write_manifest(tmp_path / "a", num_scenes=2)
        second = write_manifest(tmp_path / "b", num_scenes=1)
        content = json.loads(second.read_text())
        content["scenes"][0]["id"] = "other_0000"
        second.write_text(json.dumps(content))
        out = tmp_path / "out"
        for manifest in (first, second):
            assert cli.main(["--command", "run-all", "--scene-manifest", str(manifest),
                             "--output-dir", str(out)]) == cli.EXIT_OK
        assert cli.main(["--command", "evaluate", "--scene-manifest", str(second),
                         "--output-dir", str(out)]) == cli.EXIT_OK
        records = (out / "report.jsonl").read_text().splitlines()
        assert [json.loads(line)["scene_id"] for line in records] == ["other_0000"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stages_one_by_one_write_what_run_all_writes(self, jobs, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=2)
        staged = base_config(manifest, tmp_path / "staged", jobs=jobs)
        for command in ("simulate", "separate", "evaluate"):
            assert run_main(tmp_path, staged, command) == cli.EXIT_OK
        assert run_main(tmp_path, base_config(manifest, tmp_path / "all", jobs=jobs),
                        "run-all") == cli.EXIT_OK
        outputs, records = outputs_of(tmp_path / "staged")
        assert len(outputs) == 2 * 3 and len(records) == 2
        assert (outputs, records) == outputs_of(tmp_path / "all")

    def test_failed_evaluate_leaves_no_report(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert len(list((tmp_path / "out").glob("report.*"))) == 3
        missing = tmp_path / "out" / "scenes" / "scene_0001" / "est_1.wav"
        missing.unlink()
        assert run_main(tmp_path, config, "evaluate") == cli.EXIT_INPUT
        assert str(missing) in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("report.*"))

    @pytest.mark.parametrize("command", ["simulate", "separate"])
    def test_stage_deletes_the_reports_it_outdates(self, command, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert len(list((tmp_path / "out").glob("report.*"))) == 3
        assert run_main(tmp_path, config, command) == cli.EXIT_OK
        assert not list((tmp_path / "out").glob("report.*"))

    def test_failed_write_names_its_file_and_leaves_no_render(self, tmp_path):
        """A run-all over a scene rendered before, in a child that may write
        no file past 100 kB, fails writing the 128 kB mixture.wav. The error
        names it, and neither the first render's scene.json nor the first
        run's reports are left. The limit is set in the child only."""
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        scene_dir = tmp_path / "out" / "scenes" / "scene_0000"
        assert (scene_dir / "mixture.wav").stat().st_size > 100_000
        child = fresh_python(RUN_WITH_FILE_SIZE_LIMIT, 100_000, "--command", "run-all",
                             "--scene-manifest", manifest, "--output-dir", tmp_path / "out")
        assert child.returncode == cli.EXIT_INPUT, child.stderr
        assert f"{scene_dir / 'mixture.wav'}: " in child.stderr
        assert "Traceback" not in child.stderr
        assert not (scene_dir / "scene.json").exists()
        assert not list((tmp_path / "out").glob("report.*"))

    @pytest.mark.parametrize("command", ["separate", "evaluate"])
    def test_stage_without_manifest_exit_code(self, command, tmp_path, capsys):
        code = cli.main(["--command", command, "--output-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert f"{command} requires scene_manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["separate", "evaluate"])
    def test_unrendered_scene_names_the_missing_step(self, command, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=1)
        config = base_config(manifest, tmp_path / "out")
        assert run_main(tmp_path, config, command) == cli.EXIT_INPUT
        missing = tmp_path / "out" / "scenes" / "scene_0000" / "scene.json"
        assert f"{missing}; run simulate first" in capsys.readouterr().err


class TestScenePool:
    @pytest.mark.parametrize("jobs, expected", [(1, []), (2, [2])])
    def test_one_pool_per_run(self, jobs, expected, pools, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        config = base_config(manifest, tmp_path / "out", jobs=jobs)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert pools == expected
        assert len((tmp_path / "out" / "report.jsonl").read_text().splitlines()) == 3

    def test_bare_stage_runs_in_its_own_pool(self, pools, tmp_path):
        """A standalone stage command gets the run's one pool; a bare cmd_*
        call maps its scenes in process."""
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out", jobs=2)
        assert run_main(tmp_path, config, "simulate") == cli.EXIT_OK
        assert pools == [2]
        cli.cmd_simulate(config)
        assert pools == [2]

    def test_pool_has_no_more_workers_than_scenes(self, pools, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=3)
        config = base_config(manifest, tmp_path / "out", jobs=4)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert pools == [3]

    @pytest.mark.parametrize("jobs, workers", [(1, []), (2, [2])])
    def test_scene_tasks_run_at_one_blas_thread(self, jobs, workers, openblas, pools,
                                                monkeypatch, tmp_path):
        """In process or in a pool worker, every scene task runs with each
        bundled OpenBLAS at one thread, and the caller gets its own counts back."""
        monkeypatch.setattr(cli, "_separate_one", _separate_recording_blas_threads)
        set_threads(openblas, 2)
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out", jobs=jobs)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert pools == workers
        seen = [json.loads(path.read_text()) for path
                in sorted((tmp_path / "out" / "scenes").glob("*/blas_threads.json"))]
        assert seen == [[1] * len(openblas)] * 2
        assert threads(openblas) == [2] * len(openblas)

    @pytest.mark.parametrize("bad_scene", [False, True], ids=["ok", "stage-raises"])
    def test_caller_blas_threads_restored_at_jobs_1(self, bad_scene, openblas, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=2)
        if bad_scene:
            content = json.loads(manifest.read_text())
            content["scenes"][1]["reference_mic"] = 9
            manifest.write_text(json.dumps(content))
        set_threads(openblas, 2)
        config = base_config(manifest, tmp_path / "out", jobs=1)
        expected = cli.EXIT_INPUT if bad_scene else cli.EXIT_OK
        assert run_main(tmp_path, config, "run-all") == expected
        assert threads(openblas) == [2] * len(openblas)

    @pytest.mark.parametrize("bad_scene", [False, True], ids=["ok", "stage-raises"])
    def test_parent_blas_threads_restored(self, bad_scene, openblas, pools, tmp_path, capsys):
        manifest = write_manifest(tmp_path, num_scenes=3)
        if bad_scene:
            content = json.loads(manifest.read_text())
            content["scenes"][2]["reference_mic"] = 9
            manifest.write_text(json.dumps(content))
        parent = worker_share(2) + 1
        set_threads(openblas, parent)
        config = base_config(manifest, tmp_path / "out", jobs=2)
        expected = cli.EXIT_INPUT if bad_scene else cli.EXIT_OK
        assert run_main(tmp_path, config, "run-all") == expected
        assert pools == [2]
        assert threads(openblas) == [parent] * len(openblas)
        if bad_scene:
            assert "'scene_0002'" in capsys.readouterr().err

    def test_dead_worker_exit_code(self, pools, monkeypatch, tmp_path, capsys):
        """A worker that dies mid-stage ends the run in exit 3, naming the
        stage and the scene, and its scene gets no flags.json."""
        monkeypatch.setattr(cli, "_separate_one", _separate_or_die)
        copies = cli._bundled_openblas()
        before = threads(copies)
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out", jobs=2)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_INPUT
        assert pools == [2]
        err = capsys.readouterr().err
        assert err.startswith("input error: a scene worker died (killed, or out of memory) "
                              "while separate ran scene(s) ")
        assert "'scene_0001'" in err
        assert not (tmp_path / "out" / "scenes" / "scene_0001" / "flags.json").exists()
        assert threads(copies) == before

    def test_runs_without_openblas(self, monkeypatch, pools, tmp_path):
        monkeypatch.setattr(cli, "_bundled_openblas", lambda: [])
        manifest = write_manifest(tmp_path, num_scenes=3)
        config = base_config(manifest, tmp_path / "out", jobs=2)
        assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
        assert pools == [2]
        assert len((tmp_path / "out" / "report.jsonl").read_text().splitlines()) == 3

    def test_bundled_openblas_copies_are_found(self):
        """Each OpenBLAS bundled in numpy's or scipy's wheel must expose its
        thread functions under a name the locator knows, or --jobs loses its
        cap on that copy."""
        bundled = [path for wheel in (np, scipy)
                   for path in (Path(wheel.__file__).parent.parent / f"{wheel.__name__}.libs")
                   .glob("*openblas*.so*")]
        if not bundled:
            pytest.skip("neither numpy nor scipy ships a bundled OpenBLAS")
        copies = cli._bundled_openblas()
        assert len(copies) == len(bundled)
        assert all(count >= 1 for count in threads(copies))

    def test_workers_keep_their_heap(self):
        """A pool worker reuses the pages of a freed scene-sized array rather
        than fault in fresh ones (about 1000 faults for 20 MiB without)."""
        if getattr(ctypes.CDLL(None), "mallopt", None) is None:
            pytest.skip("libc has no mallopt")
        with cli._scene_pool(2) as scene_map:
            faults = scene_map(_second_allocation_faults, range(2))
        assert max(faults) < 100

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_main_keeps_its_heap_once_per_call(self, jobs, kept_heaps, tmp_path):
        manifest = write_manifest(tmp_path, num_scenes=2)
        config = base_config(manifest, tmp_path / "out", jobs=jobs)
        for calls in (1, 2):
            assert run_main(tmp_path, config, "run-all") == cli.EXIT_OK
            assert len(kept_heaps) == calls
        cli.run(config)  # run, like the library, leaves the allocator to its caller
        assert len(kept_heaps) == 2

    def test_keep_heap_without_mallopt_does_nothing(self, monkeypatch):
        def no_libc(name):
            raise OSError("no libc here")

        for cdll in (no_libc, lambda name: object()):
            monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
            assert cli._keep_heap() is None

    @pytest.mark.parametrize("returns, calls", [(1, 2), (0, 1)], ids=["taken", "refused"])
    def test_keep_heap_sets_trim_only_after_mmap(self, returns, calls, monkeypatch):
        """A refused mmap threshold leaves the trim threshold alone: either
        setting by itself faults more than neither."""
        made = []

        def mallopt(param, value):
            made.append((param, value))
            return returns

        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli._keep_heap()
        assert made == [(cli.M_MMAP_THRESHOLD, 32 << 20),
                        (cli.M_TRIM_THRESHOLD, 512 << 20)][:calls]

    def test_jobs_give_identical_outputs_on_pilot_scenes(self, tmp_path):
        manifest = pilot_suite.write_cli_suite(tmp_path / "in", num_scenes=2)
        for method, metric in (("mvdr", "si_sdr"), ("masking", "ci_sdr")):
            outputs, reports = {}, {}
            for jobs in (1, 2):
                out_dir = tmp_path / f"{method}-jobs{jobs}"
                config = base_config(manifest, out_dir, jobs=jobs,
                                     separator={"method": method}, metric={"name": metric})
                reports[jobs] = cli.run(config)["records"]
                outputs[jobs] = {
                    p.relative_to(out_dir): p.read_bytes()
                    for pattern in ("scenes/*/est_*.wav", "scenes/*/flags.json")
                    for p in sorted(out_dir.glob(pattern))
                }
            assert len(outputs[1]) == 2 * 3
            assert outputs[1] == outputs[2]
            for serial, parallel in zip(reports[1], reports[2]):
                assert serial["scene_id"] == parallel["scene_id"]
                for key in ("input_db", "output_db"):
                    assert serial[key] == parallel[key]

    def test_ci_sdr_reports_equal_at_any_jobs(self, tmp_path):
        """CI-SDR's Cholesky follows the BLAS thread count, which is one for
        every scene task, so a masking run-all scores the same at any jobs."""
        manifest = pilot_suite.write_cli_suite(tmp_path / "in", num_scenes=4)
        runs = []
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            cli.run(base_config(manifest, out_dir, jobs=jobs,
                                separator={"method": "masking"}, metric={"name": "ci_sdr"}))
            runs.append(outputs_of(out_dir))
        assert len(runs[0][1]) == 4
        assert runs[0] == runs[1]

    def test_ci_sdr_scene_tasks_start_with_scipy_loaded(self, tmp_path):
        """In a fresh interpreter a CI-SDR run-all has imported scipy.linalg
        before its first scene task starts, in the pool's workers too, never
        loads scipy.fft, and scores the same at any jobs. pytest's own process
        has loaded both already, so only a fresh one shows them."""
        manifest = pilot_suite.write_cli_suite(tmp_path / "in", num_scenes=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"separator": {"method": "masking"},
                                      "metric": {"name": "ci_sdr"}}))
        runs = []
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            child = fresh_python(EVALUATE_WITH_SCIPY_LOADED, "--config", config,
                                 "--scene-manifest", manifest, "--output-dir", out_dir,
                                 "--jobs", jobs)
            assert child.returncode == cli.EXIT_OK, child.stderr
            runs.append(outputs_of(out_dir))
        assert len(runs[0][1]) == 2
        assert runs[0] == runs[1]

    def test_si_sdr_reports_equal_at_any_jobs(self, tmp_path):
        """SI-SDR makes no BLAS call, and run sets one BLAS thread for every
        scene task, so an MVDR run-all scores the same at any jobs."""
        manifest = pilot_suite.write_cli_suite(tmp_path / "in", num_scenes=3)
        records = {}
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            cli.run(base_config(manifest, out_dir, jobs=jobs,
                                separator={"method": "mvdr"}, metric={"name": "si_sdr"}))
            lines = (out_dir / "report.jsonl").read_text().splitlines()
            records[jobs] = [{key: value for key, value in json.loads(line).items()
                              if key != "timing_s"} for line in lines]
        assert len(records[1]) == 3
        assert records[1] == records[2]
