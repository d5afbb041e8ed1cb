"""Command-line pipeline: simulate, separate, evaluate, run-all.

The CLI is a thin shell over the library API: every numeric output equals the
corresponding in-memory composition on the same inputs. Every stage takes its
scenes from the scene manifest, in canonical (sorted id) order, and all
randomness is seeded, so identical configs produce identical outputs.
"""

import argparse
import contextlib
import copy
import ctypes
import functools
import importlib.util
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__, audio_io, beamform, masks, metrics, simulate
from .dsp import MultichannelWaveform, StftConfig, stft  # noqa: F401  (perfbench traces cli.stft)
from .errors import ConfigurationError, InputError, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

DEFAULT_CONFIG = {
    "command": "run-all",
    "scene_manifest": None,
    "output_dir": "out",
    "seed": 0,
    "jobs": 1,
    "wav_format": "float32",
    "stft": {"window_length": 512, "hop": 128, "fft_size": 512},
    "separator": {"method": "mvdr", "mask_oracle_kind": "irm", "mask_import_dir": None},
    "metric": {"name": "si_sdr", "ci_sdr_taps": 512},
}

COMMANDS = ("simulate", "separate", "evaluate", "run-all")

SEPARATION_METHODS = ("mvdr", "masking")

# what evaluate writes in output_dir
REPORT_FILES = ("report.jsonl", "report.json", "report.txt")


class _Key:
    """One schema entry: the JSON types a value may take, whether its key is
    required, and a (test, description) rule the value must pass. An object
    value's keys follow keys, a dict of entries; a list value's items follow
    the entry items. A bare dict in place of an entry is an object's keys."""

    def __init__(self, *types, required=False, rule=None, keys=None, items=None):
        self.types, self.required, self.rule = types, required, rule
        self.keys, self.items = keys, items


def _one_of(choices):
    return (lambda value: value in choices), f"one of {', '.join(choices)}"


# the most scene workers a run may fork; a larger jobs is a slip, not a core
# count, and would ask the system for that many processes
MAX_JOBS = 256

_AT_LEAST_0 = (lambda value: value >= 0), ">= 0"
_ABOVE_0 = (lambda value: value > 0), "> 0"
_NON_EMPTY = (lambda value: len(value) > 0), "non-empty"
# CI-SDR factors a (taps, taps + 1) float64 Gram buffer per reference: 134 MB
# at this bound, 8 times the default 512 taps
MAX_CI_SDR_TAPS = 4096
# load_config builds the STFT window, so an absurd size fails here, not in
# the allocation; a null fft_size means the window length
_STFT_SIZE = (lambda value: value is None or value <= 1 << 16), "<= 65536"

# every key a config may set, with its JSON types and its choices or bound;
# a section is the schema of its object
CONFIG_SCHEMA = {
    "command": _Key(str, rule=_one_of(COMMANDS)),
    "scene_manifest": _Key(str, type(None)),
    "output_dir": _Key(str),
    "seed": _Key(int, rule=_AT_LEAST_0),
    "jobs": _Key(int, rule=((lambda value: 1 <= value <= MAX_JOBS), f"in 1..{MAX_JOBS}")),
    "wav_format": _Key(str, rule=_one_of(audio_io.WAV_FORMATS)),
    "stft": {"window_length": _Key(int, rule=_STFT_SIZE), "hop": _Key(int),
             "fft_size": _Key(int, type(None), rule=_STFT_SIZE)},
    "separator": {"method": _Key(str, rule=_one_of(SEPARATION_METHODS)),
                  "mask_oracle_kind": _Key(str, rule=_one_of(masks.MASK_KINDS)),
                  "mask_import_dir": _Key(str, type(None))},
    "metric": {"name": _Key(str, rule=_one_of(metrics.METRIC_FUNCTIONS)),
               "ci_sdr_taps": _Key(int, rule=((lambda value: value <= MAX_CI_SDR_TAPS),
                                              f"<= {MAX_CI_SDR_TAPS}"))},
}

# the array geometry of a manifest, or of a scene that overrides it
_GEOMETRY = {
    "mic_positions": _Key(list, required=True, rule=_NON_EMPTY,
                          items=_Key(list, rule=((lambda row: len(row) == 3), "an [x, y, z] list"),
                                     items=_Key(int, float))),
    "speed_of_sound": _Key(int, float, rule=_ABOVE_0),
}

# every key a scene manifest may set. A scene's id names its directory under
# output_dir/scenes, so it is one path component. A noise snr_db beyond
# +-300 dB has no finite, non-zero noise scale left in float64's range.
MANIFEST_SCHEMA = {
    "sample_rate": _Key(int, rule=_ABOVE_0),
    "geometry": _Key(dict, required=True, keys=_GEOMETRY),
    "scenes": _Key(list, required=True, rule=_NON_EMPTY, items={
        "id": _Key(str, required=True, rule=(
            (lambda i: i not in ("", ".", "..") and not any(c in i for c in "/\\\0")),
            "one path component")),
        "seed": _Key(int, rule=_AT_LEAST_0),
        "reference_mic": _Key(int),
        "sample_rate": _Key(int, rule=_ABOVE_0),
        "geometry": _GEOMETRY,
        "sources": _Key(list, required=True, rule=(
            (lambda sources: len(sources) > 0 and all(type(s) is dict for s in sources)),
            "a list of at least one source object"), items={
                "path": _Key(str, required=True), "azimuth": _Key(int, float, required=True),
                "elevation": _Key(int, float), "gain": _Key(int, float)}),
        "noise": _Key(dict, type(None), rule=(
            (lambda noise: noise is None or noise.get("kind") != "file" or "path" in noise),
            "an object with a 'path' when its kind is 'file'"), keys={
                "kind": _Key(str, required=True, rule=_one_of(simulate.NOISE_KINDS)),
                "snr_db": _Key(int, float, required=True,
                               rule=((lambda db: abs(db) <= 300), "within +-300 dB")),
                "path": _Key(str)}),
    }),
}

# every key of the scene.json that simulate writes beside a scene's WAVs; the
# keys a later stage reads are required
SCENE_SCHEMA = {
    "seed": _Key(int, rule=_AT_LEAST_0),
    "sample_rate": _Key(int, required=True, rule=_ABOVE_0),
    "reference_mic": _Key(int, required=True, rule=_AT_LEAST_0),
    **_GEOMETRY,
    "sources": _Key(list, required=True, rule=_NON_EMPTY, items={
        "azimuth": _Key(int, float), "elevation": _Key(int, float), "gain": _Key(int, float),
        "delays_s": _Key(list, items=_Key(int, float))}),
    "noise": _Key(dict, type(None), keys={
        "kind": _Key(str, rule=_one_of(simulate.NOISE_KINDS)), "snr_db": _Key(int, float)}),
}

# JSON names of the types a schema entry lists
_JSON_NAMES = {dict: "object", type(None): "null", float: "finite float"}

# thread-count functions of the OpenBLAS copies bundled in numpy's and
# scipy's wheels, newest naming first
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# glibc's mallopt parameters (malloc.h) and the values a scene worker keeps
# its heap with: 32 MiB is the largest mmap threshold glibc takes on 64-bit
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
WORKER_MALLOPT = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 512 << 20))


def load_config(path=None, overrides=None):
    """Merge defaults, optional config file, and CLI flag overrides.

    The merged config is checked against CONFIG_SCHEMA and the STFT and metric
    configs are built, so a bad key or value fails here, before any stage runs.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    where = "config" if path is None else f"config file {path}"
    user = {} if path is None else _read_json(path, "config file", ConfigurationError)
    for key, value in user.items():
        if isinstance(config.get(key), dict) and isinstance(value, dict):
            config[key].update(value)
        else:
            config[key] = value
    for key, value in (overrides or {}).items():
        if value is not None:
            config[key] = value
    _check(config, CONFIG_SCHEMA, "", where, ConfigurationError)
    for name, build in (("stft", _stft_config), ("metric", _metric_config)):
        try:
            build(config)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {name!r}: {exc}") from exc
    return config


def _read_json(path, what, error, step=None):
    """The JSON object in the file at path; what names the file in errors, and
    step the stage that writes it, for the error when it is missing."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            document = json.load(f)
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}" + (f"; run {step} first" if step else "")) from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    except MemoryError as exc:
        raise error(f"{what} {path}: out of memory") from exc
    if not isinstance(document, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return document


def _write_text(path, text):
    """Write text to the file at path; a failed write is an InputError that
    names the file."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _check(value, spec, name, where, error):
    """Check a JSON value, found under the dotted key name, against its schema
    entry, and everything it holds against theirs. The first failure raises
    error naming where, the key and, inside a scene, the scene's id."""
    if isinstance(spec, dict):
        spec = _Key(dict, keys=spec)
    # a bool is not a number, and a number must fit a finite float
    if type(value) not in spec.types or (float in spec.types
                                         and not abs(value) <= sys.float_info.max):
        types = " or ".join(_JSON_NAMES.get(t, t.__name__) for t in spec.types)
        raise error(f"{where}: {name!r} must be {types}, got {value!r}")
    if spec.rule and not spec.rule[0](value):
        raise error(f"{where}: {name!r} must be {spec.rule[1]}, got {value!r}")
    if isinstance(value, dict):
        if "id" in spec.keys and type(value.get("id")) is str:  # a scene, named by its id
            where, name = f"{where}: scene {value['id']!r}", ""
        prefix, owner = (f"{name}.", f"{where}: {name!r}") if name else ("", where)
        for key in value:
            if key not in spec.keys:
                raise error(f"{where}: unknown key {prefix + key!r}")
        for key, entry in spec.keys.items():
            if key in value:
                _check(value[key], entry, prefix + key, where, error)
            elif getattr(entry, "required", False):
                raise error(f"{owner} is missing key {key!r}")
    for i, item in enumerate(value if isinstance(value, list) else ()):
        _check(item, spec.items, f"{name}[{i}]", where, error)


def _stft_config(config):
    return StftConfig(**config["stft"])


def _metric_config(config):
    return metrics.MetricConfig(ci_sdr_taps=config["metric"]["ci_sdr_taps"])


def load_manifest(path):
    """Read a scene manifest and check all of it against MANIFEST_SCHEMA.

    Scene ids must also be unique, since each names its scene's directory. A
    bad key or value in any scene fails here, before anything is written.
    """
    manifest = _read_json(path, "scene manifest", InputError)
    where = f"scene manifest {path}"
    _check(manifest, MANIFEST_SCHEMA, "", where, InputError)
    for scene_id, count in Counter(scene["id"] for scene in manifest["scenes"]).items():
        if count > 1:
            raise InputError(f"{where}: scene id {scene_id!r} is used more than once")
    return manifest


def _scene_spec(scene, defaults, base_dir, global_seed):
    array = scene.get("geometry") or defaults["geometry"]
    geometry = simulate.ArrayGeometry(
        np.asarray(array["mic_positions"], dtype=np.float64),
        float(array.get("speed_of_sound", simulate.SPEED_OF_SOUND)),
    )
    sample_rate = int(scene.get("sample_rate", defaults.get("sample_rate", 16000)))
    sources = []
    for src in scene["sources"]:
        wav = _scene_wav(base_dir / src["path"], sample_rate, 1)
        sources.append(
            simulate.SourceSpec(
                dry_signal=wav.samples[0],
                azimuth=float(src["azimuth"]),
                elevation=float(src.get("elevation", 0.0)),
                gain=float(src.get("gain", 1.0)),
            )
        )
    noise = None
    if scene.get("noise"):
        entry = scene["noise"]
        noise_samples = None
        if entry["kind"] == "file":  # render_scene rules on its channels and length
            noise_samples = _scene_wav(base_dir / entry["path"], sample_rate).samples
        noise = simulate.NoiseSpec(
            snr_db=float(entry["snr_db"]), kind=entry["kind"], samples=noise_samples
        )
    return simulate.SceneSpec(
        sources=tuple(sources),
        geometry=geometry,
        sample_rate=sample_rate,
        noise=noise,
        reference_mic=int(scene.get("reference_mic", 0)),
        seed=int(scene.get("seed", global_seed)),
    )


def _run_scenes(config, stage):
    """(manifest, [(scene, its directory)]) of scene_manifest, in id order.
    Every stage maps over this list, so none touches a scene directory that
    the manifest does not name."""
    if not config["scene_manifest"]:
        raise ConfigurationError(f"{stage} requires scene_manifest")
    manifest = load_manifest(config["scene_manifest"])
    scenes_root = Path(config["output_dir"]) / "scenes"
    return manifest, [(scene, scenes_root / scene["id"])
                      for scene in sorted(manifest["scenes"], key=lambda s: s["id"])]


@contextlib.contextmanager
def _naming(before="", after=""):
    """Re-raise a failure of the block as the error of its exit code, 3 or 4,
    with before and after placed around its message."""
    try:
        yield
    except (ConfigurationError, InputError, OSError, MemoryError) as exc:
        raise InputError(f"{before}{str(exc) or 'out of memory'}{after}") from exc
    except (NumericalError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"{before}{exc}{after}") from exc


def _clear_separation(scene_dir):
    """Delete what separate wrote in the scene directory, so a flags.json
    there means that a complete separate ran after the scene's latest render."""
    for path in [*scene_dir.glob("est_*.wav"), scene_dir / "flags.json"]:
        path.unlink(missing_ok=True)


def _bundled_openblas():
    """[(get, set)] thread-count functions of each OpenBLAS bundled in
    numpy's and scipy's wheels; a wheel built against another BLAS adds none.
    scipy's package is found, not imported, so importing the CLI loads no
    part of scipy."""
    found = []
    for wheel in ("numpy", "scipy"):
        libs = Path(importlib.util.find_spec(wheel).origin).parent.parent / f"{wheel}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))  # the copy the wheel loaded, or loads later
            for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    found.append((get, set_))
                    break
    return found


def _keep_heap():
    """Keep the scene's arrays on the heap, and the heap in the process, from
    one scene to the next: the pool workers' initializer, and main's first
    step (as _keep_process_heap).

    By default glibc mmaps every array above its (adaptive) mmap threshold
    and trims the heap top after each scene, so a worker faults in about
    20 000 fresh pages per pilot scene: a 16-scene run-all at jobs 2 took
    316k minor faults, and 24.7k with both settings. Each alone is worse
    than neither (405k faults with the mmap threshold, 720k with the trim
    threshold), so the trim threshold is set only once the mmap threshold
    took. A jobs-1 run-all of 4 pilot scenes took 16.9k faults on the
    defaults. The process may afterwards hold up to the trim threshold,
    512 MiB, of freed heap. Where libc has no mallopt, or refuses a value,
    nothing changes; an initializer that raised would break the pool.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in WORKER_MALLOPT:
        if mallopt(param, value) == 0:
            return


# the call that keeps main's heap: its own name, so the tests can stub it
# and leave the test process's allocator, which the pool workers inherit, alone
_keep_process_heap = _keep_heap


@contextlib.contextmanager
def _one_blas_thread():
    """Every bundled OpenBLAS at one thread in the block, so each score is the same at any
    jobs; a pool forked in it inherits the count (set in a fresh worker, it spins a thread)."""
    restore = [(set_, get()) for get, set_ in _bundled_openblas()]
    for set_, _ in restore:
        set_(1)
    try:
        yield
    finally:
        for set_, previous in restore:
            set_(previous)


@contextlib.contextmanager
def _scene_pool(jobs):
    """Yield map(fn, items, stage) for the per-scene tasks of one run; each
    item leads with its scene's directory.

    With jobs > 1 every map of more than one item goes through one process
    pool of min(jobs, items) workers, started at the first such map and shut
    down when the block ends. Each worker keeps its heap between scenes
    (_keep_heap); the pool leaves the parent's allocator as it is. A worker
    that dies, as the kernel's OOM killer ends one, is an InputError naming
    the stage and the scenes left unfinished.
    """
    pool = None

    def scene_map(fn, items, stage="a stage"):
        nonlocal pool
        if jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                                       initializer=_keep_heap)
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            pool.shutdown(wait=False)
            pool = None
            lost = [repr(item[0].name) for item, future in zip(items, futures)
                    if isinstance(future.exception(), BrokenProcessPool)]
            more = ", ..." if len(lost) > 3 else ""
            raise InputError(f"a scene worker died (killed, or out of memory) while {stage} "
                             f"ran scene(s) {', '.join(lost[:3])}{more} "
                             f"({len(lost)} unfinished)") from exc

    try:
        yield scene_map
    finally:
        if pool is not None:  # a failed scene's stage leaves the rest unstarted
            pool.shutdown(cancel_futures=True)


def cmd_simulate(config, scene_map=map):
    """Render every manifest scene to WAV files under output_dir/scenes/<id>/;
    scene_map maps the per-scene tasks, in process unless run passes its pool."""
    manifest, scenes = _run_scenes(config, "simulate")
    Path(config["output_dir"], "scenes").mkdir(parents=True, exist_ok=True)
    # each task carries the manifest's defaults, not every scene of it
    defaults = {key: manifest[key] for key in ("geometry", "sample_rate") if key in manifest}
    # scenes without their own seed get a distinct deterministic one
    args = [(scene_dir, scene, defaults, config["scene_manifest"], config["seed"] + i,
             config["wav_format"]) for i, (scene, scene_dir) in enumerate(scenes)]
    list(scene_map(_simulate_one, args))


def _simulate_one(arg):
    scene_dir, scene, defaults, manifest_path, global_seed, fmt = arg
    with _naming(before=f"scene manifest {manifest_path}: scene {scene['id']!r}: "):
        spec = _scene_spec(scene, defaults, Path(manifest_path).parent, global_seed)
        rendered = simulate.render_scene(spec)
        ref_mic = spec.reference_mic
        # every file is checked as stored before the first write, the
        # mixture's range first; each waveform is encoded once, and its
        # float64 samples are let go as soon as it is
        names = ["mixture.wav", *(f"source_{k}.wav" for k in range(1, len(spec.sources) + 1)),
                 "noise.wav"]
        waveforms = [rendered.mixture, *rendered.source_images, rendered.noise_image]
        del rendered
        stored = []
        for name in names:  # popped, so nothing holds a waveform once it is encoded
            stored.append(audio_io.encode(waveforms.pop(0), fmt, f"{name}: "))
        for k, source in enumerate(stored[1:-1], start=1):
            # ci_sdr's energy test, which a row passes iff a stored sample is not 0
            if not np.any(source.data[ref_mic]):
                raise InputError(f"source {k} is silent at reference mic {ref_mic}")
        scene_dir.mkdir(exist_ok=True)
        # scene.json, written last, marks a complete render
        (scene_dir / "scene.json").unlink(missing_ok=True)
        _clear_separation(scene_dir)
        for name, waveform in zip(names, stored):
            audio_io.write_wav(scene_dir / name, waveform)
        # the record that _open_scene checks against SCENE_SCHEMA
        geometry, noise = spec.geometry, spec.noise
        record = {
            "sample_rate": spec.sample_rate, "reference_mic": ref_mic,
            "seed": spec.seed, "mic_positions": geometry.mic_positions.tolist(),
            "speed_of_sound": geometry.speed_of_sound,
            "sources": [{"azimuth": src.azimuth, "elevation": src.elevation, "gain": src.gain,
                         "delays_s": simulate.plane_wave_delays(
                             geometry, src.azimuth, src.elevation).tolist()}
                        for src in spec.sources],
            "noise": None if noise is None else {"kind": noise.kind, "snr_db": noise.snr_db},
        }
        _write_text(scene_dir / "scene.json", json.dumps(record, indent=2, sort_keys=True))


def _open_scene(scene_dir, reference_only=False):
    """(scene.json, mixture.wav) of a simulated scene, each read once and
    checked: the record against SCENE_SCHEMA with its reference_mic one of
    its mics, the mixture at the record's rate with one channel per mic. With
    reference_only, only the mixture's reference_mic row is decoded."""
    path = scene_dir / "scene.json"
    record = _read_json(path, "scene file", InputError, "simulate")
    _check(record, SCENE_SCHEMA, "", f"scene file {path}", InputError)
    num_mics = len(record["mic_positions"])
    if record["reference_mic"] >= num_mics:
        raise InputError(f"scene file {path}: 'reference_mic' must be below the scene's "
                         f"{num_mics} mics, got {record['reference_mic']}")
    rows = [record["reference_mic"]] if reference_only else None
    return record, _scene_wav(scene_dir / "mixture.wav", record["sample_rate"], num_mics,
                              rows=rows)


def _scene_wav(path, sample_rate, channels=None, length=None, rows=None):
    """The WAV file at path, which must hold channels x length samples (any
    count of either that is None) at sample_rate; of them only the channel
    indices rows are decoded, or every channel when rows is None."""
    wav = audio_io.read_wav(path, rows)
    found = (wav.file_channels, wav.num_samples, wav.sample_rate)
    wanted = (wav.file_channels if channels is None else channels,
              wav.num_samples if length is None else length, sample_rate)
    if found != wanted:
        raise InputError("{}: {} channels x {} samples at {} Hz, where the scene has "
                         "{} x {} at {} Hz".format(path, *found, *wanted))
    return wav


def load_scene_masks(scene_dir, config, stft_config):
    """Oracle masks at a simulated scene's reference mic, or imported masks."""
    record, mixture = _open_scene(scene_dir)
    return _scene_masks(scene_dir, config, stft_config, record, mixture,
                        record["reference_mic"])


def _scene_masks(scene_dir, config, stft_config, record, mixture, row):
    """The scene's masks for its mixture, in which the scene's reference mic
    is row row. An imported tensor holds one stream per source and at most
    one noise stream after them, each on the mixture's STFT grid; oracle
    masks come from the source images and the noise image, each with the
    mixture file's channels, length and rate."""
    sep = config["separator"]
    ref_mic = record["reference_mic"]
    if sep["mask_import_dir"]:
        path = Path(sep["mask_import_dir"]) / f"{scene_dir.name}.tns"
        mask_set = masks.MaskSet.load(path, len(record["sources"]))
        grid = (stft_config.num_frames(mixture.num_samples), stft_config.num_bins)
        if mask_set.masks.shape[1:] != grid:
            raise InputError(f"{path}: scene {scene_dir.name!r}: mask grid "
                             f"{mask_set.masks.shape[1:]} does not match the mixture's "
                             f"STFT grid {grid}")
        return mask_set

    # the masks see only the reference row of each image and of the mixture
    names = [*(f"source_{k}.wav" for k in range(1, len(record["sources"]) + 1)), "noise.wav"]
    images = [_scene_wav(scene_dir / name, mixture.sample_rate, mixture.file_channels,
                         mixture.num_samples, rows=[ref_mic]) for name in names]
    reference = MultichannelWaveform(mixture.channel(row), mixture.sample_rate)
    return masks.oracle_mask_from_waveforms(
        reference, images, sep["mask_oracle_kind"], stft_config, 0
    )


def cmd_separate(config, scene_map=map):
    """Write est_k.wav per speaker (plus a flags sidecar) for every manifest scene."""
    _, scenes = _run_scenes(config, "separate")
    stft_config = _stft_config(config)
    list(scene_map(_separate_one, [(d, config, stft_config) for _, d in scenes]))


def _separate_one(arg):
    scene_dir, config, stft_config = arg
    with _naming(after=f", separating {scene_dir / 'mixture.wav'}"):
        _clear_separation(scene_dir)
        method = config["separator"]["method"]
        # masking transforms only the reference row, so only it is decoded,
        # as the mixture's row 0
        reference_only = method == "masking"
        record, mixture = _open_scene(scene_dir, reference_only)
        ref_row = 0 if reference_only else record["reference_mic"]
        mask_set = _scene_masks(scene_dir, config, stft_config, record, mixture, ref_row)

        fmt = config["wav_format"]
        # looked up per call, so a patched module attribute is the one called;
        # load_config admits only SEPARATION_METHODS
        separate = beamform.separate_mvdr if method == "mvdr" else masks.separate_masking
        estimates, flags = separate(mixture, mask_set, stft_config, ref_row)
        try:  # all checked, as stored, before the first write
            stored = [audio_io.encode(est, fmt, f"est_{k}.wav: ")
                      for k, est in enumerate(estimates, start=1)]
        except InputError as exc:  # a sample beyond the float32 range
            raise NumericalError(str(exc)) from exc
        for k, est in enumerate(stored, start=1):
            audio_io.write_wav(scene_dir / f"est_{k}.wav", est)
        _write_text(scene_dir / "flags.json",
                    json.dumps({"method": method, "per_speaker": flags}, indent=2, sort_keys=True))


def cmd_evaluate(config, scene_map=map):
    """PIT-aligned scoring of every manifest scene; writes report files and
    returns the report."""
    _, scenes = _run_scenes(config, "evaluate")
    metric_name = config["metric"]["name"]
    metric_config = _metric_config(config)
    args = [(d, metric_name, metric_config) for _, d in scenes]
    records = list(scene_map(_evaluate_one, args))

    all_scores = [s for r in records for s in r["output_db"]]
    all_inputs = [s for r in records for s in r["input_db"]]
    report = {
        "version": __version__,
        "config": config,
        "aggregate": {
            "num_scenes": len(records),
            "mean_output_db": float(np.mean(all_scores)),
            "mean_input_db": float(np.mean(all_inputs)),
            "mean_improvement_db": float(np.mean(all_scores) - np.mean(all_inputs)),
        },
    }
    out_dir = Path(config["output_dir"])
    texts = ("".join(json.dumps(record, sort_keys=True) + "\n" for record in records),
             json.dumps(report, indent=2, sort_keys=True),
             render_table(records, report, metric_name))
    for name, text in zip(REPORT_FILES, texts):
        _write_text(out_dir / name, text)
    report["records"] = records
    return report


def _evaluate_one(arg):
    scene_dir, metric_name, metric_config = arg
    with _naming(after=f", scoring {scene_dir}"):
        # every file is checked whole, but only reference rows are decoded
        record, mixture = _open_scene(scene_dir, reference_only=True)
        ref_mic, rate, length = record["reference_mic"], mixture.sample_rate, mixture.num_samples

        # reported as written; the scene's layout names the estimates
        flags = _read_json(scene_dir / "flags.json", "flags file", InputError, "separate")
        sources = range(1, len(record["sources"]) + 1)
        references = [_scene_wav(scene_dir / f"source_{k}.wav", rate, mixture.file_channels,
                                 length, rows=[ref_mic]).channel(0) for k in sources]
        estimates = [_scene_wav(scene_dir / f"est_{k}.wav", rate, 1, length).channel(0)
                     for k in sources]
        result = metrics.evaluate_separation(mixture.channel(0), estimates, references,
                                             metric_name, metric_config)
        return {
            "scene_id": scene_dir.name,
            "metric": metric_name,
            "input_db": result["input_db"],
            "output_db": result["per_speaker_db"],
            "mean_output_db": result["mean_db"],
            "assignment": list(result["assignment"].permutation),
            "flags": flags,
        }


def render_table(records, report, metric_name):
    lines = [
        f"sepfront {report['version']}  metric={metric_name}",
        f"{'scene':<24}{'input dB':>12}{'output dB':>12}{'assignment':>14}",
    ]
    for r in records:
        lines.append(
            f"{r['scene_id']:<24}"
            f"{np.mean(r['input_db']):>12.2f}"
            f"{np.mean(r['output_db']):>12.2f}"
            f"{str(r['assignment']):>14}"
        )
    agg = report["aggregate"]
    lines.append(f"{'mean':<24}{agg['mean_input_db']:>12.2f}{agg['mean_output_db']:>12.2f}")
    return "\n".join(lines) + "\n"


def run(config):
    """Run the configured stages, each on the scenes of scene_manifest, through
    one scene pool.

    Every run first deletes the reports an earlier run wrote, since any stage
    replaces files they scored, and evaluate writes them only once every
    scene is scored: so a run that fails at any stage leaves none.

    A run that scores CI-SDR imports scipy.linalg first, before the BLAS cap
    and the pool's fork: the workers inherit it rather than each importing
    it, and its objects sit below the scene heap. Imported by the first
    ci_sdr call instead, scipy's objects sat amid it, and a second 1-scene
    run-all took about 2500 minor faults, not a few.
    """
    for name in REPORT_FILES:
        (Path(config["output_dir"]) / name).unlink(missing_ok=True)
    if config["command"] in ("evaluate", "run-all") and config["metric"]["name"] == "ci_sdr":
        import scipy.linalg  # noqa: F401
    report = None
    with _one_blas_thread(), _scene_pool(config["jobs"]) as scene_map:
        for stage, cmd in (("simulate", cmd_simulate), ("separate", cmd_separate),
                           ("evaluate", cmd_evaluate)):
            if config["command"] in (stage, "run-all"):
                report = cmd(config, functools.partial(scene_map, stage=stage))
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepfront",
        description="Multi-channel separation pipeline: simulate, separate, evaluate.",
    )
    parser.add_argument("--config", help="JSON config file mirroring the pipeline schema")
    parser.add_argument("--command", choices=COMMANDS, help="pipeline stage to run")
    parser.add_argument("--seed", type=int, help="global seed for scenes without one")
    parser.add_argument("--output-dir", help="directory for scenes and reports")
    parser.add_argument("--jobs", type=int, help="parallel scene workers")
    parser.add_argument("--scene-manifest", help="scene manifest JSON path")
    return parser


def main(argv=None):
    """The sepfront command. Its process keeps its heap (_keep_heap), at any
    jobs; run and the library leave the allocator to their caller."""
    _keep_process_heap()
    # each flag's dest is its config key, so the flags are the overrides
    args = vars(build_parser().parse_args(argv))
    try:
        config = load_config(args.pop("config"), args)
        run(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
