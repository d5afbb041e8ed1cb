"""Command-line pipeline: simulate, separate, evaluate, run-all.

The CLI is a thin shell over the library API: every numeric output equals the
corresponding in-memory composition on the same inputs. Scenes are processed
in canonical (sorted id) order and all randomness is seeded, so identical
configs produce identical outputs apart from the timing fields.
"""

import argparse
import contextlib
import ctypes
import json
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, audio_io, beamform, masks, metrics, simulate
from .dsp import StftConfig, stft  # noqa: F401  (perfbench traces the cli.stft binding)
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


_AT_LEAST_0 = (lambda value: value >= 0), ">= 0"
_ABOVE_0 = (lambda value: value > 0), "> 0"
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
    "jobs": _Key(int, rule=((lambda value: value >= 1), ">= 1")),
    "wav_format": _Key(str, rule=_one_of(audio_io.WAV_FORMATS)),
    "stft": {"window_length": _Key(int, rule=_STFT_SIZE), "hop": _Key(int),
             "fft_size": _Key(int, type(None), rule=_STFT_SIZE)},
    "separator": {"method": _Key(str, rule=_one_of(SEPARATION_METHODS)),
                  "mask_oracle_kind": _Key(str, rule=_one_of(masks.MASK_KINDS)),
                  "mask_import_dir": _Key(str, type(None))},
    "metric": {"name": _Key(str, rule=_one_of(metrics.METRIC_FUNCTIONS)),
               "ci_sdr_taps": _Key(int)},
}

# the array geometry of a manifest, or of a scene that overrides it
_GEOMETRY = {
    "mic_positions": _Key(list, required=True, rule=((lambda rows: len(rows) > 0), "non-empty"),
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
    "scenes": _Key(list, required=True, items={
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

# JSON names of the types a schema entry lists
_JSON_NAMES = {dict: "object", type(None): "null", float: "finite float"}

# thread-count functions of the OpenBLAS in numpy's wheel, newest naming first
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def load_config(path=None, overrides=None):
    """Merge defaults, optional config file, and CLI flag overrides.

    The merged config is checked against CONFIG_SCHEMA and the STFT and metric
    configs are built, so a bad key or value fails here, before any stage runs.
    """
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
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


def _read_json(path, what, error):
    """The JSON object in the file at path; what names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            document = json.load(f)
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return document


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


def _scene_spec(scene, manifest, base_dir, global_seed):
    array = scene.get("geometry") or manifest["geometry"]
    geometry = simulate.ArrayGeometry(
        np.asarray(array["mic_positions"], dtype=np.float64),
        float(array.get("speed_of_sound", simulate.SPEED_OF_SOUND)),
    )
    sample_rate = int(scene.get("sample_rate", manifest.get("sample_rate", 16000)))
    sources = []
    for src in scene["sources"]:
        wav = audio_io.read_wav(base_dir / src["path"])
        if wav.sample_rate != sample_rate:
            raise InputError(
                f"{src['path']}: sample rate {wav.sample_rate} != scene rate {sample_rate}"
            )
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
        if entry["kind"] == "file":
            noise_samples = audio_io.read_wav(base_dir / entry["path"]).samples
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


def _scene_dirs(output_dir, scene_ids=None):
    """The named scenes' directories, or every scene directory under output_dir."""
    scenes_root = Path(output_dir) / "scenes"
    if scene_ids is not None:
        return [scenes_root / scene_id for scene_id in sorted(scene_ids)]
    if not scenes_root.is_dir():
        raise InputError(f"no scenes directory under {output_dir}; run simulate first")
    return sorted(d for d in scenes_root.iterdir() if d.is_dir())


def _numpy_openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy's
    wheel, or None when numpy ships none (a build against another BLAS)."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _scene_pool(jobs):
    """Yield map(fn, items) for the per-scene tasks of one run.

    With jobs > 1 every map of more than one item goes through one process
    pool, started at the first such map and shut down when the block ends.
    Before its workers fork, numpy's OpenBLAS is capped at an even share of
    the usable CPUs, so jobs workers do not each run a full set of BLAS
    threads on the same cores. The forked workers inherit the cap (setting it
    inside a fresh worker instead starts an idle, spinning BLAS thread); the
    parent's own count is restored once the pool has shut down.
    """
    pool = blas = previous = None

    def scene_map(fn, items):
        nonlocal pool, blas, previous
        if jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if pool is None:
            blas = _numpy_openblas()
            if blas is not None:
                previous = blas[0]()
                blas[1](max(1, len(os.sched_getaffinity(0)) // jobs))
            pool = ProcessPoolExecutor(max_workers=jobs)
        return list(pool.map(fn, items))

    try:
        yield scene_map
    finally:
        if pool is not None:
            pool.shutdown()
        if previous is not None:
            blas[1](previous)


def _map_scenes(fn, items, jobs, scene_map):
    """fn over items through scene_map, or through a _scene_pool of their own."""
    if scene_map is not None:
        return scene_map(fn, items)
    with _scene_pool(jobs) as scene_map:
        return scene_map(fn, items)


def cmd_simulate(config, scene_map=None):
    """Render every manifest scene to WAV files under output_dir/scenes/<id>/."""
    if not config["scene_manifest"]:
        raise ConfigurationError("simulate requires scene_manifest")
    manifest = load_manifest(config["scene_manifest"])
    out_root = Path(config["output_dir"]) / "scenes"
    out_root.mkdir(parents=True, exist_ok=True)
    fmt = config["wav_format"]

    scenes = sorted(manifest["scenes"], key=lambda s: s["id"])
    # scenes without their own seed get a distinct deterministic one
    args = [
        (scene, manifest, config["scene_manifest"], config["seed"] + i, out_root, fmt)
        for i, scene in enumerate(scenes)
    ]
    _map_scenes(_simulate_one, args, config["jobs"], scene_map)
    return [scene["id"] for scene in scenes]


def _simulate_one(arg):
    scene, manifest, manifest_path, global_seed, out_root, fmt = arg
    try:  # what only the simulator, the scene's WAVs or the WAV format can rule out
        spec = _scene_spec(scene, manifest, Path(manifest_path).parent, global_seed)
        rendered = simulate.render_scene(spec)
        scene_dir = out_root / scene["id"]
        scene_dir.mkdir(parents=True, exist_ok=True)
        audio_io.write_wav(scene_dir / "mixture.wav", rendered.mixture, fmt)
        for k, image in enumerate(rendered.source_images, start=1):
            audio_io.write_wav(scene_dir / f"source_{k}.wav", image, fmt)
        audio_io.write_wav(scene_dir / "noise.wav", rendered.noise_image, fmt)
    except (ConfigurationError, InputError) as exc:
        raise InputError(f"scene manifest {manifest_path}: scene {scene['id']!r}: {exc}") from exc
    echo = dict(rendered.manifest)
    echo["id"] = scene["id"]
    with open(scene_dir / "scene.json", "w", encoding="utf-8") as f:
        json.dump(echo, f, indent=2, sort_keys=True)
    return scene["id"]


def _scene_record(scene_dir):
    """(reference_mic, number of sources) from a simulated scene's scene.json."""
    with open(scene_dir / "scene.json", "r", encoding="utf-8") as f:
        record = json.load(f)
    return int(record["reference_mic"]), len(record["sources"])


def load_scene_masks(scene_dir, config, stft_config, mixture=None):
    """Oracle masks at the scene's reference mic, or imported masks.

    Oracle masks read the scene's mixture.wav unless the caller passes the
    mixture it has read. An imported tensor holds one stream per source and
    at most one noise stream after them.
    """
    sep = config["separator"]
    ref_mic, num_sources = _scene_record(scene_dir)
    if sep["mask_import_dir"]:
        return masks.MaskSet.load(Path(sep["mask_import_dir"]) / f"{scene_dir.name}.tns",
                                  num_sources)

    images = []
    for k in range(1, num_sources + 1):
        path = scene_dir / f"source_{k}.wav"
        if not path.exists():
            raise ConfigurationError(
                f"oracle masks requested but reference {path} is missing"
            )
        images.append(audio_io.read_wav(path))
    images.append(audio_io.read_wav(scene_dir / "noise.wav"))
    if mixture is None:
        mixture = audio_io.read_wav(scene_dir / "mixture.wav")
    return masks.oracle_mask_from_waveforms(
        mixture, images, sep["mask_oracle_kind"], stft_config, ref_mic
    )


def cmd_separate(config, scene_ids=None, scene_map=None):
    """Write est_k.wav per speaker (plus a flags sidecar) for the scenes named
    in scene_ids, or for every scene under output_dir."""
    scene_dirs = _scene_dirs(config["output_dir"], scene_ids)
    stft_config = _stft_config(config)
    args = [(d, config, stft_config) for d in scene_dirs]
    _map_scenes(_separate_one, args, config["jobs"], scene_map)
    return [d.name for d in scene_dirs]


def _separate_one(arg):
    scene_dir, config, stft_config = arg
    ref_mic, _ = _scene_record(scene_dir)
    method = config["separator"]["method"]
    mixture = audio_io.read_wav(scene_dir / "mixture.wav")
    mask_set = load_scene_masks(scene_dir, config, stft_config, mixture)

    if method == "mvdr":
        estimates, flags = beamform.separate_mvdr(mixture, mask_set, stft_config, ref_mic)
    else:  # "masking"; load_config admits only SEPARATION_METHODS
        estimates = masks.separate_masking(mixture, mask_set, stft_config, ref_mic)
        flags = [{} for _ in estimates]

    fmt = config["wav_format"]
    # evaluate scores only the outputs flags.json lists; no est_*.wav of an
    # earlier run is left to look like one
    for stale in scene_dir.glob("est_*.wav"):
        stale.unlink()
    outputs = [f"est_{k}.wav" for k in range(1, len(estimates) + 1)]
    for name, est in zip(outputs, estimates):
        audio_io.write_wav(scene_dir / name, est, fmt)
    with open(scene_dir / "flags.json", "w", encoding="utf-8") as f:
        json.dump({"method": method, "outputs": outputs, "per_speaker": flags}, f,
                  indent=2, sort_keys=True)
    return scene_dir.name


def cmd_evaluate(config, scene_ids=None, scene_map=None):
    """PIT-aligned scoring of the scenes named in scene_ids, or of every scene
    under output_dir; writes report files and returns the report."""
    scene_dirs = _scene_dirs(config["output_dir"], scene_ids)
    metric_name = config["metric"]["name"]
    metric_config = _metric_config(config)
    args = [(d, config, metric_name, metric_config) for d in scene_dirs]
    records = _map_scenes(_evaluate_one, args, config["jobs"], scene_map)
    records.sort(key=lambda r: r["scene_id"])

    all_scores = [s for r in records for s in r["output_db"]]
    all_inputs = [s for r in records for s in r["input_db"]]
    report = {
        "version": __version__,
        "config": config,
        "aggregate": {
            "num_scenes": len(records),
            "mean_output_db": float(np.mean(all_scores)) if all_scores else None,
            "mean_input_db": float(np.mean(all_inputs)) if all_inputs else None,
            "mean_improvement_db": float(np.mean(all_scores) - np.mean(all_inputs))
            if all_scores
            else None,
        },
    }
    out_dir = Path(config["output_dir"])
    with open(out_dir / "report.jsonl", "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    with open(out_dir / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    with open(out_dir / "report.txt", "w", encoding="utf-8") as f:
        f.write(render_table(records, report, metric_name))
    report["records"] = records
    return report


def _evaluate_one(arg):
    scene_dir, config, metric_name, metric_config = arg
    started = time.monotonic()
    ref_mic, num_sources = _scene_record(scene_dir)

    flags_path = scene_dir / "flags.json"
    try:
        with open(flags_path, "r", encoding="utf-8") as f:
            flags = json.load(f)
        outputs = flags["outputs"]
    except FileNotFoundError as exc:
        raise InputError(f"{flags_path} not found; run separate first") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"{flags_path} does not list the scene's outputs") from exc

    references = []
    for k in range(1, num_sources + 1):
        references.append(audio_io.read_wav(scene_dir / f"source_{k}.wav").channel(ref_mic))
    estimates = [audio_io.read_wav(scene_dir / name).channel(0) for name in outputs]
    if len(estimates) != len(references):
        raise InputError(
            f"{scene_dir.name}: {len(estimates)} estimates vs {len(references)} references"
        )

    metric_fn = metrics.METRIC_FUNCTIONS[metric_name]
    mixture_ref = audio_io.read_wav(scene_dir / "mixture.wav").channel(ref_mic)
    input_db = [float(metric_fn(mixture_ref, ref, metric_config)) for ref in references]
    result = metrics.evaluate_separation(estimates, references, metric_name, metric_config)
    return {
        "scene_id": scene_dir.name,
        "metric": metric_name,
        "input_db": input_db,
        "output_db": result["per_speaker_db"],
        "mean_output_db": result["mean_db"],
        "assignment": list(result["assignment"].permutation),
        "flags": flags,
        "timing_s": time.monotonic() - started,
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
    if agg["mean_output_db"] is not None:
        lines.append(
            f"{'mean':<24}{agg['mean_input_db']:>12.2f}{agg['mean_output_db']:>12.2f}"
        )
    return "\n".join(lines) + "\n"


def run(config):
    """Run the configured stages through one scene pool; run-all separates and
    scores only the scenes its own simulate stage wrote."""
    command = config["command"]
    with _scene_pool(config["jobs"]) as scene_map:
        scene_ids = None
        if command in ("simulate", "run-all"):
            scene_ids = cmd_simulate(config, scene_map)
        if command in ("separate", "run-all"):
            cmd_separate(config, scene_ids, scene_map)
        if command in ("evaluate", "run-all"):
            return cmd_evaluate(config, scene_ids, scene_map)
    return None


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
    args = build_parser().parse_args(argv)
    overrides = {
        "command": args.command,
        "seed": args.seed,
        "output_dir": args.output_dir,
        "jobs": args.jobs,
        "scene_manifest": args.scene_manifest,
    }
    try:
        config = load_config(args.config, overrides)
        run(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
