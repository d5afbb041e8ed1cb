"""Command-line pipeline: simulate, separate, evaluate, run-all.

The CLI is a thin shell over the library API: every numeric output equals the
corresponding in-memory composition on the same inputs. Scenes are processed
in canonical (sorted id) order and all randomness is seeded, so identical
configs produce identical outputs apart from the timing fields.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, audio_io, beamform, masks, metrics, simulate
from .dsp import StftConfig, stft
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
    "ref_mic": 0,
    "wav_format": "float32",
    "stft": {"window_length": 512, "hop": 128, "fft_size": 512, "center_padding": True},
    "separator": {"method": "mvdr", "mask_oracle_kind": "irm", "mask_import_dir": None},
    "metric": {"name": "si_sdr", "ci_sdr_taps": 512, "cap_db": 100.0},
}


def load_config(path=None, overrides=None):
    """Merge defaults, optional config file, and CLI flag overrides."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                user = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigurationError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(config.get(key), dict):
                config[key].update(value)
            else:
                config[key] = value
    for key, value in (overrides or {}).items():
        if value is not None:
            config[key] = value
    return config


def _stft_config(config):
    s = config["stft"]
    return StftConfig(
        window_length=int(s["window_length"]),
        hop=int(s["hop"]),
        fft_size=s["fft_size"],
        center_padding=bool(s["center_padding"]),
    )


def _metric_config(config):
    m = config["metric"]
    return metrics.MetricConfig(
        ci_sdr_taps=int(m["ci_sdr_taps"]),
        cap_db=float(m["cap_db"]),
    )


def load_manifest(path):
    manifest_path = Path(path)
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError as exc:
        raise InputError(f"scene manifest not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scene manifest {path} is not valid JSON: {exc}") from exc
    if "scenes" not in manifest:
        raise InputError(f"scene manifest {path} has no 'scenes' list")
    return manifest, manifest_path.parent


def _geometry_from(entry):
    return simulate.ArrayGeometry(
        np.asarray(entry["mic_positions"], dtype=np.float64),
        float(entry.get("speed_of_sound", simulate.SPEED_OF_SOUND)),
    )


def _scene_spec(scene, manifest, base_dir, global_seed):
    geometry = _geometry_from(scene.get("geometry") or manifest["geometry"])
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


def _scene_dirs(output_dir):
    scenes_root = Path(output_dir) / "scenes"
    if not scenes_root.is_dir():
        raise InputError(f"no scenes directory under {output_dir}; run simulate first")
    return sorted(d for d in scenes_root.iterdir() if d.is_dir())


def _map_scenes(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def cmd_simulate(config):
    """Render every manifest scene to WAV files under output_dir/scenes/<id>/."""
    if not config["scene_manifest"]:
        raise ConfigurationError("simulate requires scene_manifest")
    manifest, base_dir = load_manifest(config["scene_manifest"])
    out_root = Path(config["output_dir"]) / "scenes"
    out_root.mkdir(parents=True, exist_ok=True)
    fmt = config["wav_format"]

    scenes = sorted(manifest["scenes"], key=lambda s: s["id"])
    # scenes without their own seed get a distinct deterministic one
    args = [
        (scene, manifest, base_dir, int(config["seed"]) + i, out_root, fmt)
        for i, scene in enumerate(scenes)
    ]
    _map_scenes(_simulate_one, args, int(config["jobs"]))
    return [scene["id"] for scene in scenes]


def _simulate_one(arg):
    scene, manifest, base_dir, global_seed, out_root, fmt = arg
    spec = _scene_spec(scene, manifest, base_dir, global_seed)
    rendered = simulate.render_scene(spec)
    scene_dir = out_root / scene["id"]
    scene_dir.mkdir(parents=True, exist_ok=True)
    audio_io.write_wav(scene_dir / "mixture.wav", rendered.mixture, fmt)
    for k, image in enumerate(rendered.source_images, start=1):
        audio_io.write_wav(scene_dir / f"source_{k}.wav", image, fmt)
    audio_io.write_wav(scene_dir / "noise.wav", rendered.noise_image, fmt)
    echo = dict(rendered.manifest)
    echo["id"] = scene["id"]
    with open(scene_dir / "scene.json", "w", encoding="utf-8") as f:
        json.dump(echo, f, indent=2, sort_keys=True)
    return scene["id"]


def load_scene_masks(scene_dir, config, stft_config):
    """Oracle masks from the scene's reference images, or imported masks.

    An imported tensor with one stream per source plus one has noise last.
    """
    sep = config["separator"]
    ref_mic = int(config["ref_mic"])
    with open(scene_dir / "scene.json", "r", encoding="utf-8") as f:
        num_sources = len(json.load(f)["sources"])
    if sep["mask_import_dir"]:
        mask_set = masks.MaskSet.load(Path(sep["mask_import_dir"]) / f"{scene_dir.name}.tns")
        if mask_set.num_streams == num_sources + 1:
            labels = mask_set.labels[:-1] + (masks.NOISE_LABEL,)
            mask_set = masks.MaskSet(mask_set.masks, labels)
        return mask_set

    mixture = audio_io.read_wav(scene_dir / "mixture.wav")
    if not 0 <= ref_mic < mixture.num_channels:
        raise ConfigurationError(
            f"ref_mic {ref_mic} out of range for {mixture.num_channels} channels"
        )
    images = []
    for k in range(1, num_sources + 1):
        path = scene_dir / f"source_{k}.wav"
        if not path.exists():
            raise ConfigurationError(
                f"oracle masks requested but reference {path} is missing"
            )
        images.append(stft(audio_io.read_wav(path), stft_config).channel(ref_mic))
    images.append(stft(audio_io.read_wav(scene_dir / "noise.wav"), stft_config).channel(ref_mic))
    mix_spec = stft(mixture, stft_config).channel(ref_mic)
    return masks.oracle_mask(images, sep["mask_oracle_kind"], mix_spec)


def cmd_separate(config):
    """Write est_k.wav per speaker (plus a flags sidecar) for every scene."""
    scene_dirs = _scene_dirs(config["output_dir"])
    stft_config = _stft_config(config)
    args = [(d, config, stft_config) for d in scene_dirs]
    _map_scenes(_separate_one, args, int(config["jobs"]))
    return [d.name for d in scene_dirs]


def _separate_one(arg):
    scene_dir, config, stft_config = arg
    ref_mic = int(config["ref_mic"])
    method = config["separator"]["method"]
    mixture = audio_io.read_wav(scene_dir / "mixture.wav")
    mask_set = load_scene_masks(scene_dir, config, stft_config)

    if method == "masking":
        estimates = masks.separate_masking(mixture, mask_set, stft_config, ref_mic)
        flags = [{} for _ in estimates]
    elif method == "mvdr":
        estimates, flags = beamform.separate_mvdr(mixture, mask_set, stft_config, ref_mic)
    else:
        raise ConfigurationError(f"unknown separation method: {method!r}")

    fmt = config["wav_format"]
    # evaluate scores every est_k.wav it finds, so none may outlive this run
    for stale in scene_dir.glob("est_*.wav"):
        stale.unlink()
    for k, est in enumerate(estimates, start=1):
        audio_io.write_wav(scene_dir / f"est_{k}.wav", est, fmt)
    with open(scene_dir / "flags.json", "w", encoding="utf-8") as f:
        json.dump({"method": method, "per_speaker": flags}, f, indent=2, sort_keys=True)
    return scene_dir.name


def cmd_evaluate(config):
    """PIT-aligned scoring of every scene; writes report files and returns the report."""
    scene_dirs = _scene_dirs(config["output_dir"])
    metric_name = config["metric"]["name"]
    metric_config = _metric_config(config)
    args = [(d, config, metric_name, metric_config) for d in scene_dirs]
    records = _map_scenes(_evaluate_one, args, int(config["jobs"]))
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
    with open(scene_dir / "scene.json", "r", encoding="utf-8") as f:
        scene_meta = json.load(f)
    ref_mic = int(scene_meta["reference_mic"])
    num_sources = len(scene_meta["sources"])

    references = []
    for k in range(1, num_sources + 1):
        references.append(audio_io.read_wav(scene_dir / f"source_{k}.wav").channel(ref_mic))
    estimates = []
    k = 1
    while (scene_dir / f"est_{k}.wav").exists():
        estimates.append(audio_io.read_wav(scene_dir / f"est_{k}.wav").channel(0))
        k += 1
    if len(estimates) != len(references):
        raise InputError(
            f"{scene_dir.name}: {len(estimates)} estimates vs {len(references)} references"
        )

    metric_fn = metrics.METRIC_FUNCTIONS[metric_name]
    mixture_ref = audio_io.read_wav(scene_dir / "mixture.wav").channel(ref_mic)
    input_db = [float(metric_fn(mixture_ref, ref, metric_config)) for ref in references]
    result = metrics.evaluate_separation(estimates, references, metric_name, metric_config)

    flags = {}
    flags_path = scene_dir / "flags.json"
    if flags_path.exists():
        with open(flags_path, "r", encoding="utf-8") as f:
            flags = json.load(f)
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


COMMANDS = ("simulate", "separate", "evaluate", "run-all")


def run(config):
    command = config["command"]
    if command not in COMMANDS:
        raise ConfigurationError(f"unknown command: {command!r}")
    if command in ("simulate", "run-all"):
        cmd_simulate(config)
    if command in ("separate", "run-all"):
        cmd_separate(config)
    if command in ("evaluate", "run-all"):
        return cmd_evaluate(config)
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
