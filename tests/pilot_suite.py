"""Seeded 100-scene pilot suite: 8-channel anechoic 2-speaker scenes.

tests/data/pilot_mvdr.json is the committed record of the oracle-IRM MVDR
pilot that the acceptance suite regression checks against. Running this
module reruns the pilot and prints its statistics beside the record's,
exiting 1 if any differs beyond the last digits; with --write it overwrites
the record instead.

Run it from the root of a checkout; PYTHONPATH=src finds sepfront there
without an install.

    PYTHONPATH=src python3 tests/pilot_suite.py           # check against the record
    PYTHONPATH=src python3 tests/pilot_suite.py --write   # regenerate the record
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from sepfront import (
    NoiseSpec,
    SceneSpec,
    SourceSpec,
    StftConfig,
    evaluate_separation,
    linear_array,
    render_scene,
)
from sepfront.beamform import separate_mvdr
from sepfront.masks import oracle_mask_from_waveforms

NUM_SCENES = 100
NUM_MICS = 8
SAMPLE_RATE = 16000
DURATION_S = 4.0
REFERENCE_MIC = 0
MIN_SEPARATION_DEG = 30.0

PILOT_PATH = Path(__file__).parent / "data" / "pilot_mvdr.json"


def lowpass(signal):
    """y[n] = 0.9 y[n-1] + 0.1 x[n], in Python floats.

    It rounds as scipy.signal.lfilter([0.1], [1.0, -0.9], x) does, bit for
    bit; importing scipy.signal would add about 40 MiB and 0.5 s to every
    process that imports this module.
    """
    y = 0.0
    return np.array([y := 0.9 * y + v for v in (0.1 * signal).tolist()])


def speech_like(rng, num_samples):
    """Amplitude-modulated lowpassed noise; sparse-ish in time and frequency."""
    noise = rng.standard_normal(num_samples)
    colored = lowpass(noise)
    rate = rng.uniform(1.0, 4.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    envelope = 0.5 + 0.5 * np.sin(
        2.0 * np.pi * rate * np.arange(num_samples) / SAMPLE_RATE + phase
    )
    return colored * envelope


def make_scene(index):
    """Deterministic 2-speaker scene with directions at least 30 degrees apart."""
    rng = np.random.default_rng(1000 + index)
    num_samples = int(DURATION_S * SAMPLE_RATE)
    az1 = rng.uniform(0.0, 2.0 * np.pi)
    gap = np.deg2rad(rng.uniform(MIN_SEPARATION_DEG, 180.0 - MIN_SEPARATION_DEG))
    az2 = (az1 + gap) % (2.0 * np.pi)
    sources = (
        SourceSpec(speech_like(rng, num_samples), azimuth=az1),
        SourceSpec(speech_like(rng, num_samples), azimuth=az2),
    )
    return SceneSpec(
        sources=sources,
        geometry=linear_array(NUM_MICS, 0.04),
        sample_rate=SAMPLE_RATE,
        noise=NoiseSpec(snr_db=20.0),
        reference_mic=REFERENCE_MIC,
        seed=2000 + index,
    )


def mvdr_scene_scores(scene, stft_config=StftConfig(512, 128)):
    """(input_db, aligned output_db) per reference speaker for oracle-IRM MVDR,
    scored by the same call as the CLI's evaluate stage."""
    images = [*scene.source_images, scene.noise_image]
    mask_set = oracle_mask_from_waveforms(scene.mixture, images, "irm", stft_config,
                                          REFERENCE_MIC)
    estimates, _ = separate_mvdr(scene.mixture, mask_set, stft_config, REFERENCE_MIC)

    references = [image.channel(REFERENCE_MIC) for image in scene.source_images]
    result = evaluate_separation(scene.mixture.channel(REFERENCE_MIC),
                                 [e.channel(0) for e in estimates], references)
    # align to reference index: estimate i was matched to reference perm[i]
    outputs = [0.0] * len(references)
    for i, j in enumerate(result["assignment"].permutation):
        outputs[j] = result["per_speaker_db"][i]
    return result["input_db"], outputs


def run_pilot():
    """Improvements (output - input SI-SDR) for every speaker-scene pair."""
    improvements = []
    for index in range(NUM_SCENES):
        scene = render_scene(make_scene(index))
        inputs, outputs = mvdr_scene_scores(scene)
        improvements.extend(out - inp for inp, out in zip(inputs, outputs))
    return np.asarray(improvements)


def write_cli_suite(base_dir, num_scenes=NUM_SCENES):
    """Materialize the pilot suite as dry WAVs plus a CLI scene manifest."""
    from sepfront import audio_io
    from sepfront.dsp import MultichannelWaveform

    base_dir = Path(base_dir)
    (base_dir / "dry").mkdir(parents=True, exist_ok=True)
    scenes = []
    for index in range(num_scenes):
        spec = make_scene(index)
        sources = []
        for k, src in enumerate(spec.sources, start=1):
            rel = f"dry/scene{index:04d}_s{k}.wav"
            audio_io.write_wav(
                base_dir / rel, MultichannelWaveform(src.dry_signal, SAMPLE_RATE)
            )
            sources.append(
                {"path": rel, "azimuth": float(src.azimuth), "gain": float(src.gain)}
            )
        scenes.append(
            {
                "id": f"scene_{index:04d}",
                "seed": spec.seed,
                "reference_mic": spec.reference_mic,
                "sources": sources,
                "noise": {"kind": spec.noise.kind, "snr_db": spec.noise.snr_db},
            }
        )
    manifest = {
        "sample_rate": SAMPLE_RATE,
        "geometry": {
            "mic_positions": linear_array(NUM_MICS, 0.04).mic_positions.tolist()
        },
        "scenes": scenes,
    }
    path = base_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Rerun the MVDR pilot and check it against tests/data/pilot_mvdr.json."
    )
    parser.add_argument("--write", action="store_true",
                        help="overwrite the record with this run's statistics")
    args = parser.parse_args(argv)
    improvements = run_pilot()
    record = {
        "num_scenes": NUM_SCENES,
        "num_pairs": len(improvements),
        "mean_improvement_db": float(improvements.mean()),
        "min_improvement_db": float(improvements.min()),
        "fraction_improved": float(np.mean(improvements > 0.0)),
    }
    if args.write:
        PILOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        with open(PILOT_PATH, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    with open(PILOT_PATH, "r", encoding="utf-8") as f:
        committed = json.load(f)
    differs = False
    for key in sorted(record.keys() | committed.keys()):
        fresh, kept = record.get(key), committed.get(key)
        same = _same(fresh, kept)
        differs |= not same
        print(f"{key}: {fresh!r}, committed {kept!r}{'' if same else '  DIFFERS'}")
    return 1 if differs else 0


def _same(fresh, kept):
    # the record was written with one numpy/BLAS build; another build runs the
    # same code to statistics that differ from it by about 1e-14 relative
    if isinstance(fresh, float) and isinstance(kept, float):
        return math.isclose(fresh, kept, rel_tol=1e-9)
    return fresh == kept


if __name__ == "__main__":
    sys.exit(main())
