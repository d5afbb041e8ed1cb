"""The three benchmark workloads over the seeded pilot scenes.

A workload's seed is an offset into the pilot scene index: seed s uses
scenes s, s+1, ..., s+SCENES_PER_SET-1 of `tests/pilot_suite.make_scene`
(4 s, 8 mics, 2 speakers, 20 dB white noise). The timed loop cycles through
that set; a unit is one scene (library) or one CLI run-all over
SCENES_PER_CLI_RUN scenes.

Importing this module imports sepfront and the pilot suite from the checkout
that holds it, so it is imported inside the set-up timing.
"""

import importlib.util
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sepfront  # noqa: E402
from sepfront import audio_io, cli, simulate  # noqa: E402

if not Path(sepfront.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"sepfront imported from {sepfront.__file__}, not from {SRC}")

_spec = importlib.util.spec_from_file_location("pilot_suite", ROOT / "tests" / "pilot_suite.py")
pilot_suite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pilot_suite)

SCENES_PER_SET = 16
SCENES_PER_CLI_RUN = 4

# Calls per scene that today's code makes; a traced run that sees other
# counts has missed a binding or lost worker spans, and fails.
EXPECTED_CALLS_MVDR = {
    "simulate.fractional_delay": 16,
    "dsp.stft": 5,
    "beamform.spatial_covariance": 3,
    "beamform.mvdr_weights": 2,
    "metrics.si_sdr": 6,
}


def scene_indices(seed):
    return list(range(seed, seed + SCENES_PER_SET))


class LibraryMvdr:
    """In-process pilot chain, one scene per unit."""

    jobs = 1
    scenes_per_unit = 1
    expected_calls = EXPECTED_CALLS_MVDR

    def __init__(self, seed, workdir):
        self.indices = scene_indices(seed)
        self.specs = [pilot_suite.make_scene(i) for i in self.indices]

    def run_unit(self, n):
        """Run unit n; returns (program wall seconds, per-scene results)."""
        pos = n % len(self.indices)
        started = time.perf_counter()
        try:
            scene = simulate.render_scene(self.specs[pos])
            inputs, outputs = pilot_suite.mvdr_scene_scores(scene)
        except Exception as exc:  # a failed scene is counted, not fatal
            return time.perf_counter() - started, [_failure(self.indices[pos], exc)]
        wall = time.perf_counter() - started
        improvement = float(np.mean(outputs) - np.mean(inputs))
        return wall, [{"index": self.indices[pos], "improvement_db": improvement}]

    def close(self):
        pass


class CliRunAll:
    """`sepfront.cli.main` run-all over dry WAVs plus a manifest, in process."""

    scenes_per_unit = SCENES_PER_CLI_RUN

    def __init__(self, seed, workdir, jobs, separator, metric, expected_calls):
        self.jobs = jobs
        self.expected_calls = expected_calls
        self.workdir = Path(workdir)
        self.indices = scene_indices(seed)
        self.manifests = _write_manifests(self.workdir, self.indices)
        self.config = self.workdir / "config.json"
        with open(self.config, "w", encoding="utf-8") as f:
            json.dump({"wav_format": "float32", "separator": separator, "metric": metric}, f)

    def run_unit(self, n):
        batch = n % len(self.manifests)
        manifest, indices = self.manifests[batch]
        out_dir = self.workdir / f"run{n:05d}"  # fresh per run: nothing stale is scored
        argv = [
            "--command", "run-all",
            "--config", str(self.config),
            "--scene-manifest", str(manifest),
            "--output-dir", str(out_dir),
            "--jobs", str(self.jobs),
        ]
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback out of main fails the whole run
            wall = time.perf_counter() - started
            shutil.rmtree(out_dir, ignore_errors=True)
            return wall, [_failure(i, exc) for i in indices]
        wall = time.perf_counter() - started
        results = _read_report(out_dir, indices, code)
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, results

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _failure(index, exc):
    return {"index": index, "error": f"{type(exc).__name__}: {exc}"}


def _scene_id(index):
    return f"scene_{index:08d}"


def _write_manifests(workdir, indices):
    """Dry WAVs for every scene and one manifest per CLI run's batch.

    Mirrors `pilot_suite.write_cli_suite`, which only writes scenes 0..N-1.
    """
    dry = workdir / "dry"
    dry.mkdir(parents=True, exist_ok=True)
    rate = pilot_suite.SAMPLE_RATE
    geometry = pilot_suite.linear_array(pilot_suite.NUM_MICS, 0.04)
    entries = []
    for index in indices:
        spec = pilot_suite.make_scene(index)
        sources = []
        for k, src in enumerate(spec.sources, start=1):
            rel = f"dry/{_scene_id(index)}_s{k}.wav"
            audio_io.write_wav(workdir / rel, sepfront.MultichannelWaveform(src.dry_signal, rate))
            sources.append({"path": rel, "azimuth": float(src.azimuth), "gain": float(src.gain)})
        entries.append({
            "id": _scene_id(index),
            "seed": spec.seed,
            "reference_mic": spec.reference_mic,
            "sources": sources,
            "noise": {"kind": spec.noise.kind, "snr_db": spec.noise.snr_db},
        })
    manifests = []
    for start in range(0, len(indices), SCENES_PER_CLI_RUN):
        path = workdir / f"manifest{start // SCENES_PER_CLI_RUN}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "sample_rate": rate,
                "geometry": {"mic_positions": geometry.mic_positions.tolist()},
                "scenes": entries[start:start + SCENES_PER_CLI_RUN],
            }, f)
        manifests.append((path, indices[start:start + SCENES_PER_CLI_RUN]))
    return manifests


def _read_report(out_dir, indices, code):
    """Per-scene improvement from the run's report; every scene fails on a non-zero exit."""
    if code != 0:
        return [{"index": i, "exit_code": code, "error": f"sepfront exited {code}"} for i in indices]
    records = {}
    with open(out_dir / "report.jsonl", "r", encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            records[record["scene_id"]] = record
    results = []
    for index in indices:
        record = records.get(_scene_id(index))
        if record is None:
            results.append({"index": index, "error": "scene missing from report"})
            continue
        improvement = float(np.mean(record["output_db"]) - np.mean(record["input_db"]))
        results.append({"index": index, "improvement_db": improvement})
    return results


def make(name, seed, workdir):
    """Prepare workload `name` for `seed`, writing its inputs under workdir."""
    Path(workdir).mkdir(parents=True, exist_ok=True)
    if name == "library-mvdr":
        return LibraryMvdr(seed, workdir)
    if name == "cli-mvdr-jobs2":
        return CliRunAll(
            seed, workdir, jobs=2,
            separator={"method": "mvdr", "mask_oracle_kind": "irm"},
            metric={"name": "si_sdr"},
            expected_calls=EXPECTED_CALLS_MVDR,
        )
    if name == "cli-masking-ci-sdr":
        return CliRunAll(
            seed, workdir, jobs=1,
            separator={"method": "masking", "mask_oracle_kind": "irm"},
            metric={"name": "ci_sdr"},
            expected_calls={"metrics.ci_sdr": 6},
        )
    raise ValueError(f"unknown workload: {name!r}")
