"""The CLI's memory per scene: what each stage task allocates, and what a
run-all faults in once the process has run one.

Each stage decodes only the WAV rows it uses and copies no array it does not
keep, so a pilot scene's stage tasks stay under fixed tracemalloc peaks.
cli.main keeps its process's heap, so a second run-all reuses the pages of
the first instead of faulting in fresh ones.
"""

import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pilot_suite
from conftest import traced_peak_mib
from sepfront import cli, dsp, masks, simulate

# the highest tracemalloc peak, in MiB, of a stage task on pilot scene 0
SEPARATE_PEAK_MIB = {"masking": 24, "mvdr": 33}
EVALUATE_PEAK_MIB = 12


@pytest.mark.parametrize("method, metric", [("masking", "ci_sdr"), ("mvdr", "si_sdr")])
def test_stage_tasks_allocate_only_what_they_use(method, metric, tmp_path, monkeypatch):
    peaks = {}
    for name in ("_separate_one", "_evaluate_one"):
        def measured(arg, task=getattr(cli, name), name=name):
            result, peaks[name] = traced_peak_mib(task, arg)
            return result

        monkeypatch.setattr(cli, name, measured)
    manifest = pilot_suite.write_cli_suite(tmp_path / "in", 1)
    config = cli.load_config(None, {"scene_manifest": str(manifest),
                                    "output_dir": str(tmp_path / "out"), "jobs": 1})
    config["separator"]["method"] = method
    config["metric"]["name"] = metric
    tracemalloc.start()
    try:
        cli.run(config)
    finally:
        tracemalloc.stop()
    assert peaks["_separate_one"] <= SEPARATE_PEAK_MIB[method]
    assert peaks["_evaluate_one"] <= EVALUATE_PEAK_MIB


# two run-alls in one process: prints the minor faults of the second
SECOND_RUN_FAULTS = """
import resource
import sys

from sepfront import cli

config, manifest, *out_dirs = sys.argv[1:]
for out_dir in out_dirs:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = cli.main(["--config", config, "--scene-manifest", manifest,
                     "--output-dir", out_dir, "--jobs", "1"])
    if code != cli.EXIT_OK:
        sys.exit(f"run-all exited {code}")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("method, metric", [("masking", "ci_sdr"), ("mvdr", "si_sdr")])
def test_second_run_all_reuses_the_heap(method, metric, tmp_path):
    """In a fresh interpreter, so the real allocator settings apply: a
    1-scene run-all after another takes a few faults, not thousands (4k for
    masking and 17k for MVDR on glibc's defaults)."""
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("libc has no mallopt")
    manifest = pilot_suite.write_cli_suite(tmp_path / "in", 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"separator": {"method": method}, "metric": {"name": metric}}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", SECOND_RUN_FAULTS, str(config), str(manifest),
         str(tmp_path / "first"), str(tmp_path / "second")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) < 500


# An MVDR scene holds one array the size of its whole grid, the (F, M, T)
# mixture spectrum: the transforms work a block of frames at a time, and the
# oracle masks keep one reference spectrum at a time. The highest tracemalloc
# peaks, in MiB, on pilot scene 0:
LIBRARY_SCENE_PEAK_MIB = 41  # render_scene and mvdr_scene_scores
MIXTURE_STFT_PEAK_MIB = 18  # the 8-channel stft of the mixture
ORACLE_IRM_PEAK_MIB = 9  # oracle_mask_from_waveforms with irm
ORACLE_PSM_PEAK_MIB = 13  # ... with psm, which keeps the mixture's spectrum too
SEPARATE_ONE_PEAK_MIB = {"masking": 14, "mvdr": 29}  # cli._separate_one


@pytest.fixture(scope="module")
def pilot_scene():
    return simulate.render_scene(pilot_suite.make_scene(0))


def test_library_scene_holds_one_spectrum():
    spec = pilot_suite.make_scene(0)
    _, peak = traced_peak_mib(lambda: pilot_suite.mvdr_scene_scores(simulate.render_scene(spec)))
    assert peak <= LIBRARY_SCENE_PEAK_MIB


def test_stft_holds_only_its_result(pilot_scene):
    _, peak = traced_peak_mib(dsp.stft, pilot_scene.mixture, dsp.StftConfig(512, 128))
    assert peak <= MIXTURE_STFT_PEAK_MIB


def test_oracle_masks_keep_one_reference_spectrum(pilot_scene):
    images = [*pilot_scene.source_images, pilot_scene.noise_image]
    _, peak = traced_peak_mib(masks.oracle_mask_from_waveforms, pilot_scene.mixture, images,
                              "irm", dsp.StftConfig(512, 128), pilot_suite.REFERENCE_MIC)
    assert peak <= ORACLE_IRM_PEAK_MIB


def test_psm_masks_keep_one_reference_spectrum(pilot_scene):
    images = [*pilot_scene.source_images, pilot_scene.noise_image]
    _, peak = traced_peak_mib(masks.oracle_mask_from_waveforms, pilot_scene.mixture, images,
                              "psm", dsp.StftConfig(512, 128), pilot_suite.REFERENCE_MIC)
    assert peak <= ORACLE_PSM_PEAK_MIB


@pytest.mark.parametrize("method", ["masking", "mvdr"])
def test_separate_task_holds_one_spectrum(method, tmp_path):
    manifest = pilot_suite.write_cli_suite(tmp_path / "in", 1)
    config = cli.load_config(None, {"scene_manifest": str(manifest),
                                    "output_dir": str(tmp_path / "out"), "jobs": 1})
    config["separator"]["method"] = method
    cli.cmd_simulate(config)
    (scene_dir,) = (tmp_path / "out" / "scenes").iterdir()
    _, peak = traced_peak_mib(cli._separate_one, (scene_dir, config, cli._stft_config(config)))
    assert peak <= SEPARATE_ONE_PEAK_MIB[method]
