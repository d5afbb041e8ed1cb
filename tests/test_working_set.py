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
from sepfront import cli

MIB = 1 << 20

# the highest tracemalloc peak, in MiB, of a stage task on pilot scene 0
SEPARATE_PEAK_MIB = {"masking": 24, "mvdr": 33}
EVALUATE_PEAK_MIB = 12


@pytest.mark.parametrize("method, metric", [("masking", "ci_sdr"), ("mvdr", "si_sdr")])
def test_stage_tasks_allocate_only_what_they_use(method, metric, tmp_path, monkeypatch):
    peaks = {}
    for name in ("_separate_one", "_evaluate_one"):
        def measured(arg, task=getattr(cli, name), name=name):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = task(arg)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / MIB
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
