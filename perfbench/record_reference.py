"""Regenerate perfbench/reference.json from the checkout's current code.

    python3 perfbench/record_reference.py

Records, per workload, the improvement in dB of every pilot scene
0..RECORDED_SCENES-1 and the mean over the default seed's scene set. The
benchmark fails a scene whose improvement is further than TOLERANCE_DB from
its recorded value. Regenerate only when a change is meant to alter scores,
and say so in that change.
"""

import json
import shutil
import statistics
import sys
from pathlib import Path

import run
import workloads

RECORDED_SCENES = 48
TOLERANCE_DB = 1e-4


def record(name, work_root):
    scenes = {}
    for seed in range(0, RECORDED_SCENES, workloads.SCENES_PER_SET):
        workload = workloads.make(name, seed, work_root / name)
        try:
            for n in range(workloads.SCENES_PER_SET // workload.scenes_per_unit):
                _, results = workload.run_unit(n)
                for result in results:
                    if "error" in result:
                        raise RuntimeError(f"{name} scene {result['index']}: {result['error']}")
                    scenes[result["index"]] = result["improvement_db"]
        finally:
            workload.close()
    default = workloads.scene_indices(run.DEFAULT_SEED)
    return {
        "tolerance_db": TOLERANCE_DB,
        "default_seed": run.DEFAULT_SEED,
        "improvement_db": statistics.fmean(scenes[i] for i in default),
        "scenes": {str(i): scenes[i] for i in sorted(scenes)},
    }


def main():
    work_root = run.ROOT / ".perfbench_work" / "record"
    try:
        reference = {name: record(name, work_root) for name in run.WORKLOADS}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    for name, entry in reference.items():
        print(f"{name}: improvement_db {entry['improvement_db']:.6f} at seed {run.DEFAULT_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
