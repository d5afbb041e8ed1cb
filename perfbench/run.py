"""sepfront benchmark: run one workload, or all three, and print the metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload library-mvdr --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload is set up SETUP_RUNS times, each time in a fresh interpreter;
the last of these processes also runs the timed loop (see measure.py). A
workload's report ends with one JSON line with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Lines before it, starting with "#", give the
environment and a readable summary. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("library-mvdr", "cli-mvdr-jobs2", "cli-masking-ci-sdr")
DEFAULT_SEED = 0
# Confirmation seed: its scenes lie outside reference.json, so its check
# covers structure only (finite scores, no failed scene).
HELD_OUT_SEED = 1000
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0

UNITS = {
    "scenes_per_s": "1/s",
    "scene_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "improvement_db": "dB",
}


def source_identity():
    """git sha of the checkout when it is a repository, and a digest of src/sepfront."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sepfront").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_child(workload, args, workdir, deadline, setup_only):
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, args):
    """Set up and measure one workload, print its report; returns the exit code."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work_root = ROOT / ".perfbench_work"
    setups = []
    try:
        for i in range(SETUP_RUNS):
            workdir = work_root / f"run{i}"
            shutil.rmtree(workdir, ignore_errors=True)
            result = run_child(workload, args, workdir, deadline, setup_only=i < SETUP_RUNS - 1)
            setups.append(result["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    env = dict(source_identity(), **result["env"])
    print("# env " + json.dumps(env, sort_keys=True))
    e2e = dict(result["end_to_end"], setup_s=statistics.median(setups))
    stats = result["scene_ms"]
    failed, attempted = result["failed"], result["attempted"]
    print(f"# workload {workload} seed {args.seed}: {attempted} scenes, "
          f"{failed} failed (failed_ratio {failed / attempted:g}); "
          f"units untraced {result['units']['untraced']}, traced {result['units']['traced']}")
    for name, unit in UNITS.items():
        print(f"# {name} = {e2e[name]:.6g} {unit}")
    p90 = stats["p90"]
    print(f"# scene_ms_p90 = {p90:.6g} ms" if p90 is not None else
          f"# scene_ms_p90 withheld: {stats['n']} samples, fewer than 10 beyond p90")
    if args.trace == 1:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in UNITS.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description="sepfront benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"offset into the pilot scenes (default {DEFAULT_SEED}; "
                             f"held-out confirmation seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in (ROOT / "src" / "sepfront" / "__init__.py", ROOT / "tests" / "pilot_suite.py"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} not found; run from a sepfront checkout",
                  file=sys.stderr)
            return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(workload, args) for workload in selected)


if __name__ == "__main__":
    sys.exit(main())
