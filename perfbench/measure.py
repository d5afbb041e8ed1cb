"""One benchmark process: set up a workload, then run its timed closed loop.

Started by run.py in a fresh interpreter. It prints one JSON object on
stdout. With --setup-only it prepares the inputs, reports the set-up time and
exits. Otherwise it runs one untimed warm-up unit and then units back to back
for --seconds, and on until every scene of the set has run once. With --trace 1
the units alternate untraced and traced, and the traced ones give the
per-layer metrics.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports numpy and sepfront: part of set-up)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A run stops starting units after this long, whatever --seconds says, so
# the whole benchmark ends well within its time limit.
HARD_LIMIT_S = 120.0

STAGES = {"cli.simulate": "cli.cmd_simulate", "cli.separate": "cli.cmd_separate",
          "cli.evaluate": "cli.cmd_evaluate"}

SELF_MS = (
    "simulate.render_scene", "simulate.fractional_delay", "simulate.input_sdr",
    "dsp.stft", "dsp.istft", "masks.oracle_mask", "masks.separate_masking",
    "beamform.spatial_covariance", "beamform.mvdr_weights", "beamform.apply_beamformer",
    "beamform.separate_mvdr", "metrics.si_sdr", "metrics.ci_sdr",
    "metrics.evaluate_separation", "audio_io.read_wav", "audio_io.write_wav",
)
CALLS = (
    "simulate.fractional_delay", "dsp.stft", "dsp.istft", "beamform.spatial_covariance",
    "beamform.mvdr_weights", "metrics.si_sdr", "metrics.ci_sdr", "audio_io.read_wav",
    "audio_io.write_wav",
)
EXTRA_SUMS = {
    "dsp.stft.channel_frames": ("dsp.stft", "channel_frames"),
    "audio_io.read_wav.bytes": ("audio_io.read_wav", "bytes"),
    "audio_io.write_wav.bytes": ("audio_io.write_wav", "bytes"),
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {f"{n}.ms": "ms" for n in SELF_MS}
    names.update({f"{n}.calls": "count" for n in CALLS})
    names.update({m: "count" if m.endswith("frames") else "B" for m in EXTRA_SUMS})
    names.update({
        "audio_io.read_wav.unique_ratio": "ratio",
        "beamform.passthrough_ratio": "ratio",
    })
    names.update({f"{stage}.ms": "ms" for stage in STAGES})
    names.update({"cli.pool_busy_ratio": "ratio", "trace.overhead_ratio": "ratio"})
    return names


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pool_start_method": multiprocessing.get_context().get_start_method(),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if it is not found."""
    with open("/proc/self/maps", "r", encoding="utf-8") as f:
        libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", f.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_mb():
    """This process's peak RSS plus the largest peak of its finished workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # ru_maxrss is in KiB on Linux


class Loop:
    """Runs units, checks each scene and keeps the timings."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = {int(k): v for k, v in reference.get("scenes", {}).items()}
        self.tolerance = reference.get("tolerance_db", 0.0)
        self.first_seen = {}
        self.attempted = 0
        self.failures = []

    def run(self, n):
        wall, results = self.workload.run_unit(n)
        for result in results:
            self.attempted += 1
            problem = summary.check_scene(result, self.reference, self.tolerance, self.first_seen)
            if problem is not None:
                self.failures.append(problem)
                print(f"failed: {problem}", file=sys.stderr)
        return wall, results


def timed_loop(loop, seconds, trace, tracer, package):
    """Units back to back; returns (untraced, traced) lists of (wall, scenes) and spans."""
    untraced, traced, spans = [], [], []
    loop.run(0)  # warm-up: untimed, but checked
    need = set(loop.workload.indices)
    started = time.perf_counter()
    n = 1
    while True:
        traced_unit = trace and n % 2 == 0
        if traced_unit:
            tracer.unit = n
            installed = tracing.Installation(tracer, package, [workloads.pilot_suite])
            try:
                wall, results = loop.run(n)
            finally:
                installed.remove()
            spans.extend(tracer.collect())
            traced.append((wall, len(results)))
        else:
            wall, results = loop.run(n)
            untraced.append((wall, len(results)))
        need.difference_update(r["index"] for r in results)
        n += 1
        elapsed = time.perf_counter() - started
        if elapsed > HARD_LIMIT_S:
            break
        if elapsed >= seconds and not need and (traced or not trace):
            break
    return untraced, traced, spans


def end_to_end(loop, untraced):
    walls = [w for w, _ in untraced]
    scenes = sum(s for _, s in untraced)
    per_scene_ms = [1000.0 * w / s for w, s in untraced]
    stats = summary.summarize(per_scene_ms)
    values = [loop.first_seen[i] for i in loop.workload.indices if i in loop.first_seen]
    return {
        "scenes_per_s": scenes / sum(walls),
        "scene_ms_p50": stats["p50"],
        "peak_rss_mb": peak_rss_mb(),
        "improvement_db": sum(values) / len(values) if values else float("nan"),
    }, stats


def per_layer(workload, untraced, traced, spans):
    scenes = sum(s for _, s in traced)
    selfs = tracing.self_times(spans)
    counts = Counter(span[2] for span in spans)
    durations = defaultdict(float)
    extras = defaultdict(float)
    paths = defaultdict(set)  # unit -> distinct read paths
    worker_busy = 0.0
    for _, unit, name, start, end, parent, extra in spans:
        durations[name] += end - start
        for key, value in (extra or {}).items():
            if key == "path":
                paths[unit].add(value)
            else:
                extras[(name, key)] += value
        if parent is None and name.startswith("cli._"):
            worker_busy += end - start  # pool task spans, in whichever process ran them

    metrics = {f"{n}.ms": 1000.0 * selfs.get(n, 0.0) / scenes for n in SELF_MS}
    metrics.update({f"{n}.calls": counts[n] / scenes for n in CALLS})
    metrics.update({m: extras[key] / scenes for m, key in EXTRA_SUMS.items()})
    reads = counts["audio_io.read_wav"]
    metrics["audio_io.read_wav.unique_ratio"] = (
        sum(len(p) for p in paths.values()) / reads if reads else 0.0
    )
    bins = extras[("beamform.separate_mvdr", "speaker_bins")]
    metrics["beamform.passthrough_ratio"] = (
        extras[("beamform.separate_mvdr", "passthrough")] / bins if bins else 0.0
    )
    stage_wall = 0.0
    for metric, span_name in STAGES.items():
        metrics[f"{metric}.ms"] = 1000.0 * durations[span_name] / scenes
        stage_wall += durations[span_name]
    pooled = workload.jobs > 1 and stage_wall > 0.0
    metrics["cli.pool_busy_ratio"] = worker_busy / (workload.jobs * stage_wall) if pooled else 0.0
    traced_rate = sum(w for w, _ in traced) / scenes
    untraced_rate = sum(w for w, _ in untraced) / sum(s for _, s in untraced)
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate - 1.0
    units = per_layer_names()
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    mismatches = [
        f"{name}: {counts[name] / scenes:g} calls per scene, expected {expected}"
        for name, expected in workload.expected_calls.items()
        if counts[name] != expected * scenes
    ]
    return metrics, mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(REFERENCE_PATH, "r", encoding="utf-8") as f:
        reference = json.load(f).get(args.workload, {})
    tracer = tracing.Tracer(args.workdir)
    loop = Loop(workload, reference)
    try:
        untraced, traced, spans = timed_loop(
            loop, args.seconds, args.trace == 1, tracer, workloads.sepfront
        )
    finally:
        workload.close()

    out = {
        "setup_s": setup_s,
        "env": environment(),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
    }
    metrics, stats = end_to_end(loop, untraced)
    out["end_to_end"] = metrics
    out["scene_ms"] = stats
    out["units"] = {"untraced": len(untraced), "traced": len(traced)}
    if args.trace == 1:
        layers, mismatches = per_layer(workload, untraced, traced, spans)
        if mismatches and not loop.failures:  # a failed scene stops short of its calls
            for line in mismatches:
                print(f"trace call count mismatch: {line}", file=sys.stderr)
            return 3
        out["per_layer"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
