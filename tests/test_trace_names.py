"""The benchmark's stage spans and per-scene call counts hold for the CLI.

perfbench times each CLI stage and each pool task under the names of the
functions it wraps (perfbench/tracing.py), and it fails a traced run whose
calls per scene differ from those it asserts (perfbench/workloads.py). This
runs one pilot scene through the configurations of both CLI workloads under
that tracer, so a change to the scene tasks that the benchmark would read as
0 ms, or as a changed count, fails here too.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import pilot_suite
from sepfront import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("method, metric, expected_calls", [
    ("mvdr", "si_sdr", workloads.EXPECTED_CALLS_MVDR),
    ("masking", "ci_sdr", {"metrics.ci_sdr": 6}),
], ids=["mvdr-si_sdr", "masking-ci_sdr"])
def test_traced_run_all_has_the_benchmark_spans(method, metric, expected_calls, tmp_path):
    manifest = pilot_suite.write_cli_suite(tmp_path, 1)
    config = cli.load_config(None, {"scene_manifest": str(manifest),
                                    "output_dir": str(tmp_path / "out"), "jobs": 1})
    config["separator"]["method"] = method
    config["metric"]["name"] = metric
    tracer = tracing.Tracer(tmp_path)
    installed = tracing.Installation(tracer, workloads.sepfront)
    try:
        cli.run(config)
    finally:
        installed.remove()
    counts = Counter(span[2] for span in tracer.collect())
    spans = [*measure.STAGES.values(), *(f"cli.{task}" for task in tracing.POOL_TASKS)]
    assert [name for name in spans if counts[name] == 0] == []
    assert {name: counts[name] for name in expected_calls} == expected_calls
