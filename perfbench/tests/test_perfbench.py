"""Tests of the benchmark's own logic: self time, summaries, output check, tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import multiprocessing
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import summary  # noqa: E402
import tracing  # noqa: E402


def span(sid, name, start, end, parent=None, unit=0, extra=None):
    return (sid, unit, name, start, end, parent, extra)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; a [20, 21] is a second root
    spans = [
        span(1, "a", 0.0, 10.0),
        span(2, "b", 1.0, 4.0, parent=1),
        span(3, "d", 2.0, 3.0, parent=2),
        span(4, "c", 5.0, 9.0, parent=1),
        span(5, "a", 20.0, 21.0),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"a": 10.0 - 3.0 - 4.0 + 1.0, "b": 2.0, "c": 4.0, "d": 1.0}
    )


def test_summary_median_and_p90_withheld_below_ten_beyond():
    values = list(range(1, 21))  # p90 = 18.1: only 2 samples beyond it
    stats = summary.summarize(values)
    assert stats == {"n": 20, "p50": 10.5, "p90": None}


def test_summary_reports_p90_with_ten_beyond():
    values = list(range(101))  # p90 = 90: samples 91..100 lie beyond it
    stats = summary.summarize(values)
    assert stats["p50"] == 50
    assert stats["p90"] == pytest.approx(90.0)


def test_percentile_interpolates():
    assert summary.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert summary.percentile([5.0], 90) == 5.0


REFERENCE = {7: 9.5}


def test_check_accepts_recorded_value_within_tolerance():
    result = {"index": 7, "improvement_db": 9.5 + 5e-5, "exit_code": 0}
    assert summary.check_scene(result, REFERENCE, 1e-4, {}) is None


def test_check_rejects_perturbed_improvement():
    result = {"index": 7, "improvement_db": 9.5 + 1e-3}
    assert "expected 9.500000" in summary.check_scene(result, REFERENCE, 1e-4, {})


def test_check_rejects_nonzero_exit_code():
    result = {"index": 7, "exit_code": 3, "error": "sepfront exited 3"}
    assert "exit code 3" in summary.check_scene(result, REFERENCE, 1e-4, {})


def test_check_rejects_raised_and_non_finite():
    assert summary.check_scene({"index": 1, "error": "KeyError: 'x'"}, {}, 1e-4, {}) == "KeyError: 'x'"
    problem = summary.check_scene({"index": 1, "improvement_db": float("nan")}, {}, 1e-4, {})
    assert "not finite" in problem


def test_check_unrecorded_scene_must_repeat():
    first_seen = {}
    assert summary.check_scene({"index": 3000, "improvement_db": 4.0}, {}, 1e-4, first_seen) is None
    assert summary.check_scene({"index": 3000, "improvement_db": 4.0}, {}, 1e-4, first_seen) is None
    assert summary.check_scene({"index": 3000, "improvement_db": 4.1}, {}, 1e-4, first_seen)


@pytest.fixture
def sepfront_package():
    import workloads

    return workloads.sepfront


def test_every_binding_is_traced_and_restored(sepfront_package, tmp_path):
    import numpy as np

    from sepfront import cli, dsp, metrics

    original_stft = dsp.stft
    tracer = tracing.Tracer(tmp_path)
    installed = tracing.Installation(tracer, sepfront_package)
    try:
        assert cli.stft is dsp.stft is sepfront_package.stft
        wave = dsp.MultichannelWaveform(np.ones((2, 2048)), 16000)
        cli.stft(wave, dsp.StftConfig(512, 128))
        x = np.sin(np.arange(1000.0))
        metrics.METRIC_FUNCTIONS["si_sdr"](x, x + 0.1)
    finally:
        installed.remove()
    assert dsp.stft is original_stft and cli.stft is original_stft
    assert metrics.METRIC_FUNCTIONS["si_sdr"] is metrics.si_sdr
    assert not hasattr(metrics.si_sdr, "__wrapped__")
    names = [s[2] for s in tracer.collect()]
    assert names.count("dsp.stft") == 1
    assert names.count("metrics.si_sdr") == 1
    assert tracer.collect() == []  # each span is handed out once


def _worker(fn, path):
    fn(path)


def test_forked_worker_spans_are_collected(tmp_path):
    def leaf(path):
        return path

    tracer = tracing.Tracer(tmp_path)
    traced = tracing._wrap(tracer, "demo.leaf", leaf)
    outer = tracing._wrap(tracer, "demo.outer", lambda path: traced(path))
    handle = tracer.open("main.stage")  # open in the parent while the worker forks
    proc = multiprocessing.get_context("fork").Process(target=_worker, args=(outer, str(tmp_path)))
    proc.start()
    proc.join(timeout=30)
    assert not proc.is_alive() and proc.exitcode == 0
    tracer.close(handle, handle[1][1] + 1.0)
    spans = tracer.collect()
    by_name = {s[2]: s for s in spans}
    assert set(by_name) == {"main.stage", "demo.outer", "demo.leaf"}
    assert by_name["demo.outer"][5] is None  # a root in the worker
    assert by_name["demo.leaf"][5] == by_name["demo.outer"][0]
    assert not list(tmp_path.glob("spans-*.jsonl"))


def test_benchmark_json_lists_the_per_layer_metrics():
    import measure

    declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == measure.per_layer_names()
