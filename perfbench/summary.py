"""Timing summaries and the output check.

Kept free of sepfront and numpy imports, so its tests run without them.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie above it.
MIN_SAMPLES_BEYOND = 10


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values):
    """Median, and p90 when at least MIN_SAMPLES_BEYOND samples lie beyond it.

    Returns {"n": ..., "p50": ..., "p90": value or None}.
    """
    if not values:
        raise ValueError("no samples to summarize")
    p90 = percentile(values, 90)
    beyond = sum(1 for v in values if v > p90)
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "p90": p90 if beyond >= MIN_SAMPLES_BEYOND else None,
    }


def check_scene(result, reference, tolerance_db, first_seen):
    """Why one scene's result is wrong, or None when it is right.

    Args:
        result: {"index", and "improvement_db" or "error", optional "exit_code"}.
        reference: {scene index: recorded improvement in dB}; scenes not in it
            get the structural check only.
        tolerance_db: largest accepted distance from a recorded value.
        first_seen: {scene index: improvement} of earlier runs of the same
            scene in this process; updated here. A repeat must agree with it.
    """
    if result.get("exit_code", 0) != 0:
        return f"sepfront exit code {result['exit_code']}"
    if "error" in result:
        return result["error"]
    index = result["index"]
    value = result["improvement_db"]
    if not math.isfinite(value):
        return f"scene {index}: improvement {value} is not finite"
    expected = reference.get(index, first_seen.get(index))
    first_seen.setdefault(index, value)
    if expected is not None and abs(value - expected) > tolerance_db:
        return f"scene {index}: improvement {value:.6f} dB, expected {expected:.6f} dB"
    return None
