"""Separation metrics, losses, and permutation-invariant assignment.

SI-SDR measures error after the best scalar fit of the reference; CI-SDR
after the best short FIR fit (Toeplitz-structured least squares). The
composite loss combines waveform and STFT-magnitude L1 terms. PIT alignment
minimizes total cost over stream-to-reference permutations.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dsp import MultichannelWaveform, stft
from .errors import ConfigurationError, InputError

# above this size, exhaustive permutation search gives way to the
# rectangular-assignment solver
EXHAUSTIVE_LIMIT = 6

# ridge added to the diagonal of the CI-SDR Gram matrix
FIR_RIDGE = 1e-12


@dataclass(frozen=True)
class MetricConfig:
    """Knobs shared by the SDR-style metrics."""

    ci_sdr_taps: int = 512
    cap_db: float = 100.0

    def __post_init__(self):
        if self.ci_sdr_taps < 1:
            raise ConfigurationError("ci_sdr_taps must be >= 1")
        if not (np.isfinite(self.cap_db) and self.cap_db > 0):
            raise ConfigurationError("cap_db must be finite and positive")


@dataclass(frozen=True)
class LossWeights:
    """Convex combination of waveform and spectral-magnitude L1 terms."""

    waveform_weight: float = 0.99

    def __post_init__(self):
        if not 0.0 <= self.waveform_weight <= 1.0:
            raise InputError("waveform_weight must lie in [0, 1]")

    @property
    def magnitude_weight(self):
        return 1.0 - self.waveform_weight


@dataclass(frozen=True)
class Assignment:
    """Stream-to-reference permutation with its total cost."""

    permutation: tuple  # permutation[i] = reference index for estimate i
    total_cost: float


def _as_pair(estimate, reference):
    """Both signals as finite single-channel float64 vectors of one length."""
    est, ref = (np.asarray(x, dtype=np.float64) for x in (estimate, reference))
    for x, name in ((est, "estimate"), (ref, "reference")):
        if x.ndim != 1:
            raise InputError(f"{name} must be single-channel (1-D)")
        if not np.all(np.isfinite(x)):
            raise InputError(f"{name} contains NaN or Inf")
    if len(est) != len(ref):
        raise InputError(f"length mismatch: {len(est)} vs {len(ref)}")
    return est, ref


def _ratio_db(signal_power, error_power, cap_db):
    if signal_power <= 0.0:
        return -cap_db
    if error_power <= 0.0:
        return cap_db
    return float(np.clip(10.0 * np.log10(signal_power / error_power), -cap_db, cap_db))


def si_sdr(estimate, reference, config=MetricConfig()):
    """Scale-invariant SDR in dB, capped at +/- cap_db.

    The reference is scaled by alpha = <estimate, reference> / ||reference||^2
    before the error term is formed.
    """
    est, ref = _as_pair(estimate, reference)
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise InputError("reference signal is all-zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    return _ratio_db(
        float(np.dot(target, target)),
        float(np.sum((target - est) ** 2)),
        config.cap_db,
    )


def _fir_fit(estimate, reference, taps):
    """Least-squares FIR h minimizing ||estimate - conv(reference, h)[:L]||.

    The Gram matrix of the shifted reference columns is the autocorrelation
    Toeplitz matrix minus a rank-limited tail correction from the truncation
    at L; both parts are computed exactly and the system is solved directly
    with a ridge of FIR_RIDGE on the diagonal.
    """
    L = len(reference)
    r = np.array([np.dot(reference[: L - d], reference[d:]) for d in range(taps)])
    idx = np.abs(np.arange(taps)[:, None] - np.arange(taps)[None, :])
    gram = r[idx]
    # column i is truncated at L, losing the last i reference samples;
    # entry (i, j) of the exact Gram loses sum_p ref[L-i+p]*ref[L-j+p]
    tail = np.zeros((taps, taps), dtype=np.float64)
    for i in range(1, taps):
        tail[:i, i] = reference[L - i:]
    gram = gram - tail.T @ tail
    gram[np.diag_indices(taps)] += FIR_RIDGE

    cross = np.array([np.dot(estimate[i:], reference[: L - i]) for i in range(taps)])
    h = np.linalg.solve(gram, cross)
    fitted = np.convolve(reference, h)[:L]
    return h, fitted


def ci_sdr(estimate, reference, config=MetricConfig()):
    """Convolutive-transfer-function-invariant SDR in dB, capped at +/- cap_db.

    Fits a length-ci_sdr_taps FIR of the reference to the estimate in the
    least-squares sense and scores the residual.
    """
    est, ref = _as_pair(estimate, reference)
    if len(ref) < config.ci_sdr_taps:
        raise InputError(
            f"signals of length {len(ref)} shorter than the {config.ci_sdr_taps}-tap filter"
        )
    if float(np.dot(ref, ref)) == 0.0:
        raise InputError("reference signal is all-zero")
    _, fitted = _fir_fit(est, ref, config.ci_sdr_taps)
    return _ratio_db(
        float(np.dot(fitted, fitted)),
        float(np.sum((est - fitted) ** 2)),
        config.cap_db,
    )


def waveform_spectral_l1(estimate, reference, stft_config, weights=LossWeights()):
    """Weighted sum of waveform L1 and STFT-magnitude L1 (means over elements)."""
    est, ref = _as_pair(estimate, reference)
    wave_term = float(np.mean(np.abs(est - ref)))
    fs = 16000  # magnitude term is sample-rate agnostic
    mag_est = np.abs(stft(MultichannelWaveform(est, fs), stft_config).bins)
    mag_ref = np.abs(stft(MultichannelWaveform(ref, fs), stft_config).bins)
    mag_term = float(np.mean(np.abs(mag_est - mag_ref)))
    return weights.waveform_weight * wave_term + weights.magnitude_weight * mag_term


def pit_assign(cost_matrix):
    """Minimum-cost stream-to-reference assignment.

    Exhaustive search (lexicographically smallest tie-break) up to 6 streams,
    rectangular-assignment solver above.
    """
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise InputError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise InputError("cost matrix contains NaN or Inf")
    k = cost.shape[0]

    if k <= EXHAUSTIVE_LIMIT:
        best_perm = None
        best_cost = np.inf
        for perm in permutations(range(k)):
            total = sum(cost[i, perm[i]] for i in range(k))
            if total < best_cost:  # strict: first (lexicographic) optimum wins
                best_cost = total
                best_perm = perm
        return Assignment(permutation=best_perm, total_cost=float(best_cost))

    rows, cols = linear_sum_assignment(cost)
    perm = tuple(int(cols[np.where(rows == i)[0][0]]) for i in range(k))
    return Assignment(permutation=perm, total_cost=float(cost[rows, cols].sum()))


METRIC_FUNCTIONS = {"si_sdr": si_sdr, "ci_sdr": ci_sdr}


def evaluate_separation(estimates, references, metric="si_sdr", config=MetricConfig()):
    """PIT-aligned per-speaker scores.

    Builds the K x K metric matrix, solves the assignment on negated dB, and
    returns the aligned scores.

    Returns:
        dict with "assignment" (Assignment), "per_speaker_db" (list, indexed
        by estimate stream), and "mean_db".
    """
    if metric not in METRIC_FUNCTIONS:
        raise InputError(f"unknown metric: {metric!r}")
    if len(estimates) != len(references):
        raise InputError(
            f"{len(estimates)} estimates vs {len(references)} references"
        )
    metric_fn = METRIC_FUNCTIONS[metric]
    k = len(estimates)
    scores = np.empty((k, k), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            scores[i, j] = metric_fn(estimates[i], references[j], config)
    assignment = pit_assign(-scores)
    per_speaker = [float(scores[i, assignment.permutation[i]]) for i in range(k)]
    return {
        "assignment": assignment,
        "per_speaker_db": per_speaker,
        "mean_db": float(np.mean(per_speaker)),
    }
