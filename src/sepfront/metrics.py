"""Separation metrics, losses, and permutation-invariant assignment.

SI-SDR measures error after the best scalar fit of the reference; CI-SDR
after the best short FIR fit (Toeplitz-structured least squares). The
composite loss combines waveform and STFT-magnitude L1 terms. PIT alignment
minimizes total cost over stream-to-reference permutations.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz
from scipy.optimize import linear_sum_assignment

from .dsp import MultichannelWaveform, stft
from .errors import ConfigurationError, InputError

# above this size, exhaustive permutation search gives way to the
# rectangular-assignment solver
EXHAUSTIVE_LIMIT = 6

# ridge added to the diagonal of the CI-SDR Gram matrix
FIR_RIDGE = 1e-12

# SI-SDR and CI-SDR scores are clipped to +/- CAP_DB
CAP_DB = 100.0


@dataclass(frozen=True)
class MetricConfig:
    """Knobs shared by the SDR-style metrics."""

    ci_sdr_taps: int = 512

    def __post_init__(self):
        if self.ci_sdr_taps < 1:
            raise ConfigurationError("ci_sdr_taps must be >= 1")


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


def _ratio_db(signal_power, error_power):
    if signal_power <= 0.0:
        return -CAP_DB
    if error_power <= 0.0:
        return CAP_DB
    return float(np.clip(10.0 * np.log10(signal_power / error_power), -CAP_DB, CAP_DB))


def si_sdr(estimate, reference, config=MetricConfig()):
    """Scale-invariant SDR in dB, capped at +/- CAP_DB.

    The reference is scaled by alpha = <estimate, reference> / ||reference||^2
    before the error term is formed. config is unused; it keeps ci_sdr's
    signature, so METRIC_FUNCTIONS calls either the same way.
    """
    est, ref = _as_pair(estimate, reference)
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise InputError("reference signal is all-zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    return _ratio_db(float(np.dot(target, target)), float(np.sum((target - est) ** 2)))


def _fir_fit(estimate, reference, taps):
    """conv(reference, h)[:L] for the least-squares FIR h minimizing
    ||estimate - conv(reference, h)[:L]||.

    The reference's autocorrelation and its cross-correlation with the
    estimate, at lags 0..taps-1, come from one batched real FFT. Its length
    is at least L + taps - 1, so no lag wraps around, and is rounded up to a
    length with only small prime factors, because a transform of a length
    with a large prime factor (64 511 for 4 s and 512 taps) is ~20x slower.
    The Gram matrix of the shifted reference columns is the autocorrelation
    Toeplitz matrix minus the exact correction for the truncation at L, one
    matmul of the reference's last taps samples; the system is solved
    directly with a ridge of FIR_RIDGE on the diagonal. The fit reuses the
    reference's spectrum.
    """
    L = len(reference)
    n = next_fast_len(L + taps - 1, real=True)
    spectra = np.fft.rfft(np.stack([reference, estimate]), n)
    r, cross = np.fft.irfft(spectra * np.conj(spectra[0]), n)[:, :taps]
    # column i is truncated at L, losing the last i reference samples;
    # entry (i, j) of the exact Gram loses sum_p ref[L-i+p]*ref[L-j+p] over
    # p < min(i, j): row i of lost is the window of padded at taps - i
    padded = np.concatenate([reference[L - taps:], np.zeros(taps)])
    lost = sliding_window_view(padded, taps)[:0:-1]
    gram = toeplitz(r) - lost @ lost.T
    gram[np.diag_indices(taps)] += FIR_RIDGE

    h = np.linalg.solve(gram, cross)
    return np.fft.irfft(spectra[0] * np.fft.rfft(h, n), n)[:L]


def ci_sdr(estimate, reference, config=MetricConfig()):
    """Convolutive-transfer-function-invariant SDR in dB, capped at +/- CAP_DB.

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
    fitted = _fir_fit(est, ref, config.ci_sdr_taps)
    return _ratio_db(float(np.dot(fitted, fitted)), float(np.sum((est - fitted) ** 2)))


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
