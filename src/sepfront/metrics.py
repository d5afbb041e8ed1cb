"""Separation metrics, losses, and permutation-invariant assignment.

SI-SDR measures error after the best scalar fit of the reference; CI-SDR
after the best short FIR fit (least squares from its normal equations, with
correlations taken block by block). The composite loss combines waveform and
STFT-magnitude L1 terms. PIT alignment minimizes total cost over
stream-to-reference permutations.

Each function that calls scipy imports the module it calls where it calls
it: CI-SDR scipy.linalg, pit_assign above EXHAUSTIVE_LIMIT streams
scipy.optimize. So importing sepfront loads no part of scipy, and a process
that scores only SI-SDR never does. CI-SDR finds its FFT lengths itself
(_next_fast_len), not with scipy.fft. A caller that forks workers or sets
BLAS thread counts imports scipy.linalg first (cli.run does, for CI-SDR).
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import MultichannelWaveform, stft
from .errors import ConfigurationError, InputError

# above this size, exhaustive permutation search gives way to the
# rectangular-assignment solver
EXHAUSTIVE_LIMIT = 6

# ridge added to the diagonal of the CI-SDR Gram matrix, relative to the
# reference's energy, so a score does not depend on either signal's scale
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
    signature, so METRIC_FUNCTIONS calls either the same way. Like ci_sdr it
    makes no numpy BLAS call: a threaded BLAS dot splits its sum by the
    thread count, so the score would depend on it.
    """
    est, ref = _as_pair(estimate, reference)
    ref_energy = float(np.sum(ref * ref))
    if ref_energy == 0.0:
        raise InputError("reference signal is all-zero")
    alpha = float(np.sum(est * ref)) / ref_energy
    target = alpha * ref
    return _ratio_db(float(np.sum(target * target)), float(np.sum((target - est) ** 2)))


# the CI-SDR system of the last reference fitted: (taps, a copy of the
# reference, block length, the conjugated spectra of the reference's blocks,
# the ridge, the Cholesky factor of its ridged Gram matrix); a scene
# scores every estimate against one reference before it moves to the next, so
# each reference's system is built once; score_matrix lets it go when done
_last_system = None

# below this share of the estimate's energy, the error energy that the normal
# equations give has lost too many digits to cancellation (a score of about
# 30 dB or more), and the pair is scored from the fitted signal instead
_IDENTITY_ERROR_FLOOR = 1e-3


def _next_fast_len(n):
    """The smallest 2**a * 3**b * 5**c >= n, which is what
    scipy.fft.next_fast_len(n, real=True) gives, in exact integers: for each
    3**b * 5**c below the best length yet, the least power of 2 it needs."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lags(signal, n, spectra, taps):
    """sum over t of signal[t + d] * reference[t] for the lags d = 0..taps-1.

    Overlap-save over the reference's blocks: with hop = n - taps + 1, block
    b holds reference[b*hop : (b+1)*hop] zero-padded to n, and spectra[b] is
    its conjugated spectrum. Each is correlated with the n samples of signal
    from b*hop on, zero past its end, so no lag below taps wraps around.
    """
    hop = n - taps + 1
    padded = np.zeros((len(spectra) - 1) * hop + n)
    padded[:len(signal)] = signal
    segments = sliding_window_view(padded, n)[::hop]
    return np.fft.irfft(np.sum(np.fft.rfft(segments) * spectra, axis=0), n)[:taps]


def _fir_system(reference, taps):
    """(block length, block spectra, ridge, Cholesky factor) of the
    least-squares system that fits a taps-long FIR of reference to an
    estimate.

    The reference's autocorrelation at lags 0..taps-1 comes from _lags over
    blocks of a length n of at least 4*taps and 1024 with only small prime
    factors, so at least three quarters of each block is new samples and
    each pair's cross-correlation costs one batched short transform, not a
    transform of length L + taps - 1.
    Column i of the system is the reference delayed by i and truncated at L,
    so entry (i, i+d) of its Gram matrix is r[d] minus what the truncation
    loses, sum over p < i of rev[p]*rev[p+d] with rev the reversed
    reference: a cumulative sum down the rows of a (taps, taps+1) buffer
    whose row i, column d lies at gram[i, i+d] once the buffer is read with
    a row length of taps. Only that upper triangle is filled, which is all
    the factorization reads. The ridge is FIR_RIDGE times the reference's
    energy. The last reference's system is kept and reused while the next
    call's reference and taps are equal to it.
    """
    global _last_system
    last = _last_system
    if last is not None and last[0] == taps and np.array_equal(last[1], reference):
        return last[2:]
    from scipy.linalg import cho_factor

    energy = np.sum(reference * reference)
    if energy == 0.0:
        raise InputError("reference signal is all-zero")
    L = len(reference)
    n = _next_fast_len(max(4 * taps, 1024))
    hop = n - taps + 1
    count = -(-L // hop)
    blocks = np.zeros(count * hop)
    blocks[:L] = reference
    spectra = np.conj(np.fft.rfft(blocks.reshape(count, hop), n))
    r = _lags(reference, n, spectra, taps)
    rev = np.zeros(2 * taps)
    rev[:taps] = reference[::-1][:taps]
    skewed = np.empty((taps, taps + 1))
    skewed[0] = 0.0
    np.multiply(rev[:taps - 1, None], sliding_window_view(rev, taps + 1)[:taps - 1],
                out=skewed[1:])
    np.cumsum(skewed, axis=0, out=skewed)
    np.subtract(np.append(r, 0.0), skewed, out=skewed)
    gram = skewed.reshape(-1)[:taps * taps].reshape(taps, taps)
    ridge = FIR_RIDGE * energy
    gram.flat[::taps + 1] += ridge
    # the transpose is Fortran-ordered, so LAPACK factors it in place; its
    # lower triangle is gram's upper one
    factor = cho_factor(gram.T, lower=True, overwrite_a=True, check_finite=False)
    _last_system = (taps, reference.copy(), n, spectra, ridge, factor)
    return n, spectra, ridge, factor


def ci_sdr(estimate, reference, config=MetricConfig()):
    """Convolutive-transfer-function-invariant SDR in dB, capped at +/- CAP_DB.

    Fits a length-ci_sdr_taps FIR h of the reference to the estimate in the
    least-squares sense and scores the residual. With c the cross-correlation
    and lam the ridge, h solves (G + lam I) h = c, so the fitted signal's
    energy is h.c - lam |h|^2 and the residual's is |est|^2 - h.c - lam |h|^2;
    the fitted signal itself is formed only when the residual is too small
    for that difference to keep its digits. Its LAPACK calls are scipy's, and
    it makes no numpy BLAS call, so it keeps one BLAS thread pool busy, not
    two. Its first call in a process imports scipy.linalg.
    """
    est, ref = _as_pair(estimate, reference)
    taps = config.ci_sdr_taps
    if len(ref) < taps:
        raise InputError(f"signals of length {len(ref)} shorter than the {taps}-tap filter")
    from scipy.linalg import cho_solve

    n, spectra, ridge, factor = _fir_system(ref, taps)
    cross = _lags(est, n, spectra, taps)
    h = cho_solve(factor, cross, check_finite=False)
    fit = np.sum(h * cross)
    penalty = ridge * np.sum(h * h)
    energy = np.sum(est * est)
    error = energy - fit - penalty
    if error > _IDENTITY_ERROR_FLOOR * energy:
        return _ratio_db(float(fit - penalty), float(error))
    full = _next_fast_len(len(ref) + taps - 1)
    fitted = np.fft.irfft(np.fft.rfft(ref, full) * np.fft.rfft(h, full), full)[:len(ref)]
    return _ratio_db(float(np.sum(fitted * fitted)), float(np.sum((est - fitted) ** 2)))


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

    # imported here, its only use, so importing sepfront does not load scipy.optimize
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    perm = tuple(int(cols[np.where(rows == i)[0][0]]) for i in range(k))
    return Assignment(permutation=perm, total_cost=float(cost[rows, cols].sum()))


METRIC_FUNCTIONS = {"si_sdr": si_sdr, "ci_sdr": ci_sdr}


def score_matrix(estimates, references, metric="si_sdr", config=MetricConfig()):
    """(E, R) matrix of metric(estimates[i], references[j], config) in dB.

    It is filled one reference at a time, so CI-SDR builds each reference's
    system once for all the estimates scored against it. The last system is
    let go when the matrix is done: kept past the scene, its 3 MB (at 512
    taps) sat amid the heap that the next scene's arrays reuse.
    """
    global _last_system
    if metric not in METRIC_FUNCTIONS:
        raise InputError(f"unknown metric: {metric!r}")
    metric_fn = METRIC_FUNCTIONS[metric]
    scores = np.empty((len(estimates), len(references)), dtype=np.float64)
    try:
        for j, reference in enumerate(references):
            for i, estimate in enumerate(estimates):
                scores[i, j] = metric_fn(estimate, reference, config)
    finally:
        _last_system = None
    return scores


def evaluate_separation(mixture, estimates, references, metric="si_sdr", config=MetricConfig()):
    """Scores of a scene's unprocessed mixture and of its PIT-aligned estimates.

    One score_matrix of [mixture, *estimates] against the references: row 0
    scores the mixture, and the assignment is solved on the negated rows 1..K.
    So CI-SDR builds each reference's system once per scene.

    Returns:
        dict with "input_db" (list, the mixture's score per reference),
        "assignment" (Assignment), "per_speaker_db" (list, indexed by
        estimate stream), and "mean_db".
    """
    if len(estimates) != len(references):
        raise InputError(f"{len(estimates)} estimates vs {len(references)} references")
    scores = score_matrix([mixture, *estimates], references, metric, config)
    assignment = pit_assign(-scores[1:])
    per_speaker = [float(scores[1 + i, j]) for i, j in enumerate(assignment.permutation)]
    return {
        "input_db": scores[0].tolist(),
        "assignment": assignment,
        "per_speaker_db": per_speaker,
        "mean_db": float(np.mean(per_speaker)),
    }
