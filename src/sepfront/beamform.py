"""Mask-weighted spatial covariances and Souden-form MVDR beamforming.

Per frequency f the covariance of a stream is the mask-weighted average of
outer products z[t,f] z[t,f]^H. MVDR weights are the trace-normalized product
of the inverted interference covariance with the target covariance, selected
at the reference microphone. All per-frequency computations are independent.

Both spectrogram kernels work on the frequency-major layout
Spectrogram.freq_major, an (F, M, T) copy of the (M, T, F) bins built once
per spectrogram. In it each frequency is one contiguous M x T matrix, so the
covariance of a stream is batched matmuls (M x T by T x M per frequency) and
the beamformer one batched (1 x M) by (M x T) product, both run by BLAS.
The copy is shared by the three covariance calls and the beamformer calls of
a separation, so the transpose is paid once. The covariance weights one
block of frequencies at a time (_BLOCK_BYTES), so the weighted copy is read
back from cache and never exists for the whole grid.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram, istft, stft
from .errors import ConfigurationError, InputError

DEFAULT_LOADING = 1e-7

HERMITIAN_TOL = 1e-8

TRACE_TOL = 1e-12

# Size of spatial_covariance's weighted block of frequencies: small enough to
# be still in cache when the matmul reads it back
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SpatialCovarianceSet:
    """Per-frequency Hermitian covariance matrices with their mask mass."""

    matrices: np.ndarray  # (F, M, M) complex
    mass: np.ndarray  # (F,) real, sum of mask weights per frequency
    zero_mass: np.ndarray  # (F,) bool, frequencies with no mask support


@dataclass(frozen=True)
class BeamformerWeights:
    """Per-frequency M-vectors for one speaker, applied as w^H z."""

    weights: np.ndarray  # (F, M) complex
    passthrough: np.ndarray  # (F,) bool, degenerate freqs using u


def spatial_covariance(spec, mask):
    """Mask-weighted spatial covariance of a multichannel spectrogram.

    V[f] = sum_t mask[t,f] z[t,f] z[t,f]^H / sum_t mask[t,f]. Frequencies with
    zero mask mass yield the zero matrix and are flagged in zero_mass.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != spec.bins.shape[1:]:
        raise InputError(
            f"mask shape {mask.shape} does not match spectrogram grid "
            f"{spec.bins.shape[1:]}"
        )
    if not np.all(mask >= 0.0):
        raise InputError("mask values must be nonnegative (NaN is rejected)")

    z = spec.freq_major  # (F, M, T)
    num_mics = spec.num_channels
    weighted = np.empty((spec.num_bins, num_mics, num_mics), dtype=np.complex128)
    step = max(1, _BLOCK_BYTES // z[0].nbytes)
    for lo in range(0, spec.num_bins, step):
        block = z[lo:lo + step]
        # conj(mask z) z^T is the conjugate of V's sum: conjugating the weighted
        # block in place, and the product once below, needs no conj(z) copy
        y = mask.T[lo:lo + step, np.newaxis, :] * block
        np.matmul(np.conjugate(y, out=y), block.transpose(0, 2, 1), out=weighted[lo:lo + step])
    np.conjugate(weighted, out=weighted)
    mass = mask.sum(axis=0)
    zero = mass <= 0.0
    matrices = np.zeros_like(weighted)
    matrices[~zero] = weighted[~zero] / mass[~zero, np.newaxis, np.newaxis]
    # symmetrize to remove rounding-level Hermitian drift
    matrices = 0.5 * (matrices + np.conj(np.swapaxes(matrices, 1, 2)))
    return SpatialCovarianceSet(matrices=matrices, mass=mass, zero_mass=zero)


def interference_covariance(all_covs, target):
    """Sum of every non-target stream's covariance (noise included).

    Args:
        all_covs: per-stream SpatialCovarianceSet list, noise stream last or
            anywhere among them.
        target: index of the target stream inside all_covs.
    """
    if not 0 <= target < len(all_covs):
        raise ConfigurationError(f"target stream {target} out of range")
    others = [cov for i, cov in enumerate(all_covs) if i != target]
    if not others:
        raise ConfigurationError("no non-target streams to build interference from")
    matrices = sum(cov.matrices for cov in others)
    mass = sum(cov.mass for cov in others)
    zero = np.all([cov.zero_mass for cov in others], axis=0)
    return SpatialCovarianceSet(matrices=matrices, mass=mass, zero_mass=zero)


def _check_hermitian(matrices, name):
    drift = np.abs(matrices - np.conj(np.swapaxes(matrices, 1, 2))).max()
    scale = max(np.abs(matrices).max(), 1e-300)
    if drift > HERMITIAN_TOL * scale:
        raise InputError(f"{name} covariance is not Hermitian within tolerance")


def mvdr_weights(target, interference, ref_mic):
    """Souden-form MVDR weights per frequency.

    Per frequency: diagonal-load the interference covariance with
    DEFAULT_LOADING * trace/M, solve for inv(V_i) V_t, trace-normalize, and
    take the reference-mic column. Frequencies with near-zero trace fall back to the
    one-hot passthrough weight and are flagged.
    """
    vt = target.matrices
    vi = interference.matrices
    if vt.shape != vi.shape:
        raise InputError("target and interference covariance shapes differ")
    num_freqs, num_mics, _ = vt.shape
    if not 0 <= ref_mic < num_mics:
        raise ConfigurationError(
            f"ref_mic {ref_mic} out of range for {num_mics} channels"
        )
    _check_hermitian(vt, "target")
    _check_hermitian(vi, "interference")

    trace_i = np.real(np.trace(vi, axis1=1, axis2=2))
    solved = np.flatnonzero(trace_i > 0.0)
    loading_term = (DEFAULT_LOADING * trace_i[solved] / num_mics)[:, np.newaxis, np.newaxis]
    ratio = np.linalg.solve(vi[solved] + loading_term * np.eye(num_mics), vt[solved])
    tr = np.trace(ratio, axis1=1, axis2=2)
    usable = np.abs(tr) >= TRACE_TOL * num_mics
    kept = solved[usable]

    weights = np.zeros((num_freqs, num_mics), dtype=np.complex128)
    weights[:, ref_mic] = 1.0
    weights[kept] = ratio[usable, :, ref_mic] / tr[usable, np.newaxis]
    passthrough = np.ones(num_freqs, dtype=bool)
    passthrough[kept] = False
    return BeamformerWeights(weights=weights, passthrough=passthrough)


def apply_beamformer(weights, spec):
    """Beamformer output S[t,f] = w[f]^H z[t,f] as a single-channel spectrogram."""
    w = weights.weights
    if w.shape[1] != spec.num_channels or w.shape[0] != spec.num_bins:
        raise InputError(
            f"weights of shape {w.shape} do not match spectrogram "
            f"({spec.num_channels} channels, {spec.num_bins} bins)"
        )
    out = (np.conj(w)[:, np.newaxis, :] @ spec.freq_major)[:, 0, :].T  # (T, F)
    return Spectrogram(
        out[np.newaxis], spec.config, spec.original_length, spec.sample_rate
    )


def separate_mvdr(mixture, mask_set, config, ref_mic):
    """Full mask-based MVDR chain: STFT, covariances, MVDR, inverse STFT.

    The noise covariance uses the mask set's noise stream, materialized as
    the clipped residual mask when no explicit noise stream exists.

    Returns:
        (waveforms, flags): K single-channel MultichannelWaveforms and a list
        of per-speaker dicts with passthrough/zero-mass frequency counts.
    """
    spec = stft(mixture, config)
    covs = [spatial_covariance(spec, mask) for mask in mask_set.speakers]
    noise_cov = spatial_covariance(spec, mask_set.noise_mask())

    waveforms = []
    flags = []
    for pos, cov in enumerate(covs):
        interference = interference_covariance(covs + [noise_cov], pos)
        weights = mvdr_weights(cov, interference, ref_mic)
        beamformed = apply_beamformer(weights, spec)
        waveforms.append(istft(beamformed))
        flags.append(
            {
                "passthrough_freqs": int(weights.passthrough.sum()),
                "zero_mass_freqs": int(cov.zero_mass.sum()),
                "loading": DEFAULT_LOADING,
            }
        )
    return waveforms, flags
