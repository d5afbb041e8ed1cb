"""Oracle time-frequency masks and mask-based separation.

Oracle masks are computed from ground-truth source and noise images at the
reference microphone and stand in for an external mask estimator. Externally
estimated masks can be imported through the tensor file format instead.
"""

from dataclasses import dataclass

import numpy as np

from . import tensorio
from .dsp import MultichannelWaveform, Spectrogram, istft, stft
from .errors import ConfigurationError, InputError

MASK_EPS = 1e-12

MASK_KINDS = ("ibm", "irm", "psm")


@dataclass(frozen=True)
class MaskSet:
    """Real T-F masks, streams x frames x frequencies: num_speakers speaker
    streams, then at most one noise stream."""

    masks: np.ndarray
    num_speakers: int

    def __post_init__(self):
        masks = np.asarray(self.masks, dtype=np.float64)
        if masks.ndim != 3:
            raise InputError(f"masks must be 3-D, got ndim={masks.ndim}")
        if masks.shape[0] not in (self.num_speakers, self.num_speakers + 1):
            raise InputError(f"{masks.shape[0]} mask streams for {self.num_speakers} speakers, "
                             "not one per speaker plus at most one noise stream")
        if not np.all(masks >= 0.0):
            raise InputError("mask values must be nonnegative (NaN is rejected)")
        object.__setattr__(self, "masks", masks)

    @property
    def speakers(self):
        return self.masks[:self.num_speakers]

    def noise_mask(self):
        """Noise stream, materialized as clip(1 - sum of speaker masks) if absent."""
        if len(self.masks) > self.num_speakers:
            return self.masks[-1]
        residual = 1.0 - self.masks.sum(axis=0)
        return np.clip(residual, 0.0, 1.0)

    def save(self, path):
        tensorio.save_tensor(path, self.masks)

    @classmethod
    def load(cls, path, num_speakers):
        masks = np.asarray(tensorio.load_tensor(path), dtype=np.float64)
        try:
            return cls(np.clip(masks, 0.0, None), num_speakers)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc


def oracle_mask(images, kind, mixture):
    """Oracle masks from ground-truth images at the reference microphone.

    Args:
        images: K+1 single-channel Spectrograms, K source images followed by
            the noise image, all at the same mic and StftConfig as mixture.
        kind: "ibm" (binary, ties to the lowest stream), "irm" (magnitude
            ratio), or "psm" (phase-sensitive, clipped to [0, 1]).
        mixture: single-channel mixture Spectrogram at the same mic.

    Returns:
        MaskSet with K speaker streams plus a noise stream.
    """
    if kind not in MASK_KINDS:
        raise ConfigurationError(f"unsupported mask kind: {kind!r}")
    if len(images) < 2:
        raise InputError("need at least one source image plus the noise image")

    shape = mixture.bins.shape
    stack = []
    for image in images:
        if image.bins.shape != shape:
            raise InputError("all reference spectrograms must match the mixture shape")
        stack.append(image.bins[0])
    refs = np.stack(stack)  # (K+1, T, F)
    mix = mixture.bins[0]

    if kind == "ibm":
        mags = np.abs(refs)
        winner = np.argmax(mags, axis=0)  # first max wins: lowest stream index
        masks = (winner[np.newaxis] == np.arange(len(images))[:, None, None])
        masks = masks.astype(np.float64)
    elif kind == "irm":
        mags = np.abs(refs)
        masks = mags / (mags.sum(axis=0) + MASK_EPS)
    else:  # psm
        proj = np.real(refs * np.conj(mix))
        masks = np.clip(proj / (np.abs(mix) ** 2 + MASK_EPS), 0.0, 1.0)

    return MaskSet(masks, len(images) - 1)


def _reference_spectrogram(waveform, config, ref_mic):
    """STFT of channel ref_mic alone; equals stft(waveform, config).channel(ref_mic)."""
    row = MultichannelWaveform(waveform.channel(ref_mic), waveform.sample_rate)
    return stft(row, config)


def oracle_mask_from_waveforms(mixture, images, kind, config, ref_mic):
    """Oracle masks of a scene from its waveforms, at the reference microphone.

    Only channel ref_mic of each waveform is transformed.

    Args:
        mixture: multichannel mixture waveform.
        images: K source images followed by the noise image, multichannel
            waveforms with the mixture's channels and length.
        kind: "ibm", "irm" or "psm", as in oracle_mask.
        config: StftConfig of the masks.
        ref_mic: reference microphone, the scene's reference_mic.

    Returns:
        MaskSet with K speaker streams plus a noise stream.
    """
    specs = [_reference_spectrogram(image, config, ref_mic) for image in images]
    return oracle_mask(specs, kind, _reference_spectrogram(mixture, config, ref_mic))


def apply_mask(mask, spec):
    """Point-wise product of a real mask with a single-channel spectrogram."""
    mask = np.asarray(mask, dtype=np.float64)
    if spec.num_channels != 1:
        raise InputError("apply_mask expects a single-channel spectrogram")
    if mask.shape != spec.bins.shape[1:]:
        raise InputError(
            f"mask shape {mask.shape} does not match spectrogram "
            f"{spec.bins.shape[1:]}"
        )
    return Spectrogram(
        spec.bins * mask[np.newaxis], spec.config, spec.original_length, spec.sample_rate
    )


def separate_masking(mixture, mask_set, config, ref_mic):
    """Mask-based separation at the reference channel.

    STFT of the mixture's channel ref_mic, per-speaker mask application,
    inverse STFT. The noise stream, if present, is not rendered.

    Returns:
        list of K single-channel MultichannelWaveforms.
    """
    ref = _reference_spectrogram(mixture, config, ref_mic)
    return [istft(apply_mask(mask, ref)) for mask in mask_set.speakers]
