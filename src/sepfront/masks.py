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
        if not np.all(np.isfinite(masks)):
            raise InputError("mask values must be finite")
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
        # a signaling NaN would warn in the cast; MaskSet rejects it as any NaN
        with np.errstate(invalid="ignore"):
            masks = tensorio.load_tensor(path).astype(np.float64)
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
    return _oracle_masks(kind, len(images), lambda k: images[k].bins, mixture.bins)


def _oracle_masks(kind, count, spectrum, mixture):
    """MaskSet of count streams, filled one stream at a time.

    spectrum(k) gives the bins of stream k at the reference mic, shaped as
    mixture, the mixture's bins there; channel 0 of each is used. ibm and irm
    take each stream's magnitude, psm its projection on the mixture; ibm's
    argmax and irm's normalization then work on those in place.
    """
    if kind not in MASK_KINDS:
        raise ConfigurationError(f"unsupported mask kind: {kind!r}")
    if count < 2:
        raise InputError("need at least one source image plus the noise image")
    shape = mixture.shape
    masks = np.empty((count, *shape[1:]))
    if kind == "psm":
        conj = np.conj(mixture[0])
        power = np.abs(mixture[0]) ** 2 + MASK_EPS
    del mixture  # only psm keeps the mixture's spectrum, as conj and power
    for k, stream in enumerate(masks):
        bins = spectrum(k)
        if bins.shape != shape:
            raise InputError("all reference spectrograms must match the mixture shape")
        if kind == "psm":
            np.clip(np.real(bins[0] * conj) / power, 0.0, 1.0, out=stream)
        else:
            np.abs(bins[0], out=stream)
        del bins  # before the next stream's spectrum is made

    if kind == "ibm":
        winner = np.argmax(masks, axis=0)  # first max wins: lowest stream index
        np.equal(winner, np.arange(count)[:, None, None], out=masks)
    elif kind == "irm":
        masks /= masks.sum(axis=0) + MASK_EPS
    return MaskSet(masks, count - 1)


def _reference_spectrogram(waveform, config, ref_mic):
    """STFT of channel ref_mic alone; equals stft(waveform, config).channel(ref_mic)."""
    row = MultichannelWaveform(waveform.channel(ref_mic), waveform.sample_rate)
    return stft(row, config)


def oracle_mask_from_waveforms(mixture, images, kind, config, ref_mic):
    """Oracle masks of a scene from its waveforms, at the reference microphone.

    Only channel ref_mic of each waveform is transformed, and only one
    image's spectrum is held at a time.

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
    return _oracle_masks(kind, len(images),
                         lambda k: _reference_spectrogram(images[k], config, ref_mic).bins,
                         _reference_spectrogram(mixture, config, ref_mic).bins)


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
        (waveforms, flags), as separate_mvdr returns them: K single-channel
        MultichannelWaveforms and K empty per-speaker dicts.
    """
    ref = _reference_spectrogram(mixture, config, ref_mic)
    waveforms = [istft(apply_mask(mask, ref)) for mask in mask_set.speakers]
    return waveforms, [{} for _ in waveforms]
