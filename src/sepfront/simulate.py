"""Synthetic multi-channel scene rendering.

Anechoic far-field model: each source is a plane wave steered to the array by
per-microphone fractional delays, optionally mixed with SNR-controlled noise.
The mixture always decomposes exactly into the returned source and noise
images under the fixed summation order (sources in index order, then noise).
"""

from dataclasses import dataclass, field

import numpy as np

from .dsp import MultichannelWaveform
from .errors import ConfigurationError, InputError

SPEED_OF_SOUND = 343.0

FRACTIONAL_DELAY_TAPS = 81


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters, one 3-D coordinate per microphone."""

    mic_positions: np.ndarray
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        pos = np.asarray(self.mic_positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InputError(f"mic_positions must have shape (M, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise InputError("at least one microphone required")
        if not np.all(np.isfinite(pos)):
            raise InputError("mic positions must be finite")
        object.__setattr__(self, "mic_positions", pos)

    @property
    def num_mics(self):
        return self.mic_positions.shape[0]


def linear_array(num_mics, spacing, speed_of_sound=SPEED_OF_SOUND):
    """Uniform linear array along the x axis, centered at the origin."""
    x = (np.arange(num_mics) - (num_mics - 1) / 2.0) * spacing
    positions = np.stack([x, np.zeros(num_mics), np.zeros(num_mics)], axis=1)
    return ArrayGeometry(positions, speed_of_sound)


@dataclass(frozen=True)
class SourceSpec:
    """One dry source with its direction of arrival and linear gain."""

    dry_signal: np.ndarray
    azimuth: float
    elevation: float = 0.0
    gain: float = 1.0

    def __post_init__(self):
        dry = np.asarray(self.dry_signal, dtype=np.float64)
        if dry.ndim != 1:
            raise InputError("dry_signal must be single-channel (1-D)")
        if not np.all(np.isfinite(dry)):
            raise InputError("dry_signal contains NaN or Inf")
        object.__setattr__(self, "dry_signal", dry)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise request: white Gaussian or a provided recording."""

    snr_db: float
    kind: str = "white_gaussian"
    samples: np.ndarray = None  # required for kind="file"

    def __post_init__(self):
        if self.kind not in ("white_gaussian", "file"):
            raise ConfigurationError(f"unsupported noise kind: {self.kind!r}")
        if not np.isfinite(self.snr_db):
            raise InputError("snr_db must be finite")
        if self.kind == "file":
            if self.samples is None:
                raise ConfigurationError("noise kind 'file' requires samples")
            samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
            if not np.all(np.isfinite(samples)):
                raise InputError("noise samples contain NaN or Inf")
            object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to render one deterministic scene."""

    sources: tuple
    geometry: ArrayGeometry
    sample_rate: int = 16000
    noise: NoiseSpec = None
    reference_mic: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if len(self.sources) < 1:
            raise ConfigurationError("at least one source required")
        if not 0 <= self.reference_mic < self.geometry.num_mics:
            raise ConfigurationError(
                f"reference_mic {self.reference_mic} out of range "
                f"for {self.geometry.num_mics} microphones"
            )


@dataclass(frozen=True)
class SceneOutput:
    """Rendered scene: mixture, per-source images, noise image, manifest echo."""

    mixture: MultichannelWaveform
    source_images: tuple
    noise_image: MultichannelWaveform
    manifest: dict = field(default_factory=dict)

    @property
    def num_sources(self):
        return len(self.source_images)


def fractional_delay(signal, delay):
    """Delay a single-channel signal by a real number of samples.

    Integer delays are exact shifts; fractional parts use a Hann-windowed
    sinc interpolator of FRACTIONAL_DELAY_TAPS taps. Samples shifted past
    either edge are zero-padded.

    Args:
        signal: 1-D float array.
        delay: delay in samples, may be negative; |delay| < len(signal).
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("fractional_delay expects a single-channel signal")
    if abs(delay) >= len(x):
        raise InputError(f"delay {delay} out of range for signal of length {len(x)}")

    # snap rounding-noise fractions so exact geometries stay bit-exact
    if abs(delay - round(delay)) < 1e-9:
        return _integer_shift(x, int(round(delay)))
    shift = int(np.floor(delay))
    frac = delay - shift

    half = FRACTIONAL_DELAY_TAPS // 2
    center = half + frac
    j = np.arange(FRACTIONAL_DELAY_TAPS, dtype=np.float64)
    # Hann window centered on the (fractional) sinc center
    kernel = np.sinc(j - center) * (0.5 + 0.5 * np.cos(np.pi * (j - center) / (half + 1)))
    full = np.convolve(x, kernel)
    # full[m] approximates x[m - half - frac]; align so y[n] = x[n - delay]
    return _integer_shift(full, shift - half)[: len(x)]


def _integer_shift(x, shift):
    if shift == 0:
        return x.copy()
    out = np.zeros_like(x)
    if shift > 0:
        out[shift:] = x[: len(x) - shift]
    elif -shift < len(x):
        out[: len(x) + shift] = x[-shift:]
    return out


def plane_wave_delays(geometry, azimuth, elevation):
    """Per-microphone propagation delays in seconds for a far-field source.

    Delays are offset so the earliest microphone has delay zero.
    """
    direction = np.array(
        [
            np.cos(elevation) * np.cos(azimuth),
            np.cos(elevation) * np.sin(azimuth),
            np.sin(elevation),
        ]
    )
    delays = -(geometry.mic_positions @ direction) / geometry.speed_of_sound
    return delays - delays.min()


def render_scene(spec):
    """Render a SceneSpec into mixture, source images, and noise image.

    Source image k at mic m is gain_k * fractional_delay(dry_k, tau_{k,m}*fs)
    with tau from the far-field geometry. Noise is scaled so the power ratio
    at the reference mic matches snr_db exactly. Deterministic under seed.
    """
    fs = spec.sample_rate
    geometry = spec.geometry
    num_mics = geometry.num_mics
    length = max(len(s.dry_signal) for s in spec.sources)

    source_images = []
    resolved = []
    for src in spec.sources:
        dry = np.zeros(length, dtype=np.float64)
        dry[: len(src.dry_signal)] = src.dry_signal
        delays = plane_wave_delays(geometry, src.azimuth, src.elevation)
        image = np.empty((num_mics, length), dtype=np.float64)
        for m in range(num_mics):
            image[m] = src.gain * fractional_delay(dry, delays[m] * fs)
        source_images.append(MultichannelWaveform(image, fs))
        resolved.append(
            {
                "azimuth": float(src.azimuth),
                "elevation": float(src.elevation),
                "gain": float(src.gain),
                "delays_s": [float(d) for d in delays],
            }
        )

    noise_image = _render_noise(spec, source_images, num_mics, length)

    mixture = np.zeros((num_mics, length), dtype=np.float64)
    for image in source_images:
        mixture = mixture + image.samples
    mixture = mixture + noise_image.samples

    manifest = {
        "sample_rate": fs,
        "reference_mic": spec.reference_mic,
        "seed": spec.seed,
        "sources": resolved,
        "noise": None
        if spec.noise is None
        else {"kind": spec.noise.kind, "snr_db": float(spec.noise.snr_db)},
        "mic_positions": geometry.mic_positions.tolist(),
        "speed_of_sound": geometry.speed_of_sound,
    }
    return SceneOutput(
        mixture=MultichannelWaveform(mixture, fs),
        source_images=tuple(source_images),
        noise_image=noise_image,
        manifest=manifest,
    )


def _render_noise(spec, source_images, num_mics, length):
    if spec.noise is None:
        return MultichannelWaveform(np.zeros((num_mics, length)), spec.sample_rate)

    summed = np.zeros(length, dtype=np.float64)
    for image in source_images:
        summed = summed + image.samples[spec.reference_mic]
    signal_power = float(np.mean(summed ** 2))
    if signal_power == 0.0:
        raise InputError("cannot set SNR against zero-power source images")

    if spec.noise.kind == "white_gaussian":
        rng = np.random.default_rng(spec.seed)
        raw = rng.standard_normal((num_mics, length))
    else:
        raw = spec.noise.samples
        if raw.shape[0] == 1:
            raw = np.broadcast_to(raw, (num_mics, raw.shape[1]))
        elif raw.shape[0] != num_mics:
            raise InputError(
                f"noise has {raw.shape[0]} channels but the array has {num_mics}"
            )
        if raw.shape[1] < length:
            raise InputError("noise recording shorter than the scene")
        raw = raw[:, :length]

    noise_power = float(np.mean(raw[spec.reference_mic] ** 2))
    if noise_power == 0.0:
        raise InputError("noise signal has zero power at the reference mic")
    scale = np.sqrt(signal_power / (noise_power * 10.0 ** (spec.noise.snr_db / 10.0)))
    return MultichannelWaveform(raw * scale, spec.sample_rate)


def input_sdr(scene, metric_fn):
    """Score the unprocessed mixture against each source image.

    Evaluates metric_fn(mixture_ref_channel, image_ref_channel) per source at
    the scene's reference microphone; returns a list of dB values.
    """
    ref = scene.manifest["reference_mic"]
    mix = scene.mixture.channel(ref)
    return [
        float(metric_fn(mix, image.channel(ref)))
        for image in scene.source_images
    ]
