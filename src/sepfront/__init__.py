"""Multi-channel speech separation front-end toolkit.

STFT analysis/synthesis, oracle time-frequency masking, mask-weighted MVDR
beamforming, synthetic scene simulation, and separation metrics with
permutation-invariant alignment.
"""

from .beamform import (
    BeamformerWeights,
    SpatialCovarianceSet,
    apply_beamformer,
    interference_covariance,
    mvdr_weights,
    separate_mvdr,
    spatial_covariance,
)
from .dsp import MultichannelWaveform, Spectrogram, StftConfig, istft, make_window, stft
from .errors import ConfigurationError, InputError, NumericalError, SepfrontError
from .masks import (
    MaskSet,
    apply_mask,
    oracle_mask,
    oracle_mask_from_waveforms,
    separate_masking,
)
from .metrics import (
    Assignment,
    LossWeights,
    MetricConfig,
    ci_sdr,
    evaluate_separation,
    pit_assign,
    score_matrix,
    si_sdr,
    waveform_spectral_l1,
)
from .simulate import (
    ArrayGeometry,
    NoiseSpec,
    SceneOutput,
    SceneSpec,
    SourceSpec,
    fractional_delay,
    linear_array,
    plane_wave_delays,
    render_scene,
)

__version__ = "0.1.0"
