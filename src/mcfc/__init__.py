"""Multi-channel frequency coding over single-photon streams.

Simulation, codec, and analysis tools for optical links that encode
symbols as sets of intensity-modulation frequencies on weak coherent
light and decode them from photon arrival timestamps.
"""

__version__ = "0.1.0"

from .photon_channel import (
    EventBatch,
    LinkBudget,
    PhotonSequence,
    SourceConfig,
    StreamFormatError,
    Tone,
    derive_rng,
    read_pts1,
    sample_event_batch,
    transmit,
    write_pts1,
)
from .spectral import (
    Band,
    LineStats,
    Spectrum,
    band_argmax,
    batch_amplitudes,
    expected_line,
    floor_channels,
    periodogram,
    phasor_sums,
    point_dft_many,
)
from .codec import (
    DecodeError,
    FrequencyPlan,
    NamedBand,
    Symbol,
    UnknownSymbolError,
    decode,
    effective_channels,
    encode,
    encode_text,
    letter_plan,
    load_plan,
    optimal_channels,
    read_pixmap,
    rgb_image_plan,
    save_plan,
    write_pixmap,
)
from .analysis import (
    CapacityReport,
    G2Curve,
    InsufficientDataError,
    binary_entropy,
    capacity,
    channel_error_rate,
    expected_mandel_q,
    g2,
    mandel_q,
    misdecode_prob,
    modulator_transfer,
    noise_floor_boundary,
)
from .harness import (
    ImageReport,
    SweepPoint,
    SweepSpec,
    band_model,
    run_amplitude_nonlinearity,
    run_error_vs_components,
    run_error_vs_integration_time,
    run_error_vs_noise,
    run_error_vs_spacing,
    run_image_transmission,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
