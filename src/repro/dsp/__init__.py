"""Signal-processing substrate: filters, STFT, GCC-PHAT, SRP-PHAT, VAD."""

from .filters import (
    BandpassFilter,
    band_split,
    headtalk_bandpass,
    highpass,
    lowpass,
    octave_band_edges,
)
from .gcc import (
    estimate_tdoa,
    extract_frames,
    gcc_phat,
    lag_axis,
    pairwise_gcc,
    pairwise_gcc_batch,
    pairwise_gcc_frames,
    pairwise_gcc_framewise,
)
from .precision import (
    DEFAULT_DTYPE,
    parse_dtype,
    precision,
    resolve_dtype,
    set_decision_dtype,
)
from .resample import resample, to_liveness_input
from .segmenter import Segment, SegmenterConfig, extract_segments, segment_stream
from .spectral import (
    HIGH_BAND,
    LOW_BAND,
    SpectralContrast,
    band_mask,
    band_mean_magnitude,
    high_low_band_ratio,
    low_band_chunk_stats,
    signal_to_noise_ratio_db,
    spectral_contrast,
)
from .srp import (
    srp_max_lag_for,
    srp_phat_lag_curve,
    steering_pair_lags,
)
from .stats import (
    find_peaks,
    kurtosis,
    mean_absolute_deviation,
    skewness,
    summary_vector,
    top_k_peaks,
)
from .stft import log_mel_like_features, mean_power_spectrum, power_spectrogram, stft
from .streaming import GccAccumulator
from .vad import VadResult, detect_activity, short_time_energy
from .windows import frame_signal, get_window, hamming, hann

__all__ = [
    "BandpassFilter",
    "DEFAULT_DTYPE",
    "extract_frames",
    "GccAccumulator",
    "pairwise_gcc_frames",
    "pairwise_gcc_framewise",
    "parse_dtype",
    "precision",
    "resolve_dtype",
    "set_decision_dtype",
    "HIGH_BAND",
    "LOW_BAND",
    "SpectralContrast",
    "VadResult",
    "band_mask",
    "band_mean_magnitude",
    "band_split",
    "detect_activity",
    "estimate_tdoa",
    "find_peaks",
    "frame_signal",
    "gcc_phat",
    "get_window",
    "hamming",
    "hann",
    "headtalk_bandpass",
    "high_low_band_ratio",
    "highpass",
    "kurtosis",
    "lag_axis",
    "log_mel_like_features",
    "low_band_chunk_stats",
    "lowpass",
    "mean_absolute_deviation",
    "mean_power_spectrum",
    "octave_band_edges",
    "pairwise_gcc",
    "pairwise_gcc_batch",
    "power_spectrogram",
    "resample",
    "Segment",
    "SegmenterConfig",
    "extract_segments",
    "segment_stream",
    "short_time_energy",
    "signal_to_noise_ratio_db",
    "skewness",
    "spectral_contrast",
    "srp_max_lag_for",
    "srp_phat_lag_curve",
    "stft",
    "steering_pair_lags",
    "summary_vector",
    "to_liveness_input",
    "top_k_peaks",
]
