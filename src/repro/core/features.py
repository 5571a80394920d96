"""Orientation feature extraction (Section III-B3).

From the denoised multi-channel audio, extract:

**Speech reverberation features**

- the per-pair GCC-PHAT lag windows, sized to the array aperture
  (e.g. 6 pairs x 27 lags + 6 TDoA values = 168 values for D2);
- the weighted SRP-PHAT lag curve's top-3 peak values (reverberation
  produces 3-4 peaks whose ranking flips between facing/non-facing);
- five-statistic summaries (kurtosis, skewness, max, MAD, std) of the
  SRP curve and of the pooled GCC values.

**Speech directivity features**

- the high-low band ratio (HLBR) between 500-4000 Hz and 100-400 Hz;
- (mean, RMS, std) over 20 equal chunks of the low band.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..arrays.geometry import MicArray
from ..dsp.gcc import pairwise_gcc, pairwise_gcc_batch
from ..dsp.precision import resolve_dtype
from ..dsp.spectral import high_low_band_ratio, low_band_chunk_stats
from ..dsp.srp import srp_max_lag_for
from ..dsp.stats import summary_vector, top_k_peaks, window_score
from ..obs.spans import span
from ..runtime.fanout import fan_out
from .preprocessing import DenoisedAudio

N_SRP_PEAKS = 3
N_LOW_BAND_CHUNKS = 20

# --- Array-side liveness cues (adversarial hardening, ROADMAP item 4) ---
#
# Calibration windows for the two multi-channel confidence cues below,
# measured on rendered corpora (live vs naive replay vs the
# repro.attacks families across sophistication tiers, lab and home
# rooms); see docs/ROBUSTNESS.md for the measured distributions.  Both
# cues are *windows*, not thresholds: a live talker produces a
# characteristic amount of TDoA jitter and a characteristic HLBR, and
# attacks fall out on either side.
_CYCLE_WINDOW_SAMPLES = (1.2, 2.2, 3.2, 4.2)
"""(zero, full, full, zero) bounds of the live mean TDoA cycle residual.

A human talker through a reverberant room measures ~2.8 samples of mean
cycle residual; a single loudspeaker cabinet is a cleaner point source
and comes out *too consistent* (EQ-compensated replay ~0.2-1.4), while a
phase-aligned multi-cabinet rig breaks ``t(i,k) = t(i,j) + t(j,k)`` and
comes out too inconsistent (~3.8-4.2)."""

_DOMINANCE_WINDOW = (0.25, 0.40, 0.60, 0.75)
"""(zero, full, full, zero) bounds of mean GCC peak dominance.

Live speech measures ~0.49; close-range cabinets produce a sharper
dominant peak (~0.55-0.59).  A mild secondary cue."""

_HLBR_WINDOW_DB = (-9.4, -8.0, -7.0, -5.0)
"""(zero, full, full, zero) dB bounds of the live-speech mean HLBR.

A facing human head radiates ~-7.6 dB through this front-end; every
replay chain measured lands 1-3 dB lower (-8.5 to -10.9) because the
loudspeaker roll-off and the replay noise floor reshape the 500-4000 Hz
over 100-400 Hz balance even when the >4 kHz decay is EQ-restored."""


def tdoa_coherence(
    gcc: np.ndarray, pairs: Sequence[tuple[int, int]], max_lag: int
) -> float:
    """How consistent per-pair correlation evidence is with one *live* talker.

    Returns a [0, 1] score from two cheap reads of the GCC windows the
    orientation features already computed:

    - **cycle consistency** — for a single point source the TDoAs obey
      ``t(i,k) = t(i,j) + t(j,k)`` around every microphone triple.  The
      mean absolute cycle residual is scored against the *live window*
      (:data:`_CYCLE_WINDOW_SAMPLES`): a human head in a room jitters by
      a couple of samples, a loudspeaker cabinet is suspiciously exact,
      and a multi-cabinet rig is inconsistent with any single-source
      geometry.
    - **peak dominance** — how far each pair's main correlation peak
      stands above the strongest peak elsewhere in the window, also
      scored as a window: close-range cabinets are sharper than live
      speech through the same room.

    Cycle consistency carries most of the weight; it is the cue that
    catches the EQ-compensated replay after the spectral cues are
    defeated.
    """
    gcc = np.asarray(gcc, dtype=float)
    if gcc.ndim != 2 or gcc.shape[0] != len(pairs):
        raise ValueError(f"expected one GCC row per pair, got shape {gcc.shape}")
    peak_bins = np.argmax(gcc, axis=1)
    dominance = []
    for row, peak in zip(gcc, peak_bins):
        main = float(row[peak])
        if main <= 0:
            dominance.append(0.0)
            continue
        masked = row.copy()
        masked[max(0, peak - 2) : peak + 3] = -np.inf
        second = max(float(masked.max()), 0.0)
        dominance.append(float(np.clip(1.0 - second / main, 0.0, 1.0)))
    dominance_score = (
        window_score(float(np.mean(dominance)), _DOMINANCE_WINDOW) if dominance else 0.0
    )

    lag_by_pair = {pair: int(peak) - max_lag for pair, peak in zip(pairs, peak_bins)}
    residuals = []
    for (i, j), t_ij in lag_by_pair.items():
        for (j2, k), t_jk in lag_by_pair.items():
            if j2 != j or (i, k) not in lag_by_pair:
                continue
            residuals.append(abs(t_ij + t_jk - lag_by_pair[(i, k)]))
    if not residuals:
        return float(dominance_score)  # too few pairs for triples
    cycle_score = window_score(float(np.mean(residuals)), _CYCLE_WINDOW_SAMPLES)
    return float(np.clip(0.75 * cycle_score + 0.25 * dominance_score, 0.0, 1.0))


def directivity_consistency(audio: DenoisedAudio) -> float:
    """Whether the directivity evidence matches one live talker, in [0, 1].

    The HLBR *is* this pipeline's directivity feature; here it doubles
    as a plausibility check.  Every replay chain measured — naive,
    EQ-compensated, horn-directed, multi-cabinet, speakers-as-mic —
    lands 1-3 dB below the live window (:data:`_HLBR_WINDOW_DB`): the
    cabinet roll-off and the replay noise floor reshape the band balance
    even when the high-band *decay* is EQ-restored.  Scores the
    per-channel mean against the live window; a large inter-channel
    spread (degenerate or clipped captures — normal captures measure
    ~1 dB at this aperture) is penalized as a sanity guard.
    """
    shape = np.shape(audio.channels)
    if len(shape) != 2:
        raise ValueError(f"expected a channel matrix, got shape {shape}")
    ratios_db = []
    for channel in range(shape[0]):
        ratio = high_low_band_ratio(*audio.spectrum(channel))
        ratios_db.append(10.0 * np.log10(max(ratio, 1e-12)))
    mean_score = window_score(float(np.mean(ratios_db)), _HLBR_WINDOW_DB)
    spread_db = float(np.max(ratios_db) - np.min(ratios_db))
    spread_score = float(np.clip(1.0 - max(spread_db - 3.0, 0.0) / 6.0, 0.0, 1.0))
    return float(np.clip(mean_score * (0.5 + 0.5 * spread_score), 0.0, 1.0))


@dataclass(frozen=True)
class _ArrayExtractor:
    """An extractor bound to one array geometry.

    The pair list and the aperture-sized lag half-window are pure
    functions of the geometry, so each extractor derives them once, at
    construction, and every call reads them back.
    """

    array: MicArray
    pairs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    """Microphone pairs used for cross-correlation (``array.pairs()``)."""
    max_lag: int = field(init=False, repr=False, compare=False)
    """Half-window of correlation lags (12/13/10 for D1/D2/D3)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.array.pairs()))
        object.__setattr__(self, "max_lag", srp_max_lag_for(self.array))

    @property
    def min_samples(self) -> int:
        """Shortest utterance admissible for correlation analysis."""
        return 4 * (self.max_lag + 1)

    def _validated_channels(self, audio: DenoisedAudio) -> np.ndarray:
        """Validate a denoised capture against the geometry.

        Shared by both extractors (the GCC-only baseline historically
        skipped it and silently produced misshapen vectors from bad
        captures): the channel matrix must be 2-D with the array's mic
        count, and long enough for correlation analysis.  Returns the
        channels cast to the resolved decision dtype.
        """
        channels = np.asarray(audio.channels, dtype=resolve_dtype(None))
        if channels.ndim != 2 or channels.shape[0] != self.array.n_mics:
            raise ValueError(
                f"expected {self.array.n_mics} channels, got shape {channels.shape}"
            )
        if channels.shape[1] < self.min_samples:
            raise ValueError("utterance too short for correlation analysis")
        return channels


@dataclass(frozen=True)
class OrientationFeatureExtractor(_ArrayExtractor):
    """Feature extractor bound to one array geometry.

    Parameters
    ----------
    array:
        The (possibly channel-subset) microphone array whose geometry
        sizes the GCC/SRP lag windows.
    """

    @property
    def n_features(self) -> int:
        """Dimensionality of the extracted feature vector."""
        n_pairs = len(self.pairs)
        window = 2 * self.max_lag + 1
        gcc_block = n_pairs * window + n_pairs  # windows + TDoAs
        stats_block = 2 * 5  # SRP summary + GCC summary
        directivity_block = 1 + 3 * N_LOW_BAND_CHUNKS
        return gcc_block + N_SRP_PEAKS + stats_block + directivity_block

    def feature_groups(self) -> dict[str, slice]:
        """Index ranges of the semantic feature blocks.

        Keys: ``gcc`` (per-pair correlation windows + TDoAs), ``srp``
        (top-3 SRP peaks + SRP summary statistics), ``stats`` (pooled
        GCC statistics), ``directivity`` (HLBR + low-band chunk stats).
        Used by the feature-ablation experiment.
        """
        n_pairs = len(self.pairs)
        window = 2 * self.max_lag + 1
        gcc_end = n_pairs * window + n_pairs
        srp_end = gcc_end + N_SRP_PEAKS + 5
        stats_end = srp_end + 5
        return {
            "gcc": slice(0, gcc_end),
            "srp": slice(gcc_end, srp_end),
            "stats": slice(srp_end, stats_end),
            "directivity": slice(stats_end, self.n_features),
        }

    def correlate(self, audio: DenoisedAudio) -> np.ndarray:
        """Pairwise GCC windows ``(n_pairs, window)`` of one utterance.

        The decision pipeline correlates each scored utterance once here
        and hands the matrix to both :meth:`array_cues` and the
        orientation features.
        """
        channels = self._validated_channels(audio)
        with span("features.gcc"):
            return pairwise_gcc(channels, self.pairs, self.max_lag)

    def extract(self, audio: DenoisedAudio, gcc: np.ndarray | None = None) -> np.ndarray:
        """Feature vector for one denoised utterance.

        ``gcc`` is the utterance's pairwise GCC matrix (:meth:`correlate`)
        when the caller already holds it; it is computed here otherwise.
        """
        with span("features.extract"):
            if gcc is None:
                gcc = self.correlate(audio)
            return self._finalize(audio, gcc)

    def array_cues(self, audio: DenoisedAudio, gcc: np.ndarray | None = None) -> dict:
        """Multi-channel liveness-confidence cues for one utterance.

        Returns ``{"tdoa_coherence", "directivity_consistency"}`` — the
        array-side half of the hardened fusion decision
        (:class:`repro.core.liveness.FusedLivenessDetector`).  ``gcc`` is
        the utterance's pairwise GCC matrix; the decision pipeline passes
        the one the orientation features then reuse, and it is computed
        here when omitted.
        """
        if gcc is None:
            gcc = self.correlate(audio)
        return {
            "tdoa_coherence": tdoa_coherence(gcc, self.pairs, self.max_lag),
            "directivity_consistency": directivity_consistency(audio),
        }

    def extract_masked(
        self,
        audio: DenoisedAudio,
        healthy_channels: list[int] | tuple[int, ...],
        gcc: np.ndarray | None = None,
    ) -> np.ndarray:
        """Feature vector computed from the surviving microphone pairs.

        The degraded-hardware path: only pairs whose *both* channels are
        in ``healthy_channels`` keep their correlation window; dead pairs
        contribute a zero window and a zero TDoA, so the vector keeps the
        full trained dimensionality while carrying no corrupted evidence.
        The pooled GCC statistics summarize the surviving rows only.
        ``gcc`` is the utterance's full pairwise GCC matrix, as for
        :meth:`extract`; its rows are independent, so zeroing the dead
        ones equals correlating the surviving pairs alone.  With every
        channel healthy this is bit-identical to :meth:`extract`.
        """
        healthy = sorted({int(c) for c in healthy_channels})
        for c in healthy:
            if not 0 <= c < self.array.n_mics:
                raise ValueError(f"healthy channel {c} out of range for {self.array.name}")
        if len(healthy) < 2:
            raise ValueError("need at least two healthy channels for correlation")
        with span("features.extract_masked"):
            alive = set(healthy)
            alive_rows = [r for r, (i, j) in enumerate(self.pairs) if i in alive and j in alive]
            if not alive_rows:
                raise ValueError("no surviving microphone pair")
            if gcc is None:
                gcc = self.correlate(audio)
            masked = np.zeros_like(gcc)
            masked[alive_rows] = gcc[alive_rows]
            return self._finalize(audio, masked, alive_rows=alive_rows)

    def _finalize(
        self,
        audio: DenoisedAudio,
        gcc: np.ndarray,
        alive_rows: list[int] | None = None,
    ) -> np.ndarray:
        """Assemble the feature vector from precomputed GCC windows."""
        tdoa_samples = np.argmax(gcc, axis=1) - self.max_lag
        if alive_rows is not None:
            alive_mask = np.zeros(gcc.shape[0], dtype=bool)
            alive_mask[alive_rows] = True
            tdoa_samples = np.where(alive_mask, tdoa_samples, 0)
        tdoas = tdoa_samples / self.array.sample_rate

        srp = gcc.sum(axis=0)
        srp_peaks = top_k_peaks(srp, N_SRP_PEAKS)
        srp_stats = summary_vector(srp)
        gcc_stats = summary_vector(gcc if alive_rows is None else gcc[alive_rows])

        freqs, power = audio.spectrum(audio.reference_channel)
        hlbr = high_low_band_ratio(freqs, power)
        chunks = low_band_chunk_stats(freqs, power, n_chunks=N_LOW_BAND_CHUNKS)

        features = np.concatenate(
            [
                gcc.ravel(),
                tdoas,
                srp_peaks,
                srp_stats,
                gcc_stats,
                [hlbr],
                chunks,
            ]
        )
        if features.size != self.n_features:
            raise AssertionError(
                f"feature size {features.size} != declared {self.n_features}"
            )
        # Stats blocks run in float64; keep the vector in the decision
        # dtype (a no-op on the float64 default).
        return features.astype(resolve_dtype(None), copy=False)

    def extract_batch(self, audios: list[DenoisedAudio]) -> np.ndarray:
        """Feature matrix ``(n_utterances, n_features)``.

        Every row is byte-identical to :meth:`extract` on that utterance
        alone.  Utterances fan out over a thread pool made for this call,
        one worker per usable CPU (:func:`repro.runtime.fanout.fan_out`).
        """
        if not audios:
            raise ValueError("no utterances given")
        with span("features.extract_batch", n=len(audios)):
            return np.stack(fan_out(lambda a: self._finalize(a, self.correlate(a)), audios))


@dataclass(frozen=True)
class GccOnlyFeatureExtractor(_ArrayExtractor):
    """Baseline extractor: GCC-PHAT features only (Ahuja et al. style).

    Used by the DoV comparison experiment (E19): the paper attributes its
    ~3% edge to SRP-PHAT + directivity features; this baseline drops
    them, keeping only the per-pair GCC windows and TDoAs.
    """

    @property
    def n_features(self) -> int:
        """Dimensionality of the baseline feature vector."""
        n_pairs = len(self.pairs)
        return n_pairs * (2 * self.max_lag + 1) + n_pairs  # windows + TDoAs

    def extract(self, audio: DenoisedAudio) -> np.ndarray:
        """GCC windows + TDoAs for one utterance."""
        gcc = pairwise_gcc(self._validated_channels(audio), self.pairs, self.max_lag)
        return self._finalize(gcc)

    def _finalize(self, gcc: np.ndarray) -> np.ndarray:
        tdoa_samples = np.argmax(gcc, axis=1) - self.max_lag
        tdoas = tdoa_samples / self.array.sample_rate
        return np.concatenate([gcc.ravel(), tdoas]).astype(resolve_dtype(None), copy=False)

    def extract_batch(self, audios: list[DenoisedAudio]) -> np.ndarray:
        """Feature matrix ``(n_utterances, n_features)`` via one batched GCC call."""
        if not audios:
            raise ValueError("no utterances given")
        batch = [self._validated_channels(a) for a in audios]
        gccs = pairwise_gcc_batch(batch, self.pairs, self.max_lag)
        return np.stack([self._finalize(gcc) for gcc in gccs])
