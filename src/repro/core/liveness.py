"""Liveness detection: live human vs mechanical speaker (Section III-A).

The detector consumes one channel of denoised audio, downsamples it to
16 kHz normalized to zero mean / unit variance (the paper's wav2vec2
input convention), converts it to log filterbank frames and classifies
with :class:`~repro.ml.neural.SpectroTemporalNet`.  The incremental-
retraining path (pretrain on an ASVspoof-like corpus, adapt with a small
slice of in-domain data) reproduces the paper's Section IV-A1 loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sps

from ..dsp.resample import to_liveness_input
from ..dsp.spectral import band_mask, spectral_contrast
from ..dsp.stats import window_score
from ..dsp.stft import log_mel_like_features
from ..ml.metrics import equal_error_rate
from ..ml.neural import SpectroTemporalNet

LIVE_HUMAN = 1
MECHANICAL = 0

LIVENESS_SAMPLE_RATE = 16_000


class _ScoreVerdicts:
    """Verdicts over a detector's ``scores``: P(live human) per utterance."""

    def is_live(self, audio: np.ndarray, sample_rate: int, threshold: float = 0.5) -> bool:
        """Decision for one utterance."""
        return bool(self.scores([np.asarray(audio, dtype=float)], sample_rate)[0] >= threshold)

    def evaluate_eer(
        self, waveforms: list[np.ndarray], labels: np.ndarray, sample_rate: int
    ) -> tuple[float, float]:
        """(accuracy, EER) of the scores on a labelled evaluation set."""
        labels = np.asarray(labels)
        scores = self.scores(waveforms, sample_rate)
        predictions = (scores >= 0.5).astype(int)
        acc = float(np.mean(predictions == labels))
        eer = equal_error_rate(labels, scores, positive_label=LIVE_HUMAN)
        return acc, eer


@dataclass
class LivenessDetector(_ScoreVerdicts):
    """Human-vs-replay classifier over single-channel audio.

    Parameters
    ----------
    n_bands, n_frames:
        Log-filterbank geometry fed to the network.
    epochs:
        Training epochs for :meth:`fit` (the paper trains 20 epochs on
        ASVspoof and 10 on the incremental slice).
    """

    n_bands: int = 40
    n_frames: int = 96
    epochs: int = 20
    learning_rate: float = 2e-3
    random_state: int = 0
    network: SpectroTemporalNet | None = None

    def __post_init__(self) -> None:
        if self.network is None:
            self.network = SpectroTemporalNet(
                n_bands=self.n_bands,
                n_frames=self.n_frames,
                epochs=self.epochs,
                learning_rate=self.learning_rate,
                random_state=self.random_state,
            )

    def featurize(self, audio: np.ndarray, sample_rate: int) -> np.ndarray:
        """One utterance -> ``(n_frames, n_bands)`` log filterbank matrix."""
        normalized = to_liveness_input(audio, sample_rate, LIVENESS_SAMPLE_RATE)
        return log_mel_like_features(
            normalized, LIVENESS_SAMPLE_RATE, n_bands=self.n_bands
        )

    def featurize_batch(
        self, waveforms: list[np.ndarray], sample_rate: int
    ) -> list[np.ndarray]:
        """Feature matrices for a batch of single-channel utterances."""
        return [self.featurize(w, sample_rate) for w in waveforms]

    def fit(
        self,
        waveforms: list[np.ndarray],
        labels: np.ndarray,
        sample_rate: int,
        epochs: int | None = None,
    ) -> "LivenessDetector":
        """Train from scratch on labelled utterances (1=live human)."""
        features = self.featurize_batch(waveforms, sample_rate)
        self.network.fit(features, np.asarray(labels), epochs=epochs, reset=True)
        return self

    def incremental_fit(
        self,
        waveforms: list[np.ndarray],
        labels: np.ndarray,
        sample_rate: int,
        epochs: int = 10,
    ) -> "LivenessDetector":
        """Continue training on new-domain samples (Section IV-A1)."""
        features = self.featurize_batch(waveforms, sample_rate)
        self.network.fit(features, np.asarray(labels), epochs=epochs, reset=False)
        return self

    def scores(self, waveforms: list[np.ndarray], sample_rate: int) -> np.ndarray:
        """P(live human) per utterance — the EER score axis."""
        features = self.featurize_batch(waveforms, sample_rate)
        return self.network.scores(features, positive_label=LIVE_HUMAN)

    def predict(self, waveforms: list[np.ndarray], sample_rate: int) -> np.ndarray:
        """Hard labels (1=live human, 0=mechanical)."""
        features = self.featurize_batch(waveforms, sample_rate)
        return self.network.predict(features)


# --- Per-band confidence + fusion (adversarial hardening, ROADMAP item 4) ---
#
# The network above keys on band *levels*; an EQ-compensated replay
# restores those levels, so the hardened path adds physics cues the
# attacker cannot EQ back: within-band spectral structure, temporal
# modulation, and the >4 kHz decay shape.  Calibration constants come
# from the rendered corpora (live vs naive replay vs the repro.attacks
# families across sophistication tiers); see docs/ROBUSTNESS.md.

LIVENESS_CUE_BANDS = (
    (300.0, 600.0),
    (600.0, 1200.0),
    (1200.0, 2400.0),
    (2400.0, 4800.0),
    (4800.0, 9600.0),
    (9600.0, 16000.0),
)
"""Octave bands scored by :func:`band_confidences` (clipped to Nyquist)."""

_RESIDUAL_BANDS = 2
"""How many top cue bands form the residual-floor cue."""

_DECAY_WINDOW_DB = (-13.0, -9.5)
"""2–12 kHz decay slope (dB/octave): score 0 at the first, 1 at the second.

Live speech through this front-end measures ~-8.0 to -8.4 dB/octave;
naive replay -15 to -17.5, the horn / multi-cabinet / speakers-as-mic
attacks -13.5 to -19.6.  Only the EQ-compensated attacker climbs back
inside the live range (-8.6 at tier 2), which is why the fused decision
does not rest on this cue alone."""

_FLATNESS_WINDOW = (0.50, 0.66, 0.86, 0.95)
"""(zero, full, full, zero) bounds of within-band spectral flatness.

In the top cue bands live captures are *smooth*: decayed speech plus
room and ambient noise averages to a flat-ish band spectrum (~0.67-0.81
measured).  Replay chains land outside on both sides — harmonic
distortion residue makes the band peaky (naive/horn/multi-cabinet
~0.33-0.49), while a speakers-as-mic noise floor is a near-perfectly
flat line (~0.89-0.91)."""

_MODULATION_WINDOW = (0.25, 0.6)
"""Within-band log-energy modulation: score 0 at the first, 1 at the second.

Live top-band energy follows the utterance envelope (std of log energy
~0.6-0.7); a static replay noise floor barely moves (speakers-as-mic
~0.12-0.14)."""


def _ramp(value: float, zero: float, one: float) -> float:
    """Linear score: 0 at ``zero``, 1 at ``one`` (direction inferred)."""
    if one == zero:
        return 0.5
    return float(np.clip((value - zero) / (one - zero), 0.0, 1.0))


@dataclass(frozen=True)
class BandConfidence:
    """Per-band evidence that one band carries *live* speech.

    ``flatness`` is the spectral flatness (geometric over arithmetic
    mean) of the band's time-averaged spectrum.  Live high-band content
    is decayed speech blended with room and ambient noise — moderately
    flat; a replay chain leaves either peaky harmonic-distortion residue
    (too structured) or a featureless electronic noise floor (too flat).
    ``modulation`` is the standard deviation of the band's log energy
    across frames — live energy follows the utterance envelope, a noise
    floor is stationary.  ``confidence`` is the flatness window score
    times the modulation ramp: high only when the band is both smooth
    *and* breathing with the speech.
    """

    low_hz: float
    high_hz: float
    level_db: float
    flatness: float
    modulation: float
    confidence: float


def band_confidences(
    audio: np.ndarray,
    sample_rate: int,
    bands: tuple[tuple[float, float], ...] = LIVENESS_CUE_BANDS,
) -> tuple[BandConfidence, ...]:
    """Per-band live-speech confidence scores for one utterance.

    Bands beyond Nyquist are clipped; a band with no usable bins is
    skipped.  Deterministic — no randomness, no global state.
    """
    x = np.asarray(audio, dtype=float)
    if x.size < 1024:
        return ()
    nperseg = min(512, x.size)
    freqs, _, sxx = sps.spectrogram(
        x, fs=sample_rate, nperseg=nperseg, noverlap=nperseg // 2
    )
    out = []
    nyquist = sample_rate / 2.0
    for low, high in bands:
        if low >= nyquist:
            continue
        mask = band_mask(freqs, (low, min(high, nyquist)))
        if mask.sum() < 4 or sxx.shape[1] < 4:
            continue
        band_tf = sxx[mask]
        spectrum = band_tf.mean(axis=1)
        mean_power = float(spectrum.mean())
        flatness = float(
            np.exp(np.mean(np.log(spectrum + 1e-20))) / (mean_power + 1e-20)
        )
        energy_t = band_tf.mean(axis=0)
        modulation = float(np.std(np.log10(energy_t + 1e-20)))
        confidence = window_score(flatness, _FLATNESS_WINDOW) * _ramp(
            modulation, *_MODULATION_WINDOW
        )
        out.append(
            BandConfidence(
                low_hz=float(low),
                high_hz=float(min(high, nyquist)),
                level_db=10.0 * np.log10(mean_power + 1e-20),
                flatness=flatness,
                modulation=modulation,
                confidence=float(np.clip(confidence, 0.0, 1.0)),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class LivenessCues:
    """Single-channel physics cues behind the fused liveness decision."""

    decay_db_per_octave: float
    decay_score: float
    residual_floor_score: float
    bands: tuple[BandConfidence, ...]
    score: float


def liveness_cues(
    audio: np.ndarray,
    sample_rate: int,
    *,
    spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> LivenessCues:
    """Physics-cue summary of one utterance (all scores in [0, 1]).

    - ``decay_score`` — the 2–12 kHz spectral decay slope, the Figure-3
      contrast every replay chain steepens (and the EQ attacker only
      partially flattens before its boost ceiling binds);
    - ``residual_floor_score`` — mean confidence of the top cue bands:
      live speech keeps smooth, envelope-modulated energy there, a
      replay chain leaves distortion residue or a static noise floor
      (boosted or not);
    - ``score`` — the combined single-channel cue score.

    ``spectrum`` is the utterance's mean power spectrum when the caller
    already holds it (see :func:`repro.dsp.spectral.spectral_contrast`).
    """
    contrast = spectral_contrast(np.asarray(audio, dtype=float), sample_rate, spectrum=spectrum)
    decay_score = _ramp(contrast.decay_db_per_octave, *_DECAY_WINDOW_DB)
    bands = band_confidences(audio, sample_rate)
    residual = bands[-_RESIDUAL_BANDS:] if bands else ()
    residual_floor_score = (
        float(np.mean([b.confidence for b in residual])) if residual else 0.0
    )
    score = float(np.clip(0.7 * decay_score + 0.3 * residual_floor_score, 0.0, 1.0))
    return LivenessCues(
        decay_db_per_octave=contrast.decay_db_per_octave,
        decay_score=decay_score,
        residual_floor_score=residual_floor_score,
        bands=bands,
        score=score,
    )


@dataclass
class FusedLivenessDetector(_ScoreVerdicts):
    """Feature-fusion liveness: network score blended with physics cues.

    Drop-in for :class:`LivenessDetector` wherever scores are consumed
    (the pipeline and the streaming gateway call ``scores``): the
    single-channel path fuses the network posterior with the spectral-
    decay and residual-floor cues.  :meth:`fused_scores` adds the
    array-side cues (TDoA coherence, directivity consistency) when the
    full multi-channel capture is available — the complete four-cue
    decision E30 measures.

    Weights are convex: ``network (1 - cue_weight - array_weight)``,
    cues ``cue_weight``, array cues ``array_weight`` (single-channel
    paths fold ``array_weight`` into the cue share).
    """

    base: LivenessDetector = field(default_factory=LivenessDetector)
    cue_weight: float = 0.45
    array_weight: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.cue_weight <= 1.0 or not 0.0 <= self.array_weight <= 1.0:
            raise ValueError("weights must be in [0, 1]")
        if self.cue_weight + self.array_weight >= 1.0:
            raise ValueError("cue_weight + array_weight must leave the network a share")

    @property
    def network(self):
        """The wrapped network (delegates to the base detector)."""
        return self.base.network

    def featurize(self, audio: np.ndarray, sample_rate: int) -> np.ndarray:
        """Delegates to the base detector."""
        return self.base.featurize(audio, sample_rate)

    def fit(self, waveforms, labels, sample_rate, epochs=None) -> "FusedLivenessDetector":
        """Train the wrapped network (cues are calibration, not training)."""
        self.base.fit(waveforms, labels, sample_rate, epochs=epochs)
        return self

    def incremental_fit(
        self, waveforms, labels, sample_rate, epochs: int = 10
    ) -> "FusedLivenessDetector":
        """Continue training the wrapped network."""
        self.base.incremental_fit(waveforms, labels, sample_rate, epochs=epochs)
        return self

    def cue_scores(
        self, waveforms: list[np.ndarray], sample_rate: int, spectra: list | None = None
    ) -> np.ndarray:
        """Single-channel cue score per utterance.

        ``spectra`` holds each waveform's mean power spectrum when the
        caller already has them (see :func:`liveness_cues`).
        """
        if spectra is None:
            spectra = [None] * len(waveforms)
        return np.asarray(
            [
                liveness_cues(w, sample_rate, spectrum=spectrum).score
                for w, spectrum in zip(waveforms, spectra)
            ],
            dtype=float,
        )

    def scores(self, waveforms: list[np.ndarray], sample_rate: int) -> np.ndarray:
        """Fused P(live human) per utterance — single-channel path."""
        cue_share = self.cue_weight + self.array_weight
        net = self.base.scores(waveforms, sample_rate)
        cues = self.cue_scores(waveforms, sample_rate)
        return (1.0 - cue_share) * net + cue_share * cues

    def fused_scores(self, audios: list, extractor=None, gccs=None) -> np.ndarray:
        """Fused scores over :class:`~repro.core.preprocessing.DenoisedAudio`.

        With an :class:`~repro.core.features.OrientationFeatureExtractor`
        the array-side cues join the blend (the four-cue decision);
        without one this is the single-channel path.  ``gccs`` carries
        each utterance's pairwise GCC matrix when the caller already
        computed it (the decision pipeline reuses it for the orientation
        features); the extractor computes them otherwise.
        """
        if not audios:
            return np.zeros(0)
        sample_rate = audios[0].sample_rate
        references = [a.reference for a in audios]
        net = self.base.scores(references, sample_rate)
        # The reference spectrum is shared with directivity consistency
        # and the orientation features through the utterance's memo.
        spectra = [a.spectrum(a.reference_channel) for a in audios]
        cues = self.cue_scores(references, sample_rate, spectra)
        if extractor is None:
            cue_share = self.cue_weight + self.array_weight
            return (1.0 - cue_share) * net + cue_share * cues
        # TDoA coherence carries more weight than directivity: the HLBR
        # window is voice-dependent (deep voices land low), while cycle
        # consistency is what exposes the EQ-compensated cabinet.
        if gccs is None:
            gccs = [None] * len(audios)
        array_cues = np.asarray(
            [
                0.7 * cue["tdoa_coherence"] + 0.3 * cue["directivity_consistency"]
                for cue in (extractor.array_cues(a, gcc) for a, gcc in zip(audios, gccs))
            ],
            dtype=float,
        )
        net_share = 1.0 - self.cue_weight - self.array_weight
        return net_share * net + self.cue_weight * cues + self.array_weight * array_cues

    def predict(self, waveforms: list[np.ndarray], sample_rate: int) -> np.ndarray:
        """Hard labels from the fused scores."""
        return (self.scores(waveforms, sample_rate) >= 0.5).astype(int)
