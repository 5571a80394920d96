"""Adversarial replay channels and attack sources.

Where :mod:`repro.faults` models *accidental* corruption, this module
models an *adversary*: an attacker who knows how the liveness and
orientation gates work and shapes the replayed audio to defeat them.
Four attacker families, each an ``emit()``-compatible source usable
anywhere a :class:`~repro.acoustics.sources.LoudspeakerSource` is:

- :class:`EqCompensatedReplay` — pre-emphasizes the recording with the
  *inverse* of the loudspeaker's high-shelf roll-off (the exact
  :func:`~repro.acoustics.sources.rolloff_gain` curve), restoring the
  >4 kHz level the liveness detector keys on — up to a fidelity ceiling
  set by the attacker's sophistication (boost also amplifies the
  channel noise floor, which is what the hardened detector exploits).
- :class:`DirectionalHornReplay` — a horn-loaded loudspeaker whose
  radiation lobes are shaped toward a human head's directivity, so the
  orientation gate's directivity features see a "facing talker".
- :class:`MultiSpeakerTdoaAttack` — 2–4 coordinated loudspeakers
  playing the same recording phase-aligned toward the target array.
  The rig is modelled at the emission: per-cabinet delay/gain taps
  superpose into one waveform whose wavefront (and therefore the
  array-side GCC/TDoA pattern) mimics a single facing talker, with a
  residual alignment jitter that shrinks as sophistication grows.
- :class:`SpeakeARChannel` — the SPEAKE(a)R eavesdrop-and-replay chain
  (Guri et al.): speakers retasked as microphones capture the victim's
  utterance through their characteristic band-limit and noise floor,
  and the attacker replays that degraded recording.

Determinism contract (shared with :mod:`repro.faults.scenario`): the
random stream that colors each attack render is
:func:`~repro.faults.scenario.keyed_rng` of the attack seed, the attack
name **and the** :func:`~repro.faults.scenario.content_key` **of the
recorded waveform**, so an attack render is a pure function of
``(seed, config, content)`` — byte-identical serially, on any render
thread, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import signal as sps

from ..acoustics.directivity import (
    DirectivityModel,
    human_head_directivity,
    loudspeaker_directivity,
)
from ..acoustics.sources import (
    SONY_SRS_X5,
    HumanSpeaker,
    LoudspeakerModel,
    SourceRendering,
    replay_channel,
    rolloff_gain,
)
from ..acoustics.speech import synthesize_wake_word
from ..faults.scenario import content_key, keyed_rng

__all__ = [
    "DirectionalHornReplay",
    "EqCompensatedReplay",
    "MultiSpeakerTdoaAttack",
    "SpeakeARChannel",
    "coordinated_mix",
    "eq_compensate",
    "horn_directivity",
    "rig_directivity",
    "speakear_capture",
]


def _clamped_sophistication(value: float) -> float:
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"sophistication must be a finite value >= 0, got {value}")
    return float(value)


def eq_compensate(
    audio: np.ndarray,
    sample_rate: int,
    model: LoudspeakerModel,
    max_boost_db: float,
) -> np.ndarray:
    """Pre-emphasize audio with the inverse of a model's roll-off shelf.

    The boost is the exact reciprocal of :func:`rolloff_gain`, capped at
    ``max_boost_db`` — an attacker's amplifier and driver excursion
    limit how much high-frequency gain is physically available, so the
    top octaves stay rolled off however sophisticated the EQ.
    """
    x = np.asarray(audio, dtype=float)
    if x.size == 0 or max_boost_db <= 0:
        return x.copy()
    n = x.size
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    inverse = 1.0 / rolloff_gain(freqs, model)
    ceiling = 10.0 ** (max_boost_db / 20.0)
    return np.fft.irfft(np.fft.rfft(x) * np.minimum(inverse, ceiling), n)


def speakear_capture(
    audio: np.ndarray,
    sample_rate: int,
    rng: np.random.Generator,
    cutoff_hz: float,
    noise_floor_db: float,
) -> np.ndarray:
    """A speakers-as-microphone capture of ``audio`` (SPEAKE(a)R).

    A loudspeaker driven backwards as a microphone is a terrible one:
    severe low-pass behaviour (the diaphragm cannot follow high
    frequencies in reverse) and a high electronics noise floor.  Both
    improve somewhat with attacker sophistication (better jack
    retasking, cleaner amplification) but never approach a real mic.
    """
    x = np.asarray(audio, dtype=float)
    if x.size == 0:
        return x.copy()
    cutoff = min(float(cutoff_hz), 0.45 * sample_rate)
    sos = sps.butter(4, cutoff, btype="lowpass", fs=sample_rate, output="sos")
    y = sps.sosfilt(sos, x)
    rms = np.sqrt(np.mean(y**2)) + 1e-12
    noise_rms = rms * 10.0 ** (noise_floor_db / 20.0)
    y = y + noise_rms * rng.standard_normal(y.size)
    peak = np.abs(y).max()
    if peak > 0:
        y = y / peak
    return y


def coordinated_mix(
    audio: np.ndarray,
    sample_rate: int,
    offsets_s: np.ndarray,
    gains: np.ndarray,
) -> np.ndarray:
    """Superpose one waveform played from several coordinated cabinets.

    ``offsets_s[k]`` is cabinet *k*'s residual arrival offset (the
    attacker aims for zero — perfect phase alignment at the target —
    and misses by their calibration error); ``gains[k]`` its relative
    level.  Offsets are rounded to whole samples; the summed waveform
    is peak-normalized.
    """
    x = np.asarray(audio, dtype=float)
    if x.size == 0:
        return x.copy()
    offsets = np.asarray(offsets_s, dtype=float)
    gains = np.asarray(gains, dtype=float)
    shifts = np.round(offsets * sample_rate).astype(int)
    shifts -= shifts.min()
    n = x.size + int(shifts.max())
    y = np.zeros(n)
    for shift, gain in zip(shifts, gains):
        y[shift : shift + x.size] += gain * x
    peak = np.abs(y).max()
    if peak > 0:
        y = y / peak
    return y


def _blend(a: float, b: float, alpha: float) -> float:
    return float(a + (b - a) * alpha)


def horn_directivity(sophistication: float) -> DirectivityModel:
    """A horn tuned toward human-head radiation lobes.

    Sophistication 0 is a plain box loudspeaker; by sophistication 3
    the horn's flare has been machined to reproduce the human pattern
    almost exactly (the practical ceiling for a passive horn).
    """
    s = _clamped_sophistication(sophistication)
    alpha = min(1.0, s / 3.0)
    box = loudspeaker_directivity()
    head = human_head_directivity()
    return DirectivityModel(
        omni_below_hz=_blend(box.omni_below_hz, head.omni_below_hz, alpha),
        directional_above_hz=_blend(
            box.directional_above_hz, head.directional_above_hz, alpha
        ),
        max_sharpness=_blend(box.max_sharpness, head.max_sharpness, alpha),
        rear_floor=_blend(box.rear_floor, head.rear_floor, alpha),
    )


def rig_directivity(sophistication: float) -> DirectivityModel:
    """The aggregate pattern of a multi-cabinet rig.

    Several spatially separated cabinets radiate high frequencies from
    several directions at once, so the rig as a whole is *broader* than
    any single box — the better coordinated the rig, the more its
    summed lobes fill in.
    """
    s = _clamped_sophistication(sophistication)
    box = loudspeaker_directivity()
    return DirectivityModel(
        omni_below_hz=box.omni_below_hz,
        directional_above_hz=box.directional_above_hz,
        max_sharpness=max(1.2, box.max_sharpness - 0.35 * s),
        rear_floor=min(0.3, box.rear_floor + 0.04 * s),
    )


@dataclass(frozen=True)
class _AttackSource:
    """What the four attacker families share.

    The fields: the victim ``voice`` whose wake word the attacker
    recorded, the replay loudspeaker ``model``, the ``sophistication``
    tier (checked on construction) and the ``seed``.  Each family adds
    its own ``name``, which keys its random stream alongside the seed.
    """

    voice: HumanSpeaker
    model: LoudspeakerModel = SONY_SRS_X5
    sophistication: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _clamped_sophistication(self.sophistication)

    def _record(
        self, wake_word: str, sample_rate: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.random.Generator]:
        """The attacker's recording of the wake word, and its channel stream.

        The stream is keyed by the recording's content, not drawn from
        ``rng``, so it is the same whatever thread renders it.
        """
        recorded = synthesize_wake_word(wake_word, self.voice.profile, sample_rate, rng)
        return recorded, keyed_rng(self.seed, self.name, content_key(recorded, sample_rate))


@dataclass(frozen=True)
class EqCompensatedReplay(_AttackSource):
    """Replay with the loudspeaker's roll-off EQ'd back out.

    Sophistication buys headroom: each tier adds ~6 dB to the available
    high-frequency boost (tier 3 restores the shelf out past 10 kHz for
    the Sony model), a quieter amplifier and a cleaner driver.  What it
    cannot buy back is *structure* — the boost amplifies the channel's
    flat noise floor along with the speech, which is the residual the
    hardened detector keys on.
    """

    name: str = "attack-eq"

    @property
    def max_boost_db(self) -> float:
        """Fidelity ceiling on the inverse-EQ boost."""
        return 6.0 * self.sophistication

    def emit(
        self, wake_word: str, sample_rate: int, rng: np.random.Generator
    ) -> SourceRendering:
        """Replay one EQ-compensated recording of the wake word."""
        recorded, channel_rng = self._record(wake_word, sample_rate, rng)
        boosted = eq_compensate(recorded, sample_rate, self.model, self.max_boost_db)
        s = self.sophistication
        rig = replace(
            self.model,
            noise_floor_db=self.model.noise_floor_db - 2.0 * s,
            distortion=self.model.distortion / (1.0 + s),
        )
        waveform = replay_channel(boosted, sample_rate, rig, channel_rng)
        return SourceRendering(
            waveform=waveform,
            sample_rate=sample_rate,
            directivity=loudspeaker_directivity(),
            is_live_human=False,
            label=f"{self.name}:{self.model.name}@{s:g}",
        )


@dataclass(frozen=True)
class DirectionalHornReplay(_AttackSource):
    """Replay through a horn shaped toward human-head lobes.

    Targets the *orientation* gate: the directivity features see lobes
    like a facing talker's.  The replay channel itself is untouched —
    a horn does not fix the driver's spectrum — so the liveness gate's
    spectral cues still apply.
    """

    name: str = "attack-horn"

    def emit(
        self, wake_word: str, sample_rate: int, rng: np.random.Generator
    ) -> SourceRendering:
        """Replay one recording through the horn."""
        recorded, channel_rng = self._record(wake_word, sample_rate, rng)
        waveform = replay_channel(recorded, sample_rate, self.model, channel_rng)
        return SourceRendering(
            waveform=waveform,
            sample_rate=sample_rate,
            directivity=horn_directivity(self.sophistication),
            is_live_human=False,
            label=f"{self.name}:{self.model.name}@{self.sophistication:g}",
        )


@dataclass(frozen=True)
class MultiSpeakerTdoaAttack(_AttackSource):
    """Coordinated multi-cabinet playback steering a facing-like TDoA.

    ``n_speakers`` cabinets (2 at tier 1, up to 4 at tier 3) play the
    same replayed recording with per-cabinet delay taps calibrated so
    the superposed wavefront arrives at the target array like a single
    facing talker's.  Residual calibration error (``jitter_s``) shrinks
    with sophistication; what remains smears the per-pair GCC peaks and
    breaks their cycle consistency — the TDoA-coherence cue.
    """

    name: str = "attack-tdoa"

    @property
    def n_speakers(self) -> int:
        """Cabinets in the rig (2–4, growing with sophistication)."""
        return int(np.clip(1 + round(self.sophistication), 2, 4))

    @property
    def jitter_s(self) -> float:
        """RMS residual alignment error per cabinet (seconds)."""
        return 0.45e-3 / max(self.sophistication, 0.5)

    def emit(
        self, wake_word: str, sample_rate: int, rng: np.random.Generator
    ) -> SourceRendering:
        """One coordinated playback of the recorded wake word."""
        recorded, channel_rng = self._record(wake_word, sample_rate, rng)
        replayed = replay_channel(recorded, sample_rate, self.model, channel_rng)
        n = self.n_speakers
        offsets = self.jitter_s * channel_rng.standard_normal(n)
        offsets[0] = 0.0  # the reference cabinet defines the wavefront
        gains = 1.0 / n * (1.0 + 0.1 * channel_rng.standard_normal(n))
        waveform = coordinated_mix(replayed, sample_rate, offsets, np.abs(gains))
        return SourceRendering(
            waveform=waveform,
            sample_rate=sample_rate,
            directivity=rig_directivity(self.sophistication),
            is_live_human=False,
            label=f"{self.name}:{self.model.name}x{n}@{self.sophistication:g}",
        )


@dataclass(frozen=True)
class SpeakeARChannel(_AttackSource):
    """Capture through retasked speakers, then replay (SPEAKE(a)R).

    The attacker never had a microphone: the victim's utterance was
    captured by loudspeakers driven in reverse — a channel with a hard
    band-limit and a high noise floor — and is then replayed through an
    ordinary loudspeaker.  Sophistication widens the capture band
    (better jack retasking) and lowers its noise floor.
    """

    name: str = "attack-speakear"

    @property
    def capture_cutoff_hz(self) -> float:
        """Band-limit of the speakers-as-mic capture."""
        return 1200.0 + 700.0 * self.sophistication

    @property
    def capture_noise_floor_db(self) -> float:
        """Noise floor of the speakers-as-mic capture (dB re signal RMS)."""
        return -26.0 - 4.0 * self.sophistication

    def emit(
        self, wake_word: str, sample_rate: int, rng: np.random.Generator
    ) -> SourceRendering:
        """Replay one speakers-as-mic capture of the wake word."""
        recorded, channel_rng = self._record(wake_word, sample_rate, rng)
        captured = speakear_capture(
            recorded,
            sample_rate,
            channel_rng,
            cutoff_hz=self.capture_cutoff_hz,
            noise_floor_db=self.capture_noise_floor_db,
        )
        waveform = replay_channel(captured, sample_rate, self.model, channel_rng)
        return SourceRendering(
            waveform=waveform,
            sample_rate=sample_rate,
            directivity=loudspeaker_directivity(),
            is_live_human=False,
            label=f"{self.name}:{self.model.name}@{self.sophistication:g}",
        )
