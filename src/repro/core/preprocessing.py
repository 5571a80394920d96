"""Preprocessing front-end (the 'Prepossessing' block of Figure 2).

Captures the wake command, removes out-of-band noise with the paper's
fifth-order Butterworth band-pass (100 Hz - 16 kHz), trims to the active
speech region and normalizes amplitude — producing the *denoised audio*
consumed by both feature extractors.

The front-end is also where hardware degradation is first *seen*:
:func:`screen_channels` inspects the raw capture for dead, clipped and
non-finite channels and attaches a :class:`ChannelHealth` report to the
:class:`DenoisedAudio`, so the pipeline can fail closed (or fall back to
the surviving microphone pairs) instead of feeding corrupted channels
into the feature extractors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..acoustics.propagation import Capture
from ..dsp.filters import headtalk_bandpass
from ..dsp.precision import resolve_dtype
from ..dsp.stft import mean_power_spectrum
from ..dsp.vad import detect_activity
from ..obs.spans import span

DEAD_RMS_RATIO = 1e-3
"""A channel whose RMS is this far below the loudest channel is dead."""

CLIP_FRACTION_THRESHOLD = 0.01
"""A channel with this fraction of samples pinned at the rail is clipped."""

_CLIP_RAIL_RATIO = 0.995
"""Samples at or above this fraction of the capture peak count as railed."""

VAD_THRESHOLD = 0.05
"""A frame is speech when its energy exceeds this fraction of the
reference channel's peak frame energy (:func:`repro.dsp.vad.detect_activity`)."""


@dataclass(frozen=True)
class ChannelHealth:
    """Per-channel screening report for one raw capture.

    ``dead`` / ``clipped`` / ``non_finite`` are index tuples of the
    channels each test flagged (a channel can appear in several).
    ``rms`` and ``clip_fraction`` carry the raw evidence so audit
    records can be sliced by *how* degraded the input was, not just
    whether.
    """

    n_channels: int
    dead: tuple[int, ...] = ()
    clipped: tuple[int, ...] = ()
    non_finite: tuple[int, ...] = ()
    rms: tuple[float, ...] = ()
    clip_fraction: tuple[float, ...] = ()

    @property
    def unhealthy(self) -> tuple[int, ...]:
        """Channels excluded from feature extraction (any flag raised)."""
        return tuple(sorted(set(self.dead) | set(self.clipped) | set(self.non_finite)))

    @property
    def healthy(self) -> tuple[int, ...]:
        """Channels safe to extract features from."""
        bad = set(self.unhealthy)
        return tuple(k for k in range(self.n_channels) if k not in bad)

    @property
    def is_degraded(self) -> bool:
        """Whether any channel failed screening."""
        return bool(self.unhealthy)

    @property
    def reference_channel(self) -> int:
        """Index of the channel used for single-channel analyses.

        The first channel normally; the first *healthy* channel when
        screening flagged channel 0 (a dead reference mic must not
        silence the VAD or the liveness detector).
        """
        healthy = self.healthy
        if healthy and 0 not in healthy:
            return healthy[0]
        return 0

    def to_dict(self) -> dict:
        """JSON-serializable form for audit records."""
        return {
            "n_channels": self.n_channels,
            "dead": list(self.dead),
            "clipped": list(self.clipped),
            "non_finite": list(self.non_finite),
            "healthy": list(self.healthy),
            "rms": [float(v) for v in self.rms],
            "clip_fraction": [float(v) for v in self.clip_fraction],
        }


def screen_channels(channels: np.ndarray) -> ChannelHealth:
    """Screen a raw ``(n_mics, n_samples)`` matrix for hardware faults.

    - *non-finite*: any NaN/Inf sample (ADC or driver corruption);
    - *dead*: channel RMS more than :data:`DEAD_RMS_RATIO` below the
      loudest finite channel (a silent capture flags nothing — silence
      is the VAD's job, not a hardware fault);
    - *clipped*: more than :data:`CLIP_FRACTION_THRESHOLD` of samples
      pinned at the capture's absolute peak (ADC saturation plateaus;
      ordinary audio touches its peak a handful of times).
    """
    x = np.asarray(channels, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"channels must be 2-D (n_mics, n_samples), got {x.shape}")
    n_channels = x.shape[0]
    finite_mask = np.isfinite(x)
    non_finite = tuple(int(k) for k in np.nonzero(~finite_mask.all(axis=1))[0])

    # Zeroing a copy only matters when a sample is not finite; the
    # reductions below see the same values either way.
    safe = np.where(finite_mask, x, 0.0) if non_finite else x
    rms = np.sqrt(np.mean(np.square(safe), axis=1))
    loudest = float(rms.max(initial=0.0))
    dead: tuple[int, ...] = ()
    if loudest > 0.0:
        dead = tuple(
            int(k) for k in np.nonzero(rms < DEAD_RMS_RATIO * loudest)[0]
        )

    magnitude = np.abs(safe)
    peak = float(magnitude.max(initial=0.0))
    if peak > 0.0:
        railed = magnitude >= _CLIP_RAIL_RATIO * peak
        clip_fraction = railed.mean(axis=1)
    else:
        clip_fraction = np.zeros(n_channels)
    clipped = tuple(
        int(k) for k in np.nonzero(clip_fraction > CLIP_FRACTION_THRESHOLD)[0]
    )
    return ChannelHealth(
        n_channels=n_channels,
        dead=dead,
        clipped=clipped,
        non_finite=non_finite,
        rms=tuple(float(v) for v in rms),
        clip_fraction=tuple(float(v) for v in clip_fraction),
    )


@dataclass(frozen=True)
class DenoisedAudio:
    """Output of the preprocessing block.

    :meth:`spectrum` memoizes each channel's mean power spectrum, so the
    consumers of one utterance (the liveness cue score, directivity
    consistency and the orientation features) share one transform.
    """

    channels: np.ndarray
    sample_rate: int
    had_speech: bool
    health: ChannelHealth | None = None
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def reference_channel(self) -> int:
        """Index of the channel used for single-channel analyses.

        The screening report's :attr:`ChannelHealth.reference_channel`;
        channel 0 for audio that was never screened.
        """
        return 0 if self.health is None else self.health.reference_channel

    @property
    def reference(self) -> np.ndarray:
        """The reference channel (used for single-channel liveness input)."""
        return self.channels[self.reference_channel]

    def spectrum(self, channel: int) -> tuple[np.ndarray, np.ndarray]:
        """``mean_power_spectrum`` of one channel, computed once per dtype.

        Returns the shared read-only ``(freqs_hz, power)`` pair, in the
        decision dtype resolved at the call (see
        :mod:`repro.dsp.precision`).
        """
        key = (channel, resolve_dtype(None))
        spectrum = self._spectra.get(key)
        if spectrum is None:
            spectrum = mean_power_spectrum(self.channels[channel], self.sample_rate)
            for array in spectrum:
                array.flags.writeable = False
            self._spectra[key] = spectrum
        return spectrum


def preprocess(capture: Capture, normalize: bool = True) -> DenoisedAudio:
    """Denoise, trim and normalize a capture.

    Amplitude is normalized so the loudest channel peaks at 1.0 (the
    paper normalizes audio between -1 and 1), which removes raw loudness
    as a trivial cue while keeping every inter-channel and spectral
    relationship intact.

    The raw channels pass through :func:`screen_channels` first;
    non-finite samples are zeroed before filtering so one corrupt
    channel cannot poison the band-pass or the normalization, and the
    voice-activity decision uses the first *healthy* channel.  Healthy
    captures take exactly the historical path — screening changes no
    bit of their output.

    The output channels are cast to the resolved decision dtype (see
    :mod:`repro.dsp.precision`) — a no-op on the float64 default.  The
    fifth-order Butterworth itself always filters in float64: a
    zero-phase order-5 band-pass is numerically fragile in single
    precision, and the filter is not the hot cost.
    """
    channels = capture.channels
    with span("preprocess.screen"):
        health = screen_channels(channels)
    if health.non_finite:
        channels = np.where(np.isfinite(channels), channels, 0.0)
    with span("preprocess.bandpass"):
        bandpass = headtalk_bandpass(capture.sample_rate)
        filtered = bandpass.apply(channels)
    with span("preprocess.vad"):
        activity = detect_activity(
            filtered[health.reference_channel], capture.sample_rate, VAD_THRESHOLD
        )
    had_speech = activity.is_speech
    if had_speech:
        filtered = filtered[:, activity.start : activity.end]
    if normalize:
        peak = np.abs(filtered).max()
        if peak > 0:
            filtered = filtered / peak
    return DenoisedAudio(
        channels=filtered.astype(resolve_dtype(), copy=False),
        sample_rate=capture.sample_rate,
        had_speech=had_speech,
        health=health,
    )
