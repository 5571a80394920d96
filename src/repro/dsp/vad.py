"""Energy-based voice activity detection.

The preprocessing block "captures the wake command"; in this reproduction
a lightweight short-time-energy VAD finds the active region of a capture,
and :func:`repro.core.preprocessing.preprocess` trims every channel to it
so features are computed on the utterance rather than leading/trailing
silence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .windows import frame_signal


@dataclass(frozen=True)
class VadResult:
    """Active region of a capture, in samples, plus the frame decisions."""

    start: int
    end: int
    frame_active: np.ndarray

    @property
    def is_speech(self) -> bool:
        """Whether any active frames were found."""
        return self.end > self.start


def short_time_energy(
    signal: np.ndarray, frame_length: int = 480, hop_length: int = 240
) -> np.ndarray:
    """Mean-square energy per frame."""
    frames = frame_signal(signal, frame_length, hop_length)
    if frames.shape[0] == 0:
        return np.zeros(0)
    return np.mean(frames**2, axis=1)


def detect_activity(
    signal: np.ndarray,
    sample_rate: int,
    threshold_ratio: float = 0.05,
    frame_ms: float = 10.0,
    hang_frames: int = 3,
) -> VadResult:
    """Locate the active (speech) region of a single-channel signal.

    A frame is active when its energy exceeds ``threshold_ratio`` times
    the peak frame energy; ``hang_frames`` of margin are kept on both
    sides so plosive onsets/decays are not clipped.
    """
    x = np.asarray(signal, dtype=float).ravel()
    if x.size == 0:
        return VadResult(0, 0, np.zeros(0, dtype=bool))
    frame_length = max(16, int(sample_rate * frame_ms / 1000.0))
    hop_length = max(8, frame_length // 2)
    energy = short_time_energy(x, frame_length, hop_length)
    if energy.size == 0 or energy.max() <= 0:
        return VadResult(0, 0, np.zeros(energy.size, dtype=bool))
    active = energy >= threshold_ratio * energy.max()
    if not active.any():
        return VadResult(0, 0, active)
    first = max(0, int(np.argmax(active)) - hang_frames)
    last = min(active.size - 1, active.size - 1 - int(np.argmax(active[::-1])) + hang_frames)
    start = first * hop_length
    end = min(x.size, last * hop_length + frame_length)
    return VadResult(start, end, active)
