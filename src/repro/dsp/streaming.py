"""Incremental frame extraction and GCC evidence accumulation.

The offline decision path sees a whole utterance at once; the serving
path (:mod:`repro.serving`) sees PCM a chunk at a time and must grow the
same frame-granular evidence incrementally:

- :class:`FrameFeed` aligns an arbitrary chunking of the stream onto the
  exact frame boundaries :func:`repro.dsp.gcc.extract_frames` would cut
  from the concatenated signal — a carry buffer holds the partial tail,
  so the emitted frames are invariant to how the stream was chunked;
- :class:`GccAccumulator` whitens each newly completed frame's pair
  cross-spectra (one rfft per frame) and keeps their running per-pair
  sum.  Callers read the evidence through one irfft of that sum, made
  on the first read after a push and cached until the next: the
  accumulated per-pair correlation windows, the SRP curve, its peak
  lag, and per-pair TDoA lags.  That evidence drives the streaming
  decider's SRP-stability gate only; decisions are made from the
  capture kernel's whole-utterance GCC matrix.

Neither class makes decisions; :class:`repro.core.streaming
.StreamingDecider` layers thresholds and early-exit policy on top.
"""

from __future__ import annotations

import numpy as np

from .gcc import (
    _cross_to_lags,
    _fft_length,
    _frame_cross_spectra,
    _validate_pairs,
    extract_frames,
)
from .precision import resolve_dtype


class FrameFeed:
    """Align a chunked multi-channel stream onto fixed frame boundaries.

    Frame ``t`` always covers samples ``t * hop_length`` to
    ``t * hop_length + frame_length`` of the *concatenated* stream,
    whatever chunk sizes arrive: complete frames are emitted as soon as
    their last sample lands, the partial tail is carried to the next
    push.  With ``hop_length < frame_length`` the carry keeps the
    overlap; with ``hop_length > frame_length`` it tracks the gap to
    skip.
    """

    def __init__(self, n_mics: int, frame_length: int, hop_length: int, dtype=None):
        if n_mics < 1:
            raise ValueError("n_mics must be >= 1")
        if frame_length < 1 or hop_length < 1:
            raise ValueError("frame_length and hop_length must be >= 1")
        self.n_mics = int(n_mics)
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        self.dtype = resolve_dtype(dtype)
        self.samples_seen = 0
        self.frames_emitted = 0
        self._pending: np.ndarray | None = None
        self._skip = 0

    @property
    def buffered(self) -> int:
        """Samples currently carried, waiting to complete a frame."""
        return 0 if self._pending is None else self._pending.shape[1]

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Absorb one chunk; return the newly completed frames.

        Returns a ``(k, n_mics, frame_length)`` array (``k`` may be 0).
        """
        x = np.asarray(chunk, dtype=self.dtype)
        if x.ndim != 2 or x.shape[0] != self.n_mics:
            raise ValueError(f"chunk must be ({self.n_mics}, n_samples), got {x.shape}")
        self.samples_seen += x.shape[1]
        if self._skip:
            drop = min(self._skip, x.shape[1])
            self._skip -= drop
            x = x[:, drop:]
        pending = x if self._pending is None else np.concatenate([self._pending, x], axis=1)
        if pending.shape[1] < self.frame_length:
            self._pending = pending if pending.shape[1] else None
            return np.zeros((0, self.n_mics, self.frame_length), dtype=self.dtype)
        n_frames = 1 + (pending.shape[1] - self.frame_length) // self.hop_length
        covered = (n_frames - 1) * self.hop_length + self.frame_length
        frames = extract_frames(
            pending[:, :covered],
            self.frame_length,
            self.hop_length,
            pad=False,
            dtype=self.dtype,
        )
        consumed = n_frames * self.hop_length
        if consumed < pending.shape[1]:
            self._pending = pending[:, consumed:].copy()
        else:
            self._pending = None
            self._skip = consumed - pending.shape[1]
        self.frames_emitted += n_frames
        return frames


class GccAccumulator:
    """Running per-pair GCC-PHAT evidence over a streamed capture.

    Each push whitens the newly completed frames' pair cross-spectra,
    one frame at a time, and adds them to a running per-pair sum of
    ``n_fft // 2 + 1`` bins.  :attr:`gcc_sum` inverts that sum once per
    read after a push (the inverse is cached until the next push).
    After ``n`` frames, ``gcc_sum / n`` matches the mean over
    ``pairwise_gcc_frames(stream, ..., pad=False)`` of the concatenated
    signal to within a few units in the last place: the transforms are
    the same and ``irfft`` is linear, but summing spectra before the
    inverse rounds differently from summing windows after it.
    """

    def __init__(
        self,
        n_mics: int,
        pairs: list[tuple[int, int]],
        max_lag: int,
        frame_length: int,
        hop_length: int,
        dtype=None,
    ):
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        _validate_pairs(pairs, n_mics)
        self.pairs = list(pairs)
        self.max_lag = int(max_lag)
        self.dtype = resolve_dtype(dtype)
        self.feed = FrameFeed(n_mics, frame_length, hop_length, dtype=self.dtype)
        self.n_frames = 0
        self._n_fft = _fft_length(2 * self.feed.frame_length, self.max_lag)
        self._i_idx = np.array([i for i, _ in self.pairs])
        self._j_idx = np.array([j for _, j in self.pairs])
        self._cross_sum = np.zeros(
            (len(self.pairs), self._n_fft // 2 + 1),
            dtype=np.result_type(self.dtype, np.complex64),
        )
        self._gcc_sum: np.ndarray | None = None

    @property
    def samples_seen(self) -> int:
        """Total samples pushed (including any carried tail)."""
        return self.feed.samples_seen

    @property
    def gcc_sum(self) -> np.ndarray:
        """Per-pair sum of the frames' correlation windows (read-only).

        ``(n_pairs, 2 * max_lag + 1)``; zeros before the first frame.
        """
        if self._gcc_sum is None:
            self._gcc_sum = _cross_to_lags(self._cross_sum, self._n_fft, self.max_lag, self.dtype)
            self._gcc_sum.flags.writeable = False
        return self._gcc_sum

    def push(self, chunk: np.ndarray) -> int:
        """Absorb one chunk; return how many new frames were accumulated."""
        frames = self.feed.push(chunk)
        for frame in frames:
            self._cross_sum += _frame_cross_spectra(
                frame, self._i_idx, self._j_idx, self._n_fft, self.dtype
            )
        if frames.shape[0]:
            self.n_frames += frames.shape[0]
            self._gcc_sum = None
        return int(frames.shape[0])

    def mean_gcc(self) -> np.ndarray:
        """Per-pair mean correlation window over the frames so far."""
        if self.n_frames == 0:
            return self.gcc_sum.copy()
        return self.gcc_sum / self.n_frames

    def srp(self) -> np.ndarray:
        """Accumulated SRP curve: the per-pair sums added over pairs."""
        return self.gcc_sum.sum(axis=0)

    def srp_argmax_lag(self) -> int:
        """Lag (in samples, signed) of the accumulated SRP maximum."""
        return int(np.argmax(self.srp())) - self.max_lag

    def tdoa_lags(self) -> np.ndarray:
        """Per-pair peak lags (in samples, signed) of the accumulated GCC."""
        return np.argmax(self.gcc_sum, axis=1) - self.max_lag
