"""GCC evidence accumulated over a streamed capture.

The offline decision path sees a whole utterance at once; the serving
path (:mod:`repro.serving`) sees PCM a chunk at a time and must grow the
same frame-granular evidence incrementally.  :class:`GccAccumulator`
keeps no samples of its own: each push hands it the utterance's samples
so far (a view of the caller's store, such as the serving ring buffer),
and it folds in every complete frame it has not yet counted.  Frames
sit at the boundaries :func:`repro.dsp.gcc.extract_frames` cuts from
the whole signal, so the evidence does not depend on how the stream
was chunked.

Each frame's pair cross-spectra are whitened by the GCC kernel's own
helper (:func:`repro.dsp.gcc._whitened_pairs`, one ``rfft`` per frame)
and added to a running per-pair sum.  Callers read the evidence through
one ``irfft`` of that sum, made on the first read after a push and
cached until the next: the accumulated per-pair correlation windows,
the SRP curve, its peak lag, and per-pair TDoA lags.  That evidence
drives the streaming decider's SRP-stability gate only; decisions are
made from the capture kernel's whole-utterance GCC matrix.

The accumulator makes no decisions; :class:`repro.core.streaming
.StreamingDecider` layers thresholds and early-exit policy on top.
"""

from __future__ import annotations

import numpy as np

from .gcc import _cross_to_lags, _fft_length, _validate_pairs, _whitened_pairs
from .precision import resolve_dtype


class GccAccumulator:
    """Running per-pair GCC-PHAT evidence over a streamed capture.

    Frame ``t`` covers samples ``t * hop_length`` to
    ``t * hop_length + frame_length`` of the stream.  Each push whitens
    the newly complete frames' pair cross-spectra, one frame at a time,
    and adds them to a running per-pair sum of ``n_fft // 2 + 1`` bins.
    :attr:`gcc_sum` inverts that sum once per read after a push (the
    inverse is cached until the next push).  After ``n`` frames,
    ``gcc_sum / n`` matches the mean over
    ``pairwise_gcc_frames(stream, ..., pad=False)`` to within a few
    units in the last place: the transforms and the whitening are the
    same and ``irfft`` is linear, but summing spectra before the
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
        if n_mics < 1:
            raise ValueError("n_mics must be >= 1")
        if frame_length < 1 or hop_length < 1:
            raise ValueError("frame_length and hop_length must be >= 1")
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        _validate_pairs(pairs, n_mics)
        self.n_mics = int(n_mics)
        self.pairs = list(pairs)
        self.max_lag = int(max_lag)
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        self.dtype = resolve_dtype(dtype)
        self.n_frames = 0
        self._n_fft = _fft_length(self.frame_length, self.max_lag)
        self._cross_sum = np.zeros(
            (len(self.pairs), self._n_fft // 2 + 1),
            dtype=np.result_type(self.dtype, np.complex64),
        )
        self._gcc_sum: np.ndarray | None = None

    @property
    def gcc_sum(self) -> np.ndarray:
        """Per-pair sum of the frames' correlation windows (read-only).

        ``(n_pairs, 2 * max_lag + 1)``; zeros before the first frame.
        """
        if self._gcc_sum is None:
            self._gcc_sum = _cross_to_lags(self._cross_sum, self._n_fft, self.max_lag, self.dtype)
            self._gcc_sum.flags.writeable = False
        return self._gcc_sum

    def push(self, samples: np.ndarray) -> int:
        """Fold in the complete frames of ``samples`` not yet counted.

        ``samples`` is the stream so far, ``(n_mics, n)``; only the
        frames past those already counted are read, and none of it is
        kept.  A stream that has not grown by a whole frame adds
        nothing.  Returns how many frames were added.
        """
        x = np.asarray(samples)
        if x.ndim != 2 or x.shape[0] != self.n_mics:
            raise ValueError(f"samples must be ({self.n_mics}, n_samples), got {x.shape}")
        start = self.n_frames * self.hop_length
        if x.shape[1] < start + self.frame_length:
            return 0
        new = 1 + (x.shape[1] - start - self.frame_length) // self.hop_length
        end = start + (new - 1) * self.hop_length + self.frame_length
        x = np.asarray(x[:, start:end], dtype=self.dtype)
        for offset in range(0, new * self.hop_length, self.hop_length):
            frame = x[:, offset : offset + self.frame_length]
            for row, cross in enumerate(
                _whitened_pairs(frame, self.pairs, self._n_fft, self.dtype)
            ):
                self._cross_sum[row] += cross
        self.n_frames += new
        self._gcc_sum = None
        return new

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
