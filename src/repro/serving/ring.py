"""Bounded per-session PCM store.

Each gateway session owns one :class:`RingBuffer`: a capacity-bounded
``(n_mics, capacity)`` float64 store the device's chunks are written
into as they arrive.  Storage grows geometrically with demand (hundreds
of concurrent sessions must not each preallocate their worst case) but
never past capacity, which is sized for the longest admissible wake
utterance (``ServingConfig.ring_seconds``).  A stream that exceeds it
has its *newest* samples dropped — the decision window is the utterance
head, and a client that keeps streaming past capacity is
malfunctioning, so the head is what the gate should judge.  Overflow is
never silent: ``dropped`` counts the lost samples and the session marks
its decision record accordingly.

Within capacity, ``snapshot()`` reproduces the concatenated stream
bit-for-bit (float64 in, float64 out, plain copies) — the property the
streaming-equals-batch verdict contract rests on.  ``clear()`` recycles
the allocation between utterances of the same session.
"""

from __future__ import annotations

import numpy as np

_INITIAL_CAPACITY = 8192


class RingBuffer:
    """Capacity-bounded multi-channel sample store (tail-drop on overflow).

    Implements the decider's buffer protocol: ``append`` / ``prefix`` /
    ``snapshot`` / ``dropped``.
    """

    def __init__(self, n_mics: int, capacity: int):
        if n_mics < 1:
            raise ValueError("n_mics must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.n_mics = int(n_mics)
        self.capacity = int(capacity)
        self._store = np.zeros((self.n_mics, min(_INITIAL_CAPACITY, self.capacity)))
        self._length = 0
        self.dropped = 0

    @property
    def length(self) -> int:
        """Samples currently stored."""
        return self._length

    @property
    def free(self) -> int:
        """Samples of remaining (logical) capacity."""
        return self.capacity - self._length

    def _ensure(self, n_samples: int) -> None:
        """Grow the backing store to hold ``n_samples`` (<= capacity)."""
        if n_samples <= self._store.shape[1]:
            return
        grown = self._store.shape[1]
        while grown < n_samples:
            grown *= 2
        grown = min(grown, self.capacity)
        store = np.zeros((self.n_mics, grown))
        store[:, : self._length] = self._store[:, : self._length]
        self._store = store

    def append(self, chunk: np.ndarray) -> int:
        """Store one ``(n_mics, k)`` chunk; returns samples dropped."""
        x = np.asarray(chunk, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.n_mics:
            raise ValueError(f"chunk must be ({self.n_mics}, n_samples), got {x.shape}")
        keep = min(x.shape[1], self.free)
        if keep:
            self._ensure(self._length + keep)
            self._store[:, self._length : self._length + keep] = x[:, :keep]
            self._length += keep
        lost = x.shape[1] - keep
        self.dropped += lost
        return lost

    def prefix(self, n_samples: int) -> np.ndarray:
        """View of the first ``n_samples`` stored samples (fewer if short)."""
        return self._store[:, : min(int(n_samples), self._length)]

    def snapshot(self) -> np.ndarray:
        """Copy of everything stored, ``(n_mics, length)``."""
        return self._store[:, : self._length].copy()

    def clear(self) -> None:
        """Empty the buffer for the next utterance (allocation reused)."""
        self._length = 0
        self.dropped = 0
