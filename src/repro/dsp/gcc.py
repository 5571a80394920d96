"""Generalized Cross-Correlation with Phase Transform (GCC-PHAT).

GCC-PHAT (Knapp & Carter, 1976) whitens the cross-power spectrum of a
microphone pair so the inverse transform concentrates into sharp peaks at
the candidate time differences of arrival (Eq. 5 of the paper).  The
orientation feature extractor consumes a short window of correlation lags
centered at zero (e.g. 27 lags for device D2) per microphone pair,
together with the per-pair TDoA estimate.

Sign convention (shared by every function here and by
:mod:`repro.dsp.srp`): a lag is the arrival-time difference
``t_a - t_b`` in samples.  A *positive* lag therefore means the wavefront
reached ``signal_b`` first and ``signal_a`` lags behind it
(``a(t) ~= b(t - lag)``).  ``tests/dsp/test_gcc.py`` pins this with
synthetic integer shifts and against array geometry.

Every public function accepts ``dtype=`` (or defers to the process
dtype, see :mod:`repro.dsp.precision`): float64 is the byte-identical
default, float32 runs the transforms in single precision for the raw
hot path.  Granularities, coarse to fine:

- :func:`gcc_phat` — one pair of one capture;
- :func:`pairwise_gcc` — all pairs of one capture;
- :func:`pairwise_gcc_batch` — all pairs of *many captures*;
- :func:`pairwise_gcc_frames` / :func:`pairwise_gcc_framewise` — all
  *frames* x pairs of one capture.

One rule fixes the bits: every multi-pair path, the streaming
:class:`repro.dsp.streaming.GccAccumulator` included, whitens through
:func:`_whitened_pairs` — one ``rfft`` per capture or frame, then each
pair's cross-spectrum as a fresh 1-D product whitened in place.  numpy
computes ``spec_a * np.conj(spec_b)`` with one loop when it can elide
the ``conj`` temporary (rows of >= 256 KiB, i.e. >= 16,384 complex128
bins) and with another, rounding differently, for shorter rows, for
products over stacked rows and for ``out=`` writes; a fresh row per
pair is the only form that rounds the same way for every batch shape.
So a capture's windows are the same bytes alone or in a batch, and a
frame's are the same bytes as :func:`pairwise_gcc` on that frame.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..obs.control import warn_once
from ..obs.metrics import counter_inc
from .precision import fft_api, resolve_dtype

_PHAT_REGULARIZATION = 1e-12


def _note_truncation(dropped: int) -> None:
    """Record trailing samples a ``pad=False`` framing silently dropped.

    The streaming accumulator reads complete frames itself and never
    hits this; a batch caller that does is losing real audio from the
    decision, so it warns once per process (and counts every occurrence
    in the ``dsp.frames.truncated`` metric, labelled by nothing — the
    sample count is the increment).
    """
    counter_inc("dsp.frames.truncated", dropped)
    warn_once(
        "dsp.frames.truncated",
        f"extract_frames(pad=False) dropped {dropped} trailing samples that do not fill "
        "a complete frame; pass pad=True to keep them (warned once per process)",
    )


def _fft_length(n_linear: int, max_lag: int) -> int:
    """Power-of-two FFT size fitting linear correlation AND the lag window.

    The circular correlation of an ``n_fft``-point FFT only exposes lags
    ``-(n_fft // 2 - 1) .. n_fft // 2``; sizing by signal length alone
    silently truncated wide windows requested for short signals.  The
    returned size guarantees ``n_fft // 2 - 1 >= max_lag`` so the full
    ``2 * max_lag + 1`` window always exists.
    """
    n = max(int(n_linear), 2 * max_lag + 2)
    return 1 << (n - 1).bit_length()


def _lag_window(corr: np.ndarray, max_lag: int) -> np.ndarray:
    """Reorder circular correlation into lags ``-max_lag .. +max_lag``.

    ``irfft`` puts positive lags first and negative lags at the tail;
    works on any leading batch shape, operating over the last axis.
    """
    if max_lag == 0:
        return corr[..., :1]
    return np.concatenate([corr[..., -max_lag:], corr[..., : max_lag + 1]], axis=-1)


def _whiten(spec_a: np.ndarray, spec_b: np.ndarray) -> np.ndarray:
    """PHAT-whitened cross-power spectrum of two spectra."""
    cross = spec_a * np.conj(spec_b)
    cross /= np.abs(cross) + _PHAT_REGULARIZATION
    return cross


def gcc_phat(
    signal_a: np.ndarray,
    signal_b: np.ndarray,
    max_lag: int,
    dtype=None,
) -> np.ndarray:
    """Windowed GCC-PHAT between two signals.

    Returns the PHAT-weighted cross-correlation at integer lags
    ``-max_lag .. +max_lag`` — always exactly ``2 * max_lag + 1`` values,
    however short the signals (the FFT is sized to fit the window).
    Positive lags mean the wavefront reached ``signal_b`` first, i.e.
    ``signal_a`` lags ``signal_b`` (``a(t) ~= b(t - lag)``); the peak lag
    estimates the arrival-time difference ``t_a - t_b``.
    """
    dtype = resolve_dtype(dtype)
    a = np.asarray(signal_a, dtype=dtype).ravel()
    b = np.asarray(signal_b, dtype=dtype).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("signals must be non-empty")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    n_fft = _fft_length(a.size + b.size, max_lag)
    fft = fft_api(dtype)
    cross = _whiten(fft.rfft(a, n_fft), fft.rfft(b, n_fft))
    return _lag_window(fft.irfft(cross, n_fft), max_lag)


def lag_axis(max_lag: int, sample_rate: int) -> np.ndarray:
    """Lag values in seconds matching :func:`gcc_phat` output order."""
    lags = np.arange(-max_lag, max_lag + 1)
    return lags / float(sample_rate)


def estimate_tdoa(
    signal_a: np.ndarray,
    signal_b: np.ndarray,
    max_lag: int,
    sample_rate: int,
) -> float:
    """TDoA estimate in seconds: the lag of the GCC-PHAT maximum.

    The estimate is ``t_a - t_b``: positive values mean the wavefront
    reached ``signal_b`` first (``signal_a`` lags), matching
    :func:`gcc_phat` and ``MicArray.tdoa``/``steering_pair_lags``.
    """
    corr = gcc_phat(signal_a, signal_b, max_lag)
    best = int(np.argmax(corr))
    return (best - max_lag) / float(sample_rate)


def _validate_channels(channels: np.ndarray, dtype=None) -> np.ndarray:
    x = np.asarray(channels, dtype=resolve_dtype(dtype))
    if x.ndim != 2:
        raise ValueError(f"channels must be (n_mics, n_samples), got {x.shape}")
    if x.shape[1] == 0:
        raise ValueError("channels must be non-empty")
    return x


def _validate_pairs(pairs: Sequence[tuple[int, int]], n_mics: int) -> None:
    if not pairs:
        raise ValueError("pairs must be non-empty")
    for i, j in pairs:
        if not (0 <= i < n_mics and 0 <= j < n_mics):
            raise ValueError(f"pair ({i}, {j}) out of range for {n_mics} mics")


def _whitened_pairs(
    x: np.ndarray, pairs: Sequence[tuple[int, int]], n_fft: int, dtype
) -> Iterator[np.ndarray]:
    """PHAT-whitened cross-spectra of one ``(n_mics, n)`` capture's pairs.

    The one whitening form (see the module docstring): one ``rfft`` of
    all channels, reused across the pairs, then one fresh
    ``(n_fft // 2 + 1,)`` row per pair, in ``pairs`` order.  Rows are
    yielded one at a time, so a caller holds one pair's spectrum at once.
    """
    spectra = fft_api(dtype).rfft(x, n_fft, axis=1)
    for i, j in pairs:
        yield _whiten(spectra[i], spectra[j])


def _cross_to_lags(cross: np.ndarray, n_fft: int, max_lag: int, dtype) -> np.ndarray:
    """Lag windows ``(..., 2 * max_lag + 1)`` of whitened cross-spectra."""
    return _lag_window(fft_api(dtype).irfft(cross, n_fft, axis=-1), max_lag)


def _capture_gcc(
    arrays: Sequence[np.ndarray], pairs: list[tuple[int, int]], max_lag: int, dtype
) -> np.ndarray:
    """The one GCC-PHAT kernel, behind every ``pairwise_gcc*`` entry point.

    ``arrays`` are validated ``(n_mics, n_samples_k)`` captures (or
    frames) sharing ``n_mics``.  Each (capture, pair) row is whitened
    by :func:`_whitened_pairs` and inverted on its own.  Batching the
    inverse transforms, per capture or over the whole batch, measured
    slower on a 2-vCPU Xeon VM with numpy 2.4: 22.8 and 24.6 ms against
    18.2 ms for one 38,400-sample, 4-mic capture.
    """
    out = np.empty((len(arrays), len(pairs), 2 * max_lag + 1), dtype=dtype)
    for k, x in enumerate(arrays):
        n_fft = _fft_length(2 * x.shape[1], max_lag)
        for row, cross in enumerate(_whitened_pairs(x, pairs, n_fft, dtype)):
            out[k, row] = _cross_to_lags(cross, n_fft, max_lag, dtype)
    return out


def pairwise_gcc(
    channels: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    dtype=None,
) -> np.ndarray:
    """GCC-PHAT windows for several microphone pairs.

    Parameters
    ----------
    channels:
        ``(n_mics, n_samples)`` multi-channel capture.
    pairs:
        Microphone index pairs; row ``(i, j)`` uses channel ``i`` as
        ``signal_a`` and channel ``j`` as ``signal_b`` (see module
        docstring for the lag sign convention).
    max_lag:
        Half-window of lags, in samples.

    Returns
    -------
    ``(len(pairs), 2 * max_lag + 1)`` array of correlation windows — the
    window length always honours the request (the FFT is sized to fit).
    """
    dtype = resolve_dtype(dtype)
    x = _validate_channels(channels, dtype)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    _validate_pairs(pairs, x.shape[0])
    return _capture_gcc([x], pairs, max_lag, dtype)[0]


def pairwise_gcc_batch(
    batch: Sequence[np.ndarray],
    pairs: list[tuple[int, int]],
    max_lag: int,
    dtype=None,
) -> np.ndarray:
    """:func:`pairwise_gcc` over a batch of captures.

    Runs the same kernel as :func:`pairwise_gcc`, so each capture's
    windows are byte-identical to calling :func:`pairwise_gcc` on it
    alone.

    Parameters
    ----------
    batch:
        Sequence of ``(n_mics, n_samples_k)`` arrays; ``n_mics`` must
        agree across the batch, lengths may differ.

    Returns
    -------
    ``(len(batch), len(pairs), 2 * max_lag + 1)`` array.
    """
    dtype = resolve_dtype(dtype)
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    arrays = [_validate_channels(c, dtype) for c in batch]
    n_mics = arrays[0].shape[0]
    for a in arrays:
        if a.shape[0] != n_mics:
            raise ValueError("all captures in a batch must share n_mics")
    _validate_pairs(pairs, n_mics)
    return _capture_gcc(arrays, pairs, max_lag, dtype)


def extract_frames(
    channels: np.ndarray,
    frame_length: int,
    hop_length: int,
    pad: bool = True,
    dtype=None,
) -> np.ndarray:
    """Slice a multi-channel capture into overlapping analysis frames.

    The frame-granular view the streaming gateway consumes: every
    channel is sliced with the *same* frame boundaries, so frame ``t``
    of all microphones covers one synchronized time slice.

    Parameters
    ----------
    channels:
        ``(n_mics, n_samples)`` capture.
    frame_length, hop_length:
        Frame size and hop, in samples.
    pad:
        Zero-pad the tail so no samples are dropped (default); with
        ``pad=False`` only complete frames are returned (and a capture
        shorter than one frame yields zero frames).

    Returns
    -------
    ``(n_frames, n_mics, frame_length)`` array.
    """
    dtype = resolve_dtype(dtype)
    x = _validate_channels(channels, dtype)
    if frame_length < 1 or hop_length < 1:
        raise ValueError("frame_length and hop_length must be >= 1")
    n_samples = x.shape[1]
    if pad:
        n_frames = max(1, int(np.ceil(max(n_samples - frame_length, 0) / hop_length)) + 1)
        needed = (n_frames - 1) * hop_length + frame_length
        if needed > n_samples:
            x = np.concatenate(
                [x, np.zeros((x.shape[0], needed - n_samples), dtype=dtype)], axis=1
            )
    else:
        if n_samples < frame_length:
            _note_truncation(n_samples)
            return np.zeros((0, x.shape[0], frame_length), dtype=dtype)
        n_frames = 1 + (n_samples - frame_length) // hop_length
        dropped = n_samples - ((n_frames - 1) * hop_length + frame_length)
        if dropped > 0:
            _note_truncation(dropped)
    idx = np.arange(frame_length)[None, :] + hop_length * np.arange(n_frames)[:, None]
    # (n_mics, n_frames, frame_length) -> (n_frames, n_mics, frame_length)
    return np.ascontiguousarray(x[:, idx].transpose(1, 0, 2))


def pairwise_gcc_frames(
    channels: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    frame_length: int,
    hop_length: int,
    pad: bool = True,
    dtype=None,
) -> np.ndarray:
    """Per-frame GCC-PHAT windows for all microphone pairs of a capture.

    Orientation evidence per short frame, instead of one
    whole-utterance correlation.  Frame ``t`` of the result is exactly
    :func:`pairwise_gcc` on frame ``t`` of :func:`extract_frames`: the
    frames run through the same kernel.

    Returns
    -------
    ``(n_frames, len(pairs), 2 * max_lag + 1)`` array.
    """
    dtype = resolve_dtype(dtype)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    frames = extract_frames(channels, frame_length, hop_length, pad=pad, dtype=dtype)
    _validate_pairs(pairs, frames.shape[1])
    return _capture_gcc(frames, pairs, max_lag, dtype)


def pairwise_gcc_framewise(
    frames: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    dtype=None,
) -> np.ndarray:
    """:func:`pairwise_gcc_frames` over already-extracted frames.

    For callers that slice their own frames and want each frame's lag
    windows.  The streaming accumulator needs only their sum, so it
    keeps the sum of whitened cross-spectra instead and inverts once
    per read.

    Parameters
    ----------
    frames:
        ``(n_frames, n_mics, frame_length)`` array, e.g. from
        :func:`extract_frames`.

    Returns
    -------
    ``(n_frames, len(pairs), 2 * max_lag + 1)`` array.
    """
    dtype = resolve_dtype(dtype)
    x = np.asarray(frames, dtype=dtype)
    if x.ndim != 3:
        raise ValueError(f"frames must be (n_frames, n_mics, frame_length), got {x.shape}")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    _validate_pairs(pairs, x.shape[1])
    return _capture_gcc(x, pairs, max_lag, dtype)
