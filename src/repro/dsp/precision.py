"""Decision-path numeric precision (the ``REPRO_DTYPE`` knob).

The paper's orientation gate must decide before the assistant acts on a
wake word, so the DSP hot path — GCC-PHAT, SRP-PHAT, the spectral
directivity features — is dtype-configurable:

- **float64** (the default) reproduces the repo's historical outputs
  bit for bit: every ``Decision.fingerprint`` and every cached render
  stays byte-identical to the seed, which is what the repro tests pin.
- **float32** halves the memory traffic of the correlation FFTs and
  runs them through :mod:`scipy.fft`'s true single-precision
  transforms, roughly doubling decision throughput on FFT-bound
  hardware.  Verdicts are identical and feature vectors agree within
  the tolerance pinned by ``tests/core/test_precision.py``.

Select per process with ``REPRO_DTYPE=float32`` (malformed values warn
once and keep the default — a typo must not silently change numerics),
programmatically with :func:`set_decision_dtype`, or scoped with the
:func:`precision` context manager.  Every dtype-aware function also
accepts an explicit ``dtype=`` argument that wins over the global.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from ..obs.control import warn_once

try:  # scipy ships real single-precision FFTs; numpy's pocketfft wrapper
    from scipy import fft as _scipy_fft  # computes float32 at float64 speed.
except ImportError:  # pragma: no cover - scipy is a hard dependency
    _scipy_fft = None

DTYPES = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}
DEFAULT_DTYPE = DTYPES["float64"]


def parse_dtype(value, default: np.dtype = DEFAULT_DTYPE, warn: bool = False) -> np.dtype:
    """Map an env-style spelling to a supported decision dtype.

    ``"float32"``/``"f32"``/``"single"`` and ``"float64"``/``"f64"``/
    ``"double"`` are accepted (any case, surrounding whitespace
    ignored); anything else falls back to ``default`` — with a one-time
    :class:`RuntimeWarning` (:func:`repro.obs.control.warn_once`) when
    ``warn`` is set, matching the other environment settings.
    """
    if value is None:
        return default
    text = str(value).strip().lower()
    if text in ("float32", "f32", "single", "32"):
        return DTYPES["float32"]
    if text in ("float64", "f64", "double", "64", ""):
        return DTYPES["float64"]
    if warn:
        warn_once(
            "REPRO_DTYPE",
            f"REPRO_DTYPE={value!r} is not one of float32/float64; "
            f"keeping {default.name}",
        )
    return default


_DTYPE = parse_dtype(os.environ.get("REPRO_DTYPE"), warn=True)


def set_decision_dtype(dtype) -> np.dtype:
    """Globally set the decision dtype; returns the applied dtype.

    ``dtype`` may be a numpy dtype, a type (``np.float32``) or a
    spelling (``"float32"``); anything else raises ``ValueError`` —
    the programmatic API is strict where the env knob is forgiving.
    """
    global _DTYPE
    resolved = np.dtype(dtype)
    if resolved not in DTYPES.values():
        raise ValueError(f"decision dtype must be float32 or float64, got {resolved}")
    _DTYPE = resolved
    return _DTYPE


@contextmanager
def precision(dtype):
    """Scoped decision dtype (restores the previous dtype on exit)."""
    previous = _DTYPE
    set_decision_dtype(dtype)
    try:
        yield
    finally:
        set_decision_dtype(previous)


def resolve_dtype(dtype=None) -> np.dtype:
    """An explicit ``dtype=`` argument, else the process-global dtype."""
    if dtype is None:
        return _DTYPE
    resolved = np.dtype(dtype)
    if resolved not in DTYPES.values():
        raise ValueError(f"decision dtype must be float32 or float64, got {resolved}")
    return resolved


def fft_api(dtype):
    """The FFT module to use for signals of ``dtype``.

    float64 keeps ``numpy.fft`` — the seed's transform, so default-path
    outputs stay byte-identical.  float32 uses ``scipy.fft``, whose
    pocketfft backend runs genuine single-precision transforms (numpy's
    wrapper preserves the dtype but not the speed); when scipy is
    unavailable the numpy fallback is still dtype-correct, just slower.
    """
    if np.dtype(dtype) == DTYPES["float32"] and _scipy_fft is not None:
        return _scipy_fft
    return np.fft
