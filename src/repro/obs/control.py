"""Master switch for the observability layer, plus shared env parsing.

Everything in :mod:`repro.obs` — spans, metrics, the audit log — is
gated on one process-global flag so instrumented hot paths pay a single
function call and a global read when observability is off (the default).
Enable it per process with ``REPRO_OBS=1`` or programmatically with
:func:`set_obs_enabled` / the :func:`observed` scope.

This module also owns :func:`warn_once`, the package's one-time
``RuntimeWarning``, and the env readers (:func:`env_truthy`,
:func:`env_int`, :func:`env_float`) for the few deployment settings read
from the environment (the README's table): a malformed number falls
back to its default with a single ``RuntimeWarning`` per process naming
the bad value, and never changes behaviour silently; an unrecognised
switch spelling keeps the switch's default.  A blank value counts as
unset.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off", ""})


def truthy(value, default: bool = False) -> bool:
    """Case-insensitive boolean parse of an env-style switch value.

    ``"1"/"true"/"yes"/"on"`` (any case, surrounding whitespace ignored)
    are true; ``"0"/"false"/"no"/"off"/""`` are false; ``None`` and any
    unrecognized spelling fall back to ``default``.
    """
    if value is None:
        return default
    text = str(value).strip().lower()
    if text in _TRUTHY:
        return True
    if text in _FALSY:
        return False
    return default


def env_truthy(name: str, default: bool = False) -> bool:
    """:func:`truthy` applied to ``os.environ[name]`` (missing → default)."""
    return truthy(os.environ.get(name), default)


_WARNED: set[str] = set()


def warn_once(name: str, message: str, *, stacklevel: int = 4) -> None:
    """One ``RuntimeWarning`` per key per process.

    ``name`` is the dedupe key: the env var for a setting (so one read
    from several call sites still warns once), else a dotted name.
    Tests reset the state by monkeypatching ``repro.obs.control._WARNED``
    to a fresh set.
    """
    if name in _WARNED:
        return
    _WARNED.add(name)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)


def env_int(name: str, default: int) -> int:
    """``int(os.environ[name])`` with warn-once fallback to ``default``."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        warn_once(name, f"{name}={raw!r} is not an integer; using {default}")
        return default


def env_float(name: str, default: float) -> float:
    """Positive ``float(os.environ[name])`` with warn-once fallback.

    A value that does not parse, or is not finite and > 0, keeps
    ``default``.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value) or value <= 0:
        warn_once(
            name,
            f"ignoring {name}={raw!r} (expected a positive number); using {default}",
        )
        return default
    return value


_ENABLED = env_truthy("REPRO_OBS")


def obs_enabled() -> bool:
    """Whether observability is active for this process."""
    return _ENABLED


def set_obs_enabled(enabled: bool) -> None:
    """Turn span/metric/audit recording on or off globally."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def observed(enabled: bool = True):
    """Scoped observability toggle (restores the previous state on exit)."""
    previous = _ENABLED
    set_obs_enabled(enabled)
    try:
        yield
    finally:
        set_obs_enabled(previous)
