"""Request-scoped correlation ids for end-to-end utterance tracing.

The serving gateway mints one id per utterance
(``<session_id>-u<n>``, e.g. ``s000042-u0003``) and binds it here for
the duration of that utterance's work.  Everything telemetry-shaped
that happens inside the binding picks it up automatically:

- :func:`repro.obs.audit.audit_record` adds a ``corr`` field to every
  record, so the gateway's ``serving`` event and the pipeline's
  ``decision`` record for the same utterance grep together;
- :func:`repro.obs.spans.span` adds a ``corr`` label to every span;
- :func:`repro.runtime.fanout.fan_out` runs each task under a copy of
  the caller's context, so spans recorded on its threads carry it too.

The binding is a :class:`contextvars.ContextVar`: asyncio tasks inherit
a copy of the context at creation, so concurrent sessions multiplexed
on one event loop each see their own id, and threads spawned inside a
binding inherit it the same way.  With no binding active nothing is
attached anywhere — the batch/offline paths are untouched.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

_CORRELATION: ContextVar[str | None] = ContextVar("repro_obs_correlation", default=None)


def correlation_id() -> str | None:
    """The correlation id bound to the current context (``None`` if unset)."""
    return _CORRELATION.get()


def set_correlation(value: str | None) -> None:
    """Bind (or, with ``None``/empty, clear) the current context's id.

    Prefer the :func:`correlated` scope; this flat setter binds for the
    rest of the current context (a test fixture clearing the id, say).
    """
    _CORRELATION.set(value or None)


@contextmanager
def correlated(value: str | None):
    """Scope a correlation id; the previous binding is restored on exit.

    ``correlated(None)`` (or ``""``) scopes *no* id — telemetry inside
    records nothing, exactly as if no binding existed.
    """
    token = _CORRELATION.set(value or None)
    try:
        yield
    finally:
        _CORRELATION.reset(token)
