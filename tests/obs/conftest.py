"""Shared observability-test plumbing.

Observability state is process-global (that is the point of the layer),
so every test here runs inside a fixture that clears spans, metrics,
the audit ring and the decision-quality monitor, runs the test with
observability disabled unless it turns it on, and restores the enabled
flag it found afterwards (an instrumented run stays instrumented past
this directory).
"""

import os

import pytest

from repro.obs import (
    REGISTRY,
    audit_log,
    clear_profiles,
    clear_spans,
    observed,
    set_obs_enabled,
    set_profiling_enabled,
)
from repro.obs.audit import DEFAULT_CAPACITY
from repro.obs.correlate import set_correlation
from repro.obs.monitor import reset_monitor
from repro.obs.slo import reset_slo_monitor


def _reset_obs_state():
    set_obs_enabled(False)
    set_profiling_enabled(False)
    clear_spans()
    REGISTRY.reset()
    clear_profiles()
    audit_log().clear()
    # Restore the env-derived sink, not None: the instrumented CI leg
    # runs the whole suite with REPRO_AUDIT_LOG pointing at the JSONL
    # the quality gate later replays, and a reset must not disconnect
    # every test after the first obs test from it.
    audit_log().configure(
        path=os.environ.get("REPRO_AUDIT_LOG") or None, capacity=DEFAULT_CAPACITY
    )
    reset_monitor()
    reset_slo_monitor()
    set_correlation(None)


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Fresh, disabled observability state around every test."""
    with observed(False):
        _reset_obs_state()
        yield
        _reset_obs_state()
