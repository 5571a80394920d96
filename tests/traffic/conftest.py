"""Traffic-test plumbing: clean process-global obs/monitor state.

The drive feeds the process-global decision monitor, so each test runs
against freshly reset observability state, disabled unless the test
turns it on, and the enabled flag it found is restored afterwards.
"""

import pytest

from repro.obs import REGISTRY, audit_log, observed, set_obs_enabled
from repro.obs.monitor import reset_monitor
from repro.obs.slo import reset_slo_monitor


def _reset_obs_state():
    set_obs_enabled(False)
    reset_monitor()
    reset_slo_monitor()
    REGISTRY.reset()
    audit_log().clear()


@pytest.fixture(autouse=True)
def clean_obs_state():
    with observed(False):
        _reset_obs_state()
        yield
        _reset_obs_state()
