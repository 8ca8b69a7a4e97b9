"""Suite-wide leak check, first rung: process-global switches.

Every test must leave the global runtime finalized and telemetry off,
whatever it did in between — asserted, not reset, so a test that relies
on (or causes) a leftover fails where it runs instead of changing the
verdict of whichever test comes next.
"""

import pytest

from repro.offload import api as offload_api
from repro.telemetry import recorder as telemetry


@pytest.fixture(autouse=True)
def _leaves_no_global_state():
    yield
    assert not offload_api.is_initialized(), (
        "the test left offload.init() without a finalize()")
    assert not telemetry.enabled(), "the test left telemetry enabled"
