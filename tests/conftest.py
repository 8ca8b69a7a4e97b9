"""Suite-wide leak check: process-global switches.

Every test must leave the global runtime finalized, telemetry off, and
the flight recorder's crash directory and the ``SIGUSR2`` handler as it
found them, whatever it did in between — asserted, not reset, so a test
that relies on (or causes) a leftover fails where it runs instead of
changing the verdict of whichever test comes next.

Hypothesis draws the same examples on every run (the ``tier1`` profile,
loaded here): a property that fails, fails every time, and one that
passes is not a coin toss. ``--hypothesis-profile=explore`` draws fresh
examples per run (add ``--hypothesis-seed=N`` to replay one).
"""

import signal

import pytest
from hypothesis import settings

from repro.offload import api as offload_api
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _leaves_no_global_state():
    flight = flightrecorder.get()
    armed = (flight.crash_dir, signal.getsignal(signal.SIGUSR2))
    yield
    assert not offload_api.is_initialized(), (
        "the test left offload.init() without a finalize()")
    assert not telemetry.enabled(), "the test left telemetry enabled"
    assert (flight.crash_dir, signal.getsignal(signal.SIGUSR2)) == armed, (
        "the test left the flight recorder armed (crash dir / SIGUSR2)")
