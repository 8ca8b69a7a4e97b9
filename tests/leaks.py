"""What a test may leave behind, as one snapshot to compare.

``resources()`` lists what a spawned target, its transport and
``init``'s helpers hold, and what outlives them when leaked: child
processes, file descriptors, this process's ``/dev/shm`` segments and
the runtime's own threads. A test takes it before it starts and asserts
the same snapshot when it is done.
"""

import gc
import multiprocessing
import os
import threading
from multiprocessing import resource_tracker

from repro.backends.shm import segment_prefix


def resources(baseline: bool = False) -> dict:
    """Everything a test may hold that outlives it when leaked.

    The ``baseline`` is taken after earlier tests' garbage went (a forked
    ``Process`` in a reference cycle keeps its sentinel pipe) and with
    shm's resource tracker running, which lives as long as the process
    once started. What the test itself leaves in a cycle is not collected
    before it is counted.
    """
    if baseline:
        gc.collect()
        resource_tracker.ensure_running()
    return {
        "children": sorted(child.pid for child in multiprocessing.active_children()),
        "fds": len(os.listdir("/proc/self/fd")),
        "threads": sorted(thread.name for thread in threading.enumerate()
                          if thread.name.startswith(("repro-", "ham-"))),
        # Only the segments this process named: another process's (a
        # second suite's, say) come and go on their own.
        "/dev/shm": sorted(name for name in os.listdir("/dev/shm")
                           if name.startswith(segment_prefix())),
    }
