"""Which CPU runs what.

The slow phases of the sandbox come and go per virtual CPU (the same
kernel timed on both at once: 33 ms on one, 52 ms on the other, for
seconds, correlation 0.4), so a calibration taken on one CPU says
nothing about a program running on the other.  The program under test
is therefore pinned to one CPU, the calibration kernel runs on that CPU,
and a load generator that is a process of its own (``http_closed_c2``)
is pinned to another.  Imports nothing heavy: ``__main__`` pins the
process before numpy loads, so OpenBLAS sizes its pool for one CPU.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


def pick_cpus() -> tuple[int, int]:
    """``(generator CPU, CPU of the program under test)`` out of the CPUs
    this process may run on; the same CPU twice when there is only one."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


@contextmanager
def on_cpu(cpu: int | None):
    """Pin the calling thread to ``cpu`` inside the block (None: no-op).

    Threads and processes started inside inherit the pin.
    """
    if cpu is None:
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)
