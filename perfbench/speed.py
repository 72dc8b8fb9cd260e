"""Machine-speed reference for normalising timings on a shared machine.

On a shared 2-vCPU virtual machine the same pass of `rollout` ops took
from 1.7 to 2.8 s of CPU time within one minute: other tenants change how
fast the CPU runs Python, and the machine switches between a fast and a
slow state that can last for minutes. A fixed chunk of interpreter work,
timed every 100 ms of CPU time, tracks that state but reacts more strongly
than the program: between the two states the chunk's time changed 1.9-fold and
`check`'s wall-clock throughput 1.6-fold. Each timing is therefore divided
by the chunk's median slowdown raised to SENSITIVITY. Over two sets of ten
runs per workload, one in each state, 0.6 kept every median within 17% of
the other set's; 0.5 left 24% and plain division (1.0) 48%.

The chunk touches no program code and allocates no GC-tracked objects, so
a change to the program reaches it only through the CPU caches, which an
untimed first call refills before each timed one.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median CPU time of one reference chunk on the machine the baseline was
# measured on (2 vCPUs, Intel Xeon, Python 3.11.7). A slowdown of 1.0 means
# the machine ran at that speed.
REFERENCE_CHUNK_S = 0.00085
SENSITIVITY = 0.6
SAMPLE_EVERY_S = 0.1

_TABLE = {str(i): i for i in range(256)}


def reference_chunk() -> int:
    """About a millisecond of dict lookups, string and integer work."""
    table, acc = _TABLE, 0
    for i in range(3000):
        key = str((acc + i) & 255)
        acc += table[key] ^ len(key)
    return acc


class Speedometer:
    """Samples the reference chunk every SAMPLE_EVERY_S of CPU time.

    Inside `with`, a virtual-time interval timer interrupts whatever runs,
    ops included, so long ops are sampled too. `spent` is the CPU time the
    samples took, which timings of the interrupted code subtract.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self) -> Speedometer:
        signal.signal(signal.SIGVTALRM, lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def sample(self) -> None:
        t0 = time.thread_time()
        reference_chunk()  # untimed: refills the caches the interrupted code used
        t1 = time.thread_time()
        reference_chunk()
        t2 = time.thread_time()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int) -> float:
        """How much slower than nominal the program ran since `mark()`
        returned `since`, judged from the chunk."""
        if len(self.samples) == since:
            self.sample()
        chunk = statistics.median(self.samples[since:]) / REFERENCE_CHUNK_S
        return chunk**SENSITIVITY
