"""The machine's current speed, from a fixed pure-Python reference loop.

The benchmark's host is a small virtual machine whose speed drifts with its
neighbours' load: the same code runs up to twice as long within seconds,
and phases of a given speed last from seconds to minutes, so the medians
of two runs made minutes apart differ by more than any regression worth
catching.  The two vCPUs slow down independently of each other, so run.py
pins itself and everything it starts to one CPU, times `reference_loop`
in a fresh process right before every untraced repetition, and scales
that repetition's times to a machine on which the loop takes
`REFERENCE_S`:

    scaled time = measured time * REFERENCE_S / (reference loop time)

A run reports the median of the scaled times.  The loop runs in its own
interpreter and never imports esdsim, so a change to the program moves the
scaled metrics exactly as much as the raw ones; only the machine's speed
cancels.  It does the same kind of work as esdsim's sparse Fock algebra (small
objects and tuples hashed into dicts, complex accumulation, short sorts),
so it slows down with the machine the way the program does.
"""

from __future__ import annotations

import sys
import time

# A round figure near the time of `reference_loop` on the machine the
# baseline was recorded on (0.40 to 0.47 s as run-medians on a 2-vCPU x86_64
# VM, Python 3.11.7).  It only fixes the unit: scaled times are those of a
# machine that runs the loop in exactly this long.
REFERENCE_S = 0.5

_ROUNDS = 20


class _Mode:
    __slots__ = ("timebin", "port")

    def __init__(self, timebin: int, port: int):
        self.timebin = timebin
        self.port = port

    def __hash__(self) -> int:
        return hash((self.timebin, self.port))

    def __eq__(self, other) -> bool:
        return self.timebin == other.timebin and self.port == other.port


def _work() -> complex:
    modes = [_Mode(t, p) for t in range(3) for p in range(6)]
    amps: dict[tuple, complex] = {}
    for i in range(4000):
        occ = tuple(sorted(((modes[(i * k) % 18], k) for k in range(1, 4)),
                           key=lambda mc: (mc[0].timebin, mc[0].port)))
        amps[occ] = amps.get(occ, 0j) + complex(i % 7, 1.0) * (0.5 + 0.25j)
    return sum(amps.values())


def reference_loop() -> float:
    """Wall time of a fixed amount of pure-Python work, in seconds."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _work()
    return time.perf_counter() - start


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit("usage: python3 speed.py   (prints the reference loop's time in seconds)")
    print(reference_loop())
