"""Host-speed probe: a fixed 5000-step Python loop timed every 20 ms.

Usage: python3 bench/probe.py OUT.json   (stops on SIGTERM, then writes)

On a shared virtual machine the same work can take a third longer from
one minute to the next, in CPU time as well as in wall time.  run.py
keeps this probe running beside the measured processes and scales each
measured interval by the median loop time inside it (see run.py).  The
probe uses about 1% of one CPU and never imports cmtomo, so a change to
the library cannot move it.  Each sample is (perf_counter start, loop
seconds); perf_counter is CLOCK_MONOTONIC, shared by all processes.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path


def _loop() -> int:
    x = 0
    for i in range(5000):
        x += i
    return x


def main(path: str) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        time.sleep(0.02)
        t0 = time.perf_counter()
        _loop()
        samples.append((t0, time.perf_counter() - t0))
    Path(path).write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
