"""Host calibration: the one pure-Python ops/s normalizer.

Every consumer of host wall-time numbers — the scale and overload
campaigns' baseline gates and sweep-store records — reads this one
loop.  The simulator's
hot loop is interpreter-bound, so a small interpreter-bound loop is the
right normalizer for cross-machine rate comparisons (C-extension speed,
e.g. hashlib, matters far less).

This is *host-side* measurement code: it runs outside simulated time,
which is why its wall-clock reads are allowlisted from the
``no-wallclock`` lint rule.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict


def calibrate_host(rounds: int = 400_000) -> float:
    """Pure-Python ops/s of this host — dict/tuple/arith mix.

    Best-of-three so a transient scheduling hiccup does not understate
    the host.
    """
    best = float("inf")
    for _ in range(3):
        d: Dict[int, Any] = {}
        acc = 0
        t0 = time.perf_counter()
        for i in range(rounds):
            d[i & 1023] = (i, acc)
            acc += i * 3 // 2
            if acc > 1 << 40:
                acc &= (1 << 30) - 1
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return rounds / best


def host_info(calibration: float) -> Dict[str, Any]:
    """The host block stamped into store records and BENCH baselines."""
    return {
        "calibration_ops_per_s": round(calibration),
        "cpus": os.cpu_count() or 1,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


__all__ = ["calibrate_host", "host_info"]
