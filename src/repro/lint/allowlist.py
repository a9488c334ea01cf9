"""The committed allowlist: justified exceptions to the lint rules.

Every entry names a rule, a file (matched by path suffix), optionally
the enclosing ``Class.method`` symbol (so entries survive line-number
churn), and a **mandatory** justification.  An entry with an empty
justification is a :class:`~repro.errors.ConfigurationError` — the
engine validates this on every run, so an unjustified exception cannot
even execute, let alone merge.

Prefer an inline ``# repro: allow[rule-id] reason`` suppression for a
single odd line; use an allowlist entry when a whole symbol is
legitimately exempt (host-side calibration code, documented memo-key
identity use).  Keep this list short: every entry is a hole in a
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class AllowlistEntry:
    """One justified exception.

    ``path`` is matched as a forward-slash suffix of the linted file
    path; ``symbol`` (when given) must equal the finding's enclosing
    qualname or be an ancestor of it (``"Bench"`` covers
    ``"Bench.run"``).
    """

    rule: str
    path: str
    justification: str
    symbol: Optional[str] = None


#: The committed exceptions.  Every entry must say *why* the contract
#: does not apply — "it was easier" is not a justification.
ALLOWLIST: List[AllowlistEntry] = [
    AllowlistEntry(
        rule="no-wallclock",
        path="benchmarks/bench_crypto_hotpath.py",
        symbol=None,
        justification=(
            "Host-side micro-benchmark of the crypto hot path; "
            "perf_counter() here times real CPU work on the host and "
            "never executes inside the simulation."
        ),
    ),
    AllowlistEntry(
        rule="no-wallclock",
        path="repro/sweep/calibrate.py",
        symbol=None,
        justification=(
            "Host calibration is by definition a wall-clock measurement: "
            "it times a pure-Python loop on the host to normalize "
            "cross-machine perf comparisons, and never runs inside "
            "simulated time."
        ),
    ),
    AllowlistEntry(
        rule="no-wallclock",
        path="repro/sweep/runner.py",
        symbol=None,
        justification=(
            "The sweep runner times *host* execution of each run (the "
            "wall_s/events_per_s fields the perf gates compare after "
            "host calibration); the reads bracket a whole simulation "
            "and never execute inside simulated time."
        ),
    ),
]
