"""Consensus protocols: PBFT plus the paper's baseline implementations.

GeoBFT itself lives in :mod:`repro.core`; this package holds the shared
replica runtime, the message vocabulary, the reusable PBFT engine, and
the Zyzzyva / HotStuff / Steward baselines evaluated in §4.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".hotstuff": ("HotStuffReplica",),
    ".pbft": ("PbftConfig", "PbftEngine", "PbftReplica"),
    ".replica": ("BaseReplica", "CpuModel"),
    ".steward": ("StewardReplica",),
    ".zyzzyva": ("ZyzzyvaReplica",),
})
