"""Consensus protocols: PBFT plus the paper's baseline implementations.

GeoBFT itself lives in :mod:`repro.core`; this package holds the shared
replica runtime, the message vocabulary, the reusable PBFT engine, and
the Zyzzyva / HotStuff / Steward baselines evaluated in §4.
"""

from .hotstuff import HotStuffReplica
from .pbft import PbftConfig, PbftEngine, PbftReplica
from .replica import BaseReplica, CpuModel
from .steward import StewardReplica
from .zyzzyva import ZyzzyvaReplica

__all__ = [
    "HotStuffReplica",
    "PbftConfig",
    "PbftEngine",
    "PbftReplica",
    "BaseReplica",
    "CpuModel",
    "StewardReplica",
    "ZyzzyvaReplica",
]
