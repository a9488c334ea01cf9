"""GeoBFT configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..consensus.pbft import PbftConfig
from ..errors import ConfigurationError
from ..types import check_config_fields

#: Sharing strategies for the ablation study (DESIGN.md §5).
SHARING_OPTIMISTIC = "optimistic_f1"   # the paper's f + 1 protocol
SHARING_SINGLE = "single"              # Example 2.4's broken 1-message send
SHARING_ALL = "all"                    # naive all-replica send

_VALID_SHARING = (SHARING_OPTIMISTIC, SHARING_SINGLE, SHARING_ALL)


@dataclass(frozen=True)
class GeoBftConfig:
    """Tuning knobs of a GeoBFT deployment."""

    #: Local replication (per-cluster PBFT) settings.
    pbft: PbftConfig = field(default_factory=PbftConfig)
    #: Base timeout while awaiting a remote cluster's share for an
    #: active round; doubles per remote view change (exponential
    #: back-off, §2.3).
    remote_timeout: float = 3.0
    #: Rotate which f + 1 remote replicas receive the global share each
    #: round (spreads load; the paper picks "a set S of f + 1 replicas").
    rotate_share_targets: bool = True
    #: Inter-cluster sharing strategy (ablation; default is the paper's).
    sharing_strategy: str = SHARING_OPTIMISTIC
    #: Represent commit certificates by a constant-size threshold
    #: signature instead of n - f commit signatures (paper §2.2 option).
    threshold_certificates: bool = False
    #: Suppress "recent local view change" remote requests within this
    #: window (Figure 7 line 16, condition 3).
    recent_view_change_window: float = 5.0
    #: How many of its own decided rounds a replica retains (each as its
    #: commit certificate) for retransmission after a remote view
    #: change.  Must comfortably exceed the rounds a cluster can decide
    #: within the remote-view-change detection time.
    certificate_retention_rounds: int = 512
    #: §2.5 pipelining: how many rounds local replication may run ahead
    #: of ordering/execution.  ``None`` (the paper's design) means
    #: unbounded overlap; ``1`` forces strictly sequential rounds — the
    #: ablation baseline.
    round_pipeline: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.pbft, PbftConfig):
            raise ConfigurationError(
                f"pbft must be a PbftConfig, got {self.pbft!r}")
        if self.sharing_strategy not in _VALID_SHARING:
            raise ConfigurationError(
                f"unknown sharing strategy {self.sharing_strategy!r}; "
                f"expected one of {_VALID_SHARING}"
            )
        check_config_fields(
            self, counts=("certificate_retention_rounds",),
            timeouts=("remote_timeout",),
            windows=("recent_view_change_window",),
            flags=("rotate_share_targets", "threshold_certificates"))
        if self.round_pipeline is not None:
            check_config_fields(self, counts=("round_pipeline",))
