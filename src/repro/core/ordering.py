"""Ordering and execution of GeoBFT rounds (paper §2.4).

In round ``rho`` every cluster contributes one certified client request.
Once a replica holds certified requests from *all* ``z`` clusters for
``rho``, it executes them in the pre-defined cluster order
``[T_1, ..., T_z]``.  The :class:`OrderingBuffer` collects shares per
round and releases complete rounds strictly in order, which — together
with deterministic execution — yields the paper's non-divergence
guarantee (Theorem 2.8).

Rounds are released to an ``execute`` callback; the buffer itself is
protocol-agnostic and fully unit-testable without a network.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..consensus.messages import CommitCertificate
from ..errors import ProtocolError
from ..types import ClusterId, RoundId

#: Execution callback: (round, [(cluster, certificate), ...]) with the
#: list sorted by cluster id.
ExecuteCallback = Callable[
    [RoundId, List[Tuple[ClusterId, CommitCertificate]]], None]


class OrderingBuffer:
    """Collects per-cluster shares and releases rounds in order.

    A pending round maps cluster id to that cluster's commit
    certificate; the certified request is ``certificate.request``.
    """

    def __init__(self, cluster_ids: Iterable[ClusterId],
                 execute: ExecuteCallback):
        self._cluster_ids = tuple(sorted(cluster_ids))
        if not self._cluster_ids:
            raise ProtocolError("ordering buffer needs at least one cluster")
        self._execute = execute
        self._next_round: RoundId = 1
        self._pending: Dict[RoundId, Dict[ClusterId, CommitCertificate]] = {}

    @property
    def next_round(self) -> RoundId:
        """The next round awaiting execution."""
        return self._next_round

    @property
    def cluster_ids(self) -> Tuple[ClusterId, ...]:
        """All clusters whose shares each round requires."""
        return self._cluster_ids

    def executed_rounds(self) -> int:
        """Rounds fully executed so far."""
        return self._next_round - 1

    def has_share(self, round_id: RoundId, cluster_id: ClusterId) -> bool:
        """Whether the share of ``cluster_id`` for ``round_id`` is held
        (or the round already executed)."""
        if round_id < self._next_round:
            return True
        return cluster_id in self._pending.get(round_id, {})

    def get_share(self, round_id: RoundId, cluster_id: ClusterId
                  ) -> Optional[CommitCertificate]:
        """The pending certificate for (round, cluster), if buffered."""
        return self._pending.get(round_id, {}).get(cluster_id)

    def missing_clusters(self, round_id: RoundId) -> Tuple[ClusterId, ...]:
        """Clusters whose share for ``round_id`` has not arrived yet."""
        if round_id < self._next_round:
            return ()
        have = self._pending.get(round_id, {})
        return tuple(c for c in self._cluster_ids if c not in have)

    def add_share(self, round_id: RoundId, cluster_id: ClusterId,
                  certificate: CommitCertificate) -> bool:
        """Buffer one cluster's certificate for a round.

        Returns ``True`` if this share was new.  Duplicate shares are
        ignored (agreement: only one certificate can exist per cluster
        per round, Lemma 2.3, so duplicates are identical).
        """
        if cluster_id not in self._cluster_ids:
            raise ProtocolError(f"share from unknown cluster {cluster_id}")
        if round_id < self._next_round:
            return False  # round already executed
        shares = self._pending.setdefault(round_id, {})
        if cluster_id in shares:
            return False
        shares[cluster_id] = certificate
        self._release_ready_rounds()
        return True

    def _release_ready_rounds(self) -> None:
        while True:
            shares = self._pending.get(self._next_round)
            if shares is None or len(shares) < len(self._cluster_ids):
                return
            round_id = self._next_round
            ordered = [(cid, shares[cid]) for cid in self._cluster_ids]
            del self._pending[round_id]
            self._next_round += 1
            self._execute(round_id, ordered)
