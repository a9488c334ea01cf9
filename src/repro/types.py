"""Shared primitive types and identifiers.

The paper models a system as a set of clusters ``S = {C_1, ..., C_z}``,
each holding ``n`` replicas of which at most ``f`` are Byzantine with
``n > 3f``.  This module defines the identifier types used to address
replicas, clusters, and clients throughout the library, plus small value
objects shared by several subsystems.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, NamedTuple

from .errors import ConfigurationError

# Type aliases used pervasively.  They are plain ints/strs so messages stay
# cheap to hash and compare inside the simulator's hot loop.
ClusterId = int
RoundId = int
ViewId = int
SeqNum = int


class NodeId(NamedTuple):
    """Globally unique address of a replica or client.

    ``kind`` is ``"replica"`` or ``"client"``; replicas additionally carry
    the cluster they belong to and their index (the paper's ``id(R)``,
    which is 1-based within a cluster).

    Node ids key nearly every dict in the simulator's hot loop (uplink
    queues, commit votes, metrics), so the class is a named tuple:
    hashing, equality, and ordering all run at C speed with no Python
    frame per dict probe.  Field order matches the old dataclass
    declaration order, so sorting replicas is unchanged.  ``str()`` —
    interpolated into every signed payload — is memoized in a side
    table keyed by the (interned) id.
    """

    kind: str
    cluster: ClusterId
    index: int

    def __str__(self) -> str:
        try:
            return _node_str_memo[self]
        except KeyError:
            s = f"{self.kind[0]}{self.cluster}.{self.index}"
            _node_str_memo[self] = s
            return s


_node_str_memo: dict = {}


# Node ids are value objects constructed millions of times per run; the
# factory functions intern them so equal ids are the *same* object and
# dict lookups take the identity fast path instead of dataclass __eq__.
_node_id_intern: dict = {}


def replica_id(cluster: ClusterId, index: int) -> NodeId:
    """Return the :class:`NodeId` of replica ``index`` in ``cluster``.

    ``index`` follows the paper's convention and is 1-based.  Interned:
    repeated calls return the same instance.
    """
    if index < 1:
        raise ConfigurationError(f"replica index must be >= 1, got {index}")
    key = ("replica", cluster, index)
    node = _node_id_intern.get(key)
    if node is None:
        node = _node_id_intern[key] = NodeId(*key)
    return node


def client_id(cluster: ClusterId, index: int) -> NodeId:
    """Return the :class:`NodeId` of client ``index`` local to ``cluster``.

    Interned like :func:`replica_id`.
    """
    if index < 1:
        raise ConfigurationError(f"client index must be >= 1, got {index}")
    key = ("client", cluster, index)
    node = _node_id_intern.get(key)
    if node is None:
        node = _node_id_intern[key] = NodeId(*key)
    return node


def max_faulty(n: int) -> int:
    """Largest ``f`` a cluster of ``n`` replicas tolerates (``n > 3f``).

    >>> max_faulty(4)
    1
    >>> max_faulty(7)
    2
    """
    if n < 1:
        raise ConfigurationError(f"cluster size must be positive, got {n}")
    return (n - 1) // 3


class Quorums:
    """The thresholds of one membership of ``n`` replicas.

    Built once per membership (a replica's own cluster, each remote
    cluster it checks certificates from, a client's reply group) and
    read on the hot path, so every field is a plain slotted attribute:

    * ``f`` — faults tolerated, the largest with ``n > 3f``;
    * ``intersect`` — ``n - f``: two such sets share ``f + 1`` replicas,
      so PBFT prepare/commit, checkpoint and view-change quorums and
      commit certificates use it;
    * ``certificate`` — ``2f + 1``, Zyzzyva's commit certificate;
    * ``one_honest`` — ``f + 1``: at least one member is non-faulty
      (reply quorums, view-change join, share fan-out);
    * ``all`` — ``n``, Zyzzyva's fast path.

    >>> q = Quorums(7)
    >>> (q.f, q.intersect, q.certificate, q.one_honest, q.all)
    (2, 5, 5, 3, 7)
    """

    __slots__ = ("n", "f", "intersect", "certificate", "one_honest", "all")

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise ConfigurationError(f"cluster size must be an int, got {n!r}")
        f = max_faulty(n)
        for name, value in (("n", n), ("f", f), ("intersect", n - f),
                            ("certificate", 2 * f + 1),
                            ("one_honest", f + 1), ("all", n)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Quorums({self.n})"


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one cluster: its id, region, and size."""

    cluster_id: ClusterId
    region: str
    num_replicas: int

    def __post_init__(self) -> None:
        if self.num_replicas < 4:
            raise ConfigurationError(
                f"cluster {self.cluster_id} needs >= 4 replicas to tolerate "
                f"one fault (n > 3f), got {self.num_replicas}"
            )

    def replicas(self) -> list[NodeId]:
        """All replica ids of this cluster, in index order."""
        return [
            replica_id(self.cluster_id, i)
            for i in range(1, self.num_replicas + 1)
        ]


def check_config_fields(config, counts: Iterable[str] = (),
                        timeouts: Iterable[str] = (),
                        windows: Iterable[str] = (),
                        naturals: Iterable[str] = (),
                        fractions: Iterable[str] = (),
                        flags: Iterable[str] = (),
                        integers: Iterable[str] = ()) -> None:
    """Raise :class:`ConfigurationError` unless each named field of
    ``config`` holds a valid value: a count is an ``int`` (not a
    ``bool``) >= 1, a natural one >= 0 and an integer one of any sign
    (a seed), a timeout a finite number > 0, a window a finite number
    >= 0, a fraction a finite number in [0, 1], and a flag a ``bool``
    (not a truthy string or int).  Shared by every config dataclass
    (PBFT, GeoBFT, experiment, traffic)."""
    for name in flags:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise ConfigurationError(
                f"{name} must be a bool, got {value!r}")
    for names, least in ((counts, 1), (naturals, 0), (integers, None)):
        for name in names:
            value = getattr(config, name)
            if (not isinstance(value, int) or isinstance(value, bool)
                    or (least is not None and value < least)):
                bound = "" if least is None else f" >= {least}"
                raise ConfigurationError(
                    f"{name} must be an int{bound}, got {value!r}")
    for name in timeouts:
        value = getattr(config, name)
        if not (_is_finite(value) and value > 0):
            raise ConfigurationError(
                f"{name} must be a finite number > 0, got {value!r}")
    for name in windows:
        value = getattr(config, name)
        if not (_is_finite(value) and value >= 0):
            raise ConfigurationError(
                f"{name} must be a finite number >= 0, got {value!r}")
    for name in fractions:
        value = getattr(config, name)
        if not (_is_finite(value) and 0 <= value <= 1):
            raise ConfigurationError(
                f"{name} must be a finite number in [0, 1], got {value!r}")


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))
