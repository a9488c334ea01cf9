"""Pairwise message authentication codes.

ResilientDB authenticates non-forwarded messages (preprepare, prepare,
checkpoint, ...) with AES-CMAC MACs, which are much cheaper than digital
signatures (paper §2.1, §3).  This module models that with HMAC-SHA256
over a pairwise shared key derived from the two endpoints' identities;
like a signature (:mod:`.signatures`), a tag covers the two endpoints
and the payload's digest, not its bytes.

A MAC convinces only its intended receiver, so MAC-authenticated
messages cannot be usefully forwarded — exactly the property that forces
GeoBFT to sign client requests and commit messages (the only forwarded
messages) while everything else uses MACs.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import InvalidMacError
from ..types import NodeId
from .digests import CachedEncodable, digest_of, encode_canonical
from .signatures import VerificationCache

MAC_SIZE = 16  # bytes, matching AES-CMAC.


@dataclass(frozen=True)
class Mac:
    """An authentication tag from ``sender`` for one specific receiver."""

    sender: NodeId
    tag: bytes

    def size_bytes(self) -> int:
        """Wire size of the tag (AES-CMAC-sized)."""
        return MAC_SIZE


class MacAuthenticator:
    """Creates and checks pairwise MACs for one node.

    All authenticators of a deployment share a ``domain`` secret (derived
    from the deployment seed); the pairwise key between nodes ``a`` and
    ``b`` is ``H(domain || min(a,b) || max(a,b))``, so both endpoints can
    compute it but the simulator never does key exchange.
    """

    __slots__ = ("_node", "_domain", "_pair_keys", "_cache")

    def __init__(
        self,
        node: NodeId,
        domain: bytes = b"resilientdb-mac",
        cache: Optional[VerificationCache] = None,
    ) -> None:
        self._node = node
        self._domain = domain
        # Pairwise keys are pure functions of (domain, endpoints); memoize
        # them so the derivation hash runs once per peer, not per message.
        self._pair_keys: Dict[NodeId, bytes] = {}
        # Optionally shared with the deployment's KeyRegistry so MAC
        # verification outcomes are memoized deployment-wide.
        self._cache = cache

    @property
    def node(self) -> NodeId:
        """The identity this authenticator authenticates as."""
        return self._node

    def _pair_key(self, other: NodeId) -> bytes:
        key = self._pair_keys.get(other)
        if key is None:
            first, second = sorted((str(self._node), str(other)))
            material = self._domain + first.encode() + b"|" + second.encode()
            key = hashlib.sha256(material).digest()
            self._pair_keys[other] = key
        return key

    def tag(self, receiver: NodeId, payload: Any) -> Mac:
        """Produce a MAC over ``payload`` for ``receiver``."""
        message = encode_canonical(
            (str(self._node), str(receiver), digest_of(payload)))
        key = self._pair_key(receiver)
        raw = hmac.new(key, message, hashlib.sha256).digest()
        return Mac(self._node, raw[:MAC_SIZE])

    def verify(self, mac: Mac, payload: Any) -> bool:
        """Check a MAC addressed to this node.  Returns ``False`` on any
        mismatch rather than raising, as replicas simply discard bad
        messages.

        Outcomes for :class:`~.digests.CachedEncodable` payloads are
        memoized when a shared :class:`VerificationCache` was supplied;
        the MAC outcome is a pure function of (sender, receiver, payload
        digest, tag), and the receiver is part of the key because a MAC
        convinces only its addressee.
        """
        payload_digest = digest_of(payload)
        cache_key = None
        if self._cache is not None and isinstance(payload, CachedEncodable):
            cache_key = (
                "mac", mac.sender, self._node, payload_digest, mac.tag,
            )
            cached = self._cache.get(cache_key)
            if cached is not None:
                return cached
        message = encode_canonical(
            (str(mac.sender), str(self._node), payload_digest))
        key = self._pair_key(mac.sender)
        expected = hmac.new(key, message, hashlib.sha256).digest()[:MAC_SIZE]
        outcome = hmac.compare_digest(expected, mac.tag)
        if cache_key is not None:
            self._cache.put(cache_key, outcome)
        return outcome

    def stats(self) -> Dict[str, int]:
        """Telemetry: memoized pair keys held by this authenticator.

        Verification hit/miss telemetry lives on the shared
        :class:`VerificationCache` (see ``kind_stats()["mac"]``); the
        only per-authenticator state worth reporting is the pairwise-key
        memo size.
        """
        return {"pair_keys": len(self._pair_keys)}

    def require_valid(self, mac: Mac, payload: Any) -> None:
        """Like :meth:`verify` but raises :class:`InvalidMacError`."""
        if not self.verify(mac, payload):
            raise InvalidMacError(f"invalid MAC claimed from {mac.sender}")
