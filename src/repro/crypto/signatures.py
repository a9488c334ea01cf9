"""Digital signatures with a PKI-style key registry.

The paper signs client requests and commit messages with ED25519
(paper §3) so that forwarded messages cannot be tampered with.  This
module provides the same guarantees for the simulation:

* every node owns a private signing key (a random 32-byte secret),
* anyone holding the :class:`KeyRegistry` (the "PKI") can verify a
  signature against the claimed signer,
* nobody can produce a signature for another node without that node's
  :class:`Signer` handle — Byzantine behaviours in tests can only sign as
  themselves, mirroring the paper's authenticated-communication
  assumption (§2.1).

Signatures are HMAC-SHA256 tags computed with the signer's secret.  The
registry verifies by recomputing the tag; this models signature
verification with the signer's public key.  HMAC is used instead of real
ED25519 to keep the simulator fast while preserving unforgeability
against everyone who does not hold the secret.

Verification memoization
------------------------
A signed message that is forwarded — a client request, a commit
certificate — is verified by every replica that receives it, so a naive
host pays ``n`` HMAC recomputations for one logical check.  The
:class:`VerificationCache` memoizes verification *outcomes* keyed by
``(signer, payload digest, tag)``: the outcome is a deterministic
function of that key, so a deployment-wide shared cache collapses the
host cost to one HMAC per distinct (message, signature) pair.  The
per-replica *simulated* verification delay is charged by the replica
layer independently, so memoization cannot change simulated results.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import CryptoError, InvalidSignatureError
from ..types import NodeId
from .digests import CachedEncodable, encode_canonical

SIGNATURE_SIZE = 64  # bytes on the wire, matching ED25519.


class VerificationCache:
    """Deployment-wide memo of signature/MAC verification outcomes.

    Keys are tuples that uniquely determine the verification result
    (e.g. ``("sig", signer, payload_digest, tag)``); values are the
    boolean outcome.  Both positive and negative outcomes are cached —
    a forged tag stays forged.  The cache is bounded with FIFO eviction
    so adversarial workloads cannot grow it without limit.
    """

    __slots__ = ("_entries", "_max_entries", "hits", "misses",
                 "_kind_hits", "_kind_misses")

    def __init__(self, max_entries: int = 1 << 20) -> None:
        self._entries: Dict[Tuple, bool] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # Per-kind split: kind is the key's leading string tag ("sig",
        # "mac", ...) or "other" for untagged keys.  Telemetry only.
        self._kind_hits: Dict[str, int] = {}
        self._kind_misses: Dict[str, int] = {}

    def get(self, key: Tuple) -> Optional[bool]:
        """Cached outcome for ``key``, or ``None`` on a miss."""
        kind = key[0] if key else None
        if kind.__class__ is not str:
            kind = "other"
        outcome = self._entries.get(key)
        if outcome is None:
            self.misses += 1
            self._kind_misses[kind] = self._kind_misses.get(kind, 0) + 1
            return None
        self.hits += 1
        self._kind_hits[kind] = self._kind_hits.get(kind, 0) + 1
        return outcome is True

    def put(self, key: Tuple, outcome: bool) -> None:
        """Record the outcome of a fresh verification."""
        entries = self._entries
        if len(entries) >= self._max_entries:
            entries.pop(next(iter(entries)))
        entries[key] = outcome

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters, for benchmarks and tests."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}

    def kind_stats(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"hits": n, "misses": n}}`` split by key tag."""
        kinds = set(self._kind_hits) | set(self._kind_misses)
        return {
            kind: {
                "hits": self._kind_hits.get(kind, 0),
                "misses": self._kind_misses.get(kind, 0),
            }
            for kind in sorted(kinds)
        }

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class Signature:
    """A digital signature: the claimed signer plus the tag bytes."""

    signer: NodeId
    tag: bytes

    def size_bytes(self) -> int:
        """Wire size of the signature (ED25519-sized)."""
        return SIGNATURE_SIZE


class Signer:
    """A node's private signing handle.

    Instances are created by :meth:`KeyRegistry.register` and handed to
    exactly one node.  Holding a ``Signer`` is holding the private key.
    """

    __slots__ = ("_node", "_secret")

    def __init__(self, node: NodeId, secret: bytes) -> None:
        self._node = node
        self._secret = secret

    @property
    def node(self) -> NodeId:
        """The identity this signer signs as."""
        return self._node

    def sign(self, payload: Any) -> Signature:
        """Sign ``payload`` (any canonically encodable value).

        When ``payload`` is a :class:`~.digests.CachedEncodable` message,
        its canonical bytes are spliced from the instance cache, so
        signing costs one HMAC rather than a payload-tree walk.
        """
        message = encode_canonical((str(self._node), payload))
        tag = hmac.new(self._secret, message, hashlib.sha256).digest()
        return Signature(self._node, tag)


class KeyRegistry:
    """The public-key infrastructure of a deployment.

    The registry creates key pairs (:meth:`register`) and verifies
    signatures (:meth:`verify`).  In a real deployment verification only
    needs public keys; here the registry holds the secrets but never
    exposes them, so protocol code cannot forge signatures by accident
    and Byzantine test behaviours cannot forge them at all.
    """

    def __init__(
        self,
        seed: bytes = b"resilientdb",
        cache: Optional[VerificationCache] = None,
    ) -> None:
        self._seed = seed
        self._secrets: Dict[NodeId, bytes] = {}
        # One registry serves a whole deployment, so its cache is the
        # deployment-wide verification memo.  ``cache`` lets a caller
        # share one cache across several authenticators.
        self._cache = VerificationCache() if cache is None else cache

    @property
    def verification_cache(self) -> VerificationCache:
        """The shared verification memo (for stats and benchmarks)."""
        return self._cache

    def register(self, node: NodeId) -> Signer:
        """Create (or re-derive) the signing handle for ``node``.

        Keys are derived deterministically from the registry seed so that
        deployments built from the same configuration are reproducible.
        """
        if node not in self._secrets:
            material = self._seed + encode_canonical(str(node))
            self._secrets[node] = hashlib.sha256(material).digest()
        return Signer(node, self._secrets[node])

    def is_registered(self, node: NodeId) -> bool:
        """Whether ``node`` has a key pair in this PKI."""
        return node in self._secrets

    def verify(self, payload: Any, signature: Signature) -> bool:
        """Check ``signature`` over ``payload`` against the claimed signer.

        Returns ``False`` (never raises) for unknown signers or bad tags,
        matching the paper's rule that replicas silently discard messages
        with invalid signatures.

        Outcomes for :class:`~.digests.CachedEncodable` payloads are
        memoized in the deployment-wide :class:`VerificationCache`: the
        result is a pure function of ``(signer, payload digest, tag)``,
        so a certificate forwarded to ``n`` replicas costs one HMAC on
        the host.  Simulated verification delay is charged elsewhere and
        is unaffected.
        """
        secret = self._secrets.get(signature.signer)
        if secret is None:
            return False
        key = None
        if isinstance(payload, CachedEncodable):
            key = ("sig", signature.signer, payload.payload_digest(), signature.tag)
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        message = encode_canonical((str(signature.signer), payload))
        expected = hmac.new(secret, message, hashlib.sha256).digest()
        outcome = hmac.compare_digest(expected, signature.tag)
        if key is not None:
            self._cache.put(key, outcome)
        return outcome

    def require_valid(self, payload: Any, signature: Signature) -> None:
        """Like :meth:`verify` but raises :class:`InvalidSignatureError`."""
        if not self.verify(payload, signature):
            raise InvalidSignatureError(
                f"invalid signature claimed by {signature.signer}"
            )

    def signer_secret_fingerprint(self, node: NodeId) -> bytes:
        """Digest of a node's secret — used only by tests for determinism
        checks; the secret itself is never exposed."""
        secret = self._secrets.get(node)
        if secret is None:
            raise CryptoError(f"no key registered for {node}")
        return hashlib.sha256(secret).digest()
