"""Runtime message-aliasing sanitizer (``REPRO_SANITIZE=1``).

The simulator passes message *objects* between replicas — there is no
serialization boundary.  That is what makes paper-scale runs fast (one
canonical encoding serves every receiver), but it also means a buggy
protocol change can mutate a message **after** posting it, and every
other receiver of the aliased object silently observes the mutation.
PBFT-family safety arguments assume all receivers of a broadcast process
identical messages (Castro & Liskov §4), so this failure mode corrupts
runs without any exception — typically surfacing weeks later as a
drifted ``deployment_digest``.  No static rule can prove its absence.

The sanitizer closes the gap at runtime: :class:`~repro.net.network.
Network` fingerprints each message when the delivery event is posted and
re-checks the fingerprint when the event fires, raising
:class:`~repro.errors.MessageAliasingError` (naming the message type and
sender) on any divergence.

Why not reuse the memoized digest?  :class:`~repro.crypto.digests.
CachedEncodable` memoizes an instance's payload digest the first time
it is computed — a message mutated *after* that point keeps serving its
stale digest, which is precisely the corruption this tool hunts.
:func:`live_fingerprint` therefore re-walks the ``payload()`` tree on
every call and never reads (or writes) any ``_payload_digest_cache``.

Enabled via ``Network(..., sanitize=True)`` or the ``REPRO_SANITIZE=1``
environment variable.  Off by default: the uncached walk re-encodes
every request batch at every hop, which is exactly the work the digest
memo exists to avoid — expect sanitized runs to be several times
slower.  Scheduling is untouched (same events, same sequence numbers),
so ``deployment_digest`` values are byte-identical with the sanitizer on
or off.
"""

from __future__ import annotations

import hashlib
from typing import Any

from ..errors import MessageAliasingError
# The switch lives with ``Network``, which imports this module only
# when the sanitizer is armed.
from .network import sanitize_enabled  # noqa: F401  (re-exported)


def live_fingerprint(message: Any) -> bytes:
    """SHA256 over the message's *current* payload tree, uncached.

    Mirrors the canonical encoder's tagging (see
    :mod:`repro.crypto.digests`) but always expands ``payload()`` and
    hashes the result itself, so a post-send mutation changes the
    fingerprint even after the instance memoized its digest.  Objects without a ``payload()`` (foreign test
    doubles) fall back to a stable ``repr`` tag rather than failing —
    the sanitizer must never reject traffic the network itself accepts.
    """
    out: list = [type(message).__name__.encode()]
    emit = out.append
    stack: list = [message]
    push = stack.append
    pop = stack.pop
    while stack:
        v = pop()
        cls = v.__class__
        if cls is str:
            body = v.encode()
            emit(b"s%d:%b" % (len(body), body))
        elif cls is int:
            body = b"%d" % v
            emit(b"i%d:%b" % (len(body), body))
        elif cls is bytes:
            emit(b"b%d:%b" % (len(v), v))
        elif cls is tuple or cls is list:
            emit(b"l%d:" % len(v))
            for item in reversed(v):
                push(item)
        elif v is None:
            emit(b"N")
        elif v is True:
            emit(b"T")
        elif v is False:
            emit(b"F")
        elif cls is float:
            body = repr(v).encode()
            emit(b"f%d:%b" % (len(body), body))
        elif cls is dict:
            emit(b"d%d:" % len(v))
            for key in sorted(v, reverse=True):
                push(v[key])
                push(key)
        elif hasattr(v, "payload"):
            # Always re-walk — never trust a memoized digest.
            push(v.payload())
        elif isinstance(v, (int, float)):
            body = repr(v).encode()
            emit(b"n%d:%b" % (len(body), body))
        elif isinstance(v, str):
            body = v.encode()
            emit(b"s%d:%b" % (len(body), body))
        elif isinstance(v, bytes):
            emit(b"b%d:%b" % (len(v), v))
        elif isinstance(v, (tuple, list)):
            emit(b"l%d:" % len(v))
            for item in reversed(v):
                push(item)
        else:
            body = repr(v).encode()
            emit(b"r%d:%b" % (len(body), body))
    return hashlib.sha256(b"".join(out)).digest()


class MessageSanitizer:
    """Fingerprint-at-send, verify-at-delivery checker.

    Stateless apart from counters: the send-time fingerprint rides
    inside the delivery event's arguments, so aliasing detection needs
    no identity map and holds no extra references to messages.
    """

    __slots__ = ("checks", "violations")

    def __init__(self) -> None:
        self.checks = 0
        self.violations = 0

    def fingerprint(self, message: Any) -> bytes:
        """Snapshot ``message``'s live payload fingerprint (send time)."""
        return live_fingerprint(message)

    def check(self, message: Any, expected: bytes, src: Any) -> None:
        """Assert ``message`` still matches its send-time fingerprint.

        Called when the delivery event fires.  Raises
        :class:`MessageAliasingError` naming the message type and the
        sending node, so the offending handler is one grep away.
        """
        self.checks += 1
        if live_fingerprint(message) != expected:
            self.violations += 1
            raise MessageAliasingError(
                f"{type(message).__name__} sent by {src} was mutated "
                f"between send and delivery; messages are shared by "
                f"reference and must be treated as immutable once "
                f"posted (construct a new object instead)"
            )
