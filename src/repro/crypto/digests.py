"""SHA256 message digests over a canonical encoding.

ResilientDB uses SHA256 to produce collision-resistant digests of client
requests and protocol messages (paper §3).  The protocols in this library
sign and compare digests rather than whole payloads, exactly as the real
system does.

Payloads are arbitrary trees of Python primitives (ints, strings, bytes,
bools, ``None``, tuples/lists, dicts with string keys).  They are encoded
canonically so that two structurally equal payloads always hash to the
same digest, regardless of dict insertion order.

Hot-path design
---------------
A signature or MAC authenticates ``(signer, digest_of(payload))``, not
the payload's bytes (:mod:`.signatures`, :mod:`.macs`), so what a
message needs on the hot path is its 32-byte digest, never its
encoding.  Two mechanisms keep that cheap:

* The encoder is **iterative** (an explicit work stack instead of
  recursion), so arbitrarily deep payloads — far beyond Python's
  recursion limit — encode without blowing the stack.
* Frozen message dataclasses mix in :class:`CachedEncodable`: the first
  time such an object's digest is asked for, its bytes are derived,
  hashed and dropped, and only the 32-byte digest is memoized on the
  instance.  Because the simulator passes message *objects* between
  replicas (no serialization), one digest serves every replica that
  signs, verifies or compares the message, while a reconstructed
  (hence new) object can never reuse a stale memo.  Nothing keeps
  bytes: an enclosing encode re-walks the messages it embeds (a
  certificate's request and commits, when an audit digests it); no
  fault-free run of any protocol does that.
"""

from __future__ import annotations

import hashlib
from typing import Any

from ..errors import CryptoError

DIGEST_SIZE = 32


class EncodingCacheStats:
    """Process-wide counters for :class:`CachedEncodable` (telemetry only
    — reading or resetting them never changes what is encoded).

    ``digest_hits``/``digest_misses`` count
    :meth:`CachedEncodable.payload_digest` calls served from / missing
    the memo.  ``encode_misses`` counts top-level derivations of an
    object's bytes: one per digest miss and one per
    :meth:`CachedEncodable.encoded` call.  ``splice_misses`` counts
    cacheable objects re-walked while encoding an enclosing value.  No
    bytes are memoized, so no encode is ever a hit.
    """

    __slots__ = ("encode_misses", "digest_hits", "digest_misses",
                 "splice_misses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.encode_misses = 0
        self.digest_hits = 0
        self.digest_misses = 0
        self.splice_misses = 0

    def snapshot(self) -> dict:
        """Current counter values as a plain dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    def delta_since(self, baseline: dict) -> dict:
        """Counter increments since a :meth:`snapshot` was taken."""
        return {name: getattr(self, name) - baseline.get(name, 0)
                for name in self.__slots__}


#: The process-wide counters.  Module-level (not per-deployment) because
#: the memos themselves live on message instances that may flow through
#: several deployments; per-run accounting snapshots and diffs this.
ENCODING_STATS = EncodingCacheStats()


def encoding_cache_stats() -> EncodingCacheStats:
    """The process-wide :class:`EncodingCacheStats` instance."""
    return ENCODING_STATS


class CachedEncodable:
    """Mixin for immutable ``payload()``-bearing message objects.

    Instances memoize the SHA256 digest of their canonical encoding the
    first time it is requested (:meth:`payload_digest`); the bytes
    themselves are derived when asked and never kept.  Only mix this
    into *immutable* objects (frozen dataclasses): the memo is keyed by
    object identity, so a mutated payload would silently keep its old
    digest.  ``dataclasses.replace`` and any other reconstruction
    produce a fresh instance with an empty memo.

    The memo attributes are declared as ``__slots__`` so that
    subclasses which declare their own ``__slots__`` (the hottest
    message classes) still memoize: slot storage works whether or not
    the subclass keeps a ``__dict__``.  All memo reads go through
    attribute access (never ``__dict__``), because a slot descriptor
    shadows the instance dict.
    """

    __slots__ = ("_payload_digest_cache", "_size_cache", "_digest_cache")

    # Bare annotations for the slot attributes (no assignments — a
    # class-body value would conflict with __slots__): they give type
    # checkers the memo types without creating dataclass fields in the
    # frozen subclasses.
    _payload_digest_cache: bytes
    _size_cache: int
    _digest_cache: bytes

    def payload(self) -> tuple:
        """The canonical primitive tree this object encodes.

        Subclasses (the message dataclasses) implement this; the mixin
        only consumes it.
        """
        raise NotImplementedError

    def encoded(self) -> bytes:
        """Canonical byte encoding of ``payload()``, derived on every
        call (nothing keeps it)."""
        ENCODING_STATS.encode_misses += 1
        return encode_canonical(self.payload())

    def payload_digest(self) -> bytes:
        """SHA256 digest of the canonical encoding, computed once.

        Distinct from the protocol-level ``digest()`` some messages
        expose (e.g. a request's digest covers only its transaction
        batch); this one covers the full ``payload()``.
        """
        try:
            cached = self._payload_digest_cache
        except AttributeError:
            ENCODING_STATS.digest_misses += 1
            ENCODING_STATS.encode_misses += 1
            cached = digest_of(self.payload())
            object.__setattr__(self, "_payload_digest_cache", cached)
        else:
            ENCODING_STATS.digest_hits += 1
        return cached

    # ------------------------------------------------------------------
    # Pickling and copying
    # ------------------------------------------------------------------
    # Frozen dataclasses that declare ``__slots__`` cannot use pickle's
    # default slot restoration: it goes through ``setattr``, which the
    # frozen ``__setattr__`` rejects — and ``copy.copy`` takes the same
    # path.  Restore state via ``object.__setattr__`` explicitly.  The
    # memos travel with the message: they are pure functions of the
    # frozen content, so a copy never re-derives them.

    def __getstate__(self) -> dict:
        state = {}
        for klass in type(self).__mro__:
            slots = getattr(klass, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for slot in slots:
                try:
                    state[slot] = getattr(self, slot)
                except AttributeError:
                    pass
        instance_dict = getattr(self, "__dict__", None)
        if instance_dict:
            state.update(instance_dict)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


class _Emit:
    """Stack frame holding literal bytes to append (closing markers)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


_SEQ_CLOSE = _Emit(b";")


def _encode(value: Any, out: list[bytes]) -> None:
    """Append a canonical, unambiguous encoding of ``value`` to ``out``.

    Iterative: an explicit stack replaces recursion so nesting depth is
    bounded by memory, not the interpreter's recursion limit (deep
    payloads — ≥10k levels — are exercised by the test suite).

    The dispatch checks exact classes first (the overwhelmingly common
    case on the hot path) and falls back to ``isinstance`` for
    subclasses, preserving the historical dispatch order — the output is
    byte-for-byte identical to the original recursive encoder.
    """
    stack: list[Any] = [value]
    push = stack.append
    pop = stack.pop
    emit = out.append
    while stack:
        v = pop()
        cls = v.__class__
        if cls is str:
            body = v.encode()
            emit(b"s%d:%b" % (len(body), body))
        elif cls is tuple or cls is list:
            emit(b"l%d:" % len(v))
            push(_SEQ_CLOSE)
            for item in reversed(v):
                push(item)
        elif cls is int:
            body = b"%d" % v
            emit(b"i%d:%b" % (len(body), body))
        elif cls is bytes:
            emit(b"b%d:%b" % (len(v), v))
        elif cls is _Emit:
            emit(v.data)
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
            try:
                keys = sorted(v)
            except TypeError as exc:
                raise CryptoError(f"dict keys must be sortable: {exc}") from exc
            push(_SEQ_CLOSE)
            for key in reversed(keys):
                push(v[key])
                push(key)
        elif isinstance(v, CachedEncodable):
            ENCODING_STATS.splice_misses += 1
            push(v.payload())
        elif hasattr(v, "canonical_bytes"):
            # Derives its own bytes, keeps none (``ledger.block.Transaction``,
            # ``MintedBatch``); ahead of the fallbacks, whose six misses
            # each cost pbft 6 % wall.
            emit(v.canonical_bytes())
        # Subclass fallbacks, in the historical dispatch order.
        elif isinstance(v, int):
            body = b"%d" % v
            emit(b"i%d:%b" % (len(body), body))
        elif isinstance(v, float):
            body = repr(v).encode()
            emit(b"f%d:%b" % (len(body), body))
        elif isinstance(v, str):
            body = v.encode()
            emit(b"s%d:%b" % (len(body), body))
        elif isinstance(v, bytes):
            emit(b"b%d:%b" % (len(v), v))
        elif isinstance(v, (tuple, list)):
            emit(b"l%d:" % len(v))
            push(_SEQ_CLOSE)
            for item in reversed(v):
                push(item)
        elif isinstance(v, dict):
            emit(b"d%d:" % len(v))
            try:
                keys = sorted(v)
            except TypeError as exc:
                raise CryptoError(f"dict keys must be sortable: {exc}") from exc
            push(_SEQ_CLOSE)
            for key in reversed(keys):
                push(v[key])
                push(key)
        elif hasattr(v, "payload"):
            # Protocol messages expose ``payload()`` returning primitives.
            push(v.payload())
        else:
            raise CryptoError(
                f"cannot canonically encode value of type {type(v).__name__}"
            )


def encode_canonical(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``.

    The encoding is injective on the supported value space: distinct
    payloads never encode to the same bytes (lengths are explicit, types
    are tagged), so ``digest`` collisions reduce to SHA256 collisions.
    """
    if isinstance(value, CachedEncodable):
        return value.encoded()
    if value.__class__ is tuple:
        flat = _encode_flat_tuple(value)
        if flat is not None:
            return flat
    out: list[bytes] = []
    _encode(value, out)
    return b"".join(out)


def digest(data: bytes) -> bytes:
    """SHA256 digest of raw bytes."""
    return hashlib.sha256(data).digest()


def _encode_flat_tuple(value: tuple) -> "bytes | None":
    """Canonical encoding of a tuple of scalar primitives, or ``None``.

    Decision chains, history digests, and block hashes all digest small
    flat tuples of ints/bytes/strings at very high rates; emitting their
    encoding in one pass skips the generic work-stack machinery.  The
    bytes produced are identical to :func:`_encode`'s output.  Any
    element outside the scalar set (nesting, floats, subclasses) returns
    ``None`` and the caller falls back to the full encoder.
    """
    parts = [b"l%d:" % len(value)]
    emit = parts.append
    for v in value:
        cls = v.__class__
        if cls is bytes:
            emit(b"b%d:%b" % (len(v), v))
        elif cls is int:
            body = b"%d" % v
            emit(b"i%d:%b" % (len(body), body))
        elif cls is str:
            body = v.encode()
            emit(b"s%d:%b" % (len(body), body))
        elif v is None:
            emit(b"N")
        elif v is True:
            emit(b"T")
        elif v is False:
            emit(b"F")
        else:
            return None
    emit(b";")
    return b"".join(parts)


def chain_digest(prev: bytes, seq: int, link: bytes) -> bytes:
    """SHA256 of the canonical encoding of ``(prev, seq, link)``.

    Specialized for the hash-chain triples every decided round folds
    into a running digest (PBFT decision chains, Zyzzyva histories):
    byte-identical to ``digest_of((prev, seq, link))`` with the tuple
    build, dispatch loop, and join skipped.  ``prev``/``link`` must be
    exactly ``bytes`` and ``seq`` exactly ``int``.
    """
    body = b"%d" % seq
    return hashlib.sha256(
        b"l3:b%d:%bi%d:%bb%d:%b;" % (len(prev), prev, len(body), body,
                                     len(link), link)).digest()


def digest_of(value: Any) -> bytes:
    """SHA256 digest of the canonical encoding of ``value``.

    >>> digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})
    True
    >>> digest_of((1, 2)) == digest_of((1, "2"))
    False
    """
    if isinstance(value, CachedEncodable):
        return value.payload_digest()
    if value.__class__ is tuple:
        flat = _encode_flat_tuple(value)
        if flat is not None:
            return hashlib.sha256(flat).digest()
    out: list[bytes] = []
    _encode(value, out)
    return hashlib.sha256(b"".join(out)).digest()
