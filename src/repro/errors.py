"""Exception hierarchy for the ResilientDB/GeoBFT reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from protocol
violations detected at runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An experiment or deployment was configured inconsistently.

    Examples: a cluster size that does not satisfy ``n > 3f``, an unknown
    region name, or a batch size of zero.
    """


class CryptoError(ReproError):
    """A cryptographic operation failed (unknown key, bad signature...)."""


class InvalidSignatureError(CryptoError):
    """A digital signature failed verification."""


class InvalidMacError(CryptoError):
    """A message authentication code failed verification."""


class InvalidCertificateError(ReproError):
    """A commit certificate is malformed or fails verification."""


class LedgerError(ReproError):
    """The blockchain ledger was used inconsistently or is corrupt."""


class TamperedLedgerError(LedgerError):
    """Ledger verification detected a tampered or out-of-order block."""


class ProtocolError(ReproError):
    """A replica received a message that violates the protocol.

    Non-faulty replicas discard such messages; this error is raised only
    by strict validation helpers so tests can assert that malformed input
    is rejected.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""


class MessageAliasingError(SimulationError):
    """A message object was mutated between send and delivery.

    Raised only under the runtime sanitizer (``REPRO_SANITIZE=1``), which
    fingerprints every message at send time and re-checks it at each
    delivery.  PBFT-family safety arguments assume all receivers of a
    broadcast process *identical* messages; an aliased object mutated
    after ``post()`` silently violates that in ways no static rule can
    prove.
    """


class StoreError(ReproError):
    """A sweep result store's records file holds a corrupt line."""


class WorkloadError(ReproError):
    """A workload generator was configured or used incorrectly."""
