"""Cryptographic substrate used by the ResilientDB reproduction.

The real ResilientDB fabric uses ED25519 signatures, AES-CMAC message
authentication codes, and SHA256 digests (paper §3, "Cryptography").
This package provides functionally equivalent primitives:

* :mod:`repro.crypto.digests` — SHA256 digests over canonical encodings.
* :mod:`repro.crypto.signatures` — digital signatures backed by
  HMAC-SHA256 with per-node secret keys held in a :class:`KeyRegistry`
  that stands in for a PKI.  Signatures are unforgeable without the
  signer's key, which is all the protocols rely on.
* :mod:`repro.crypto.macs` — pairwise message authentication codes.
* :mod:`repro.crypto.threshold` — (k, n) threshold signatures used by the
  optional constant-size commit-certificate representation (paper §2.2).
* :mod:`repro.crypto.costs` — the simulated CPU cost of each operation,
  which the replicas charge against their CPU model so that crypto cost
  shows up in throughput exactly as it does in the paper's evaluation.
"""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(globals(), {
    ".costs": ("CryptoCostModel",),
    ".digests": ("digest", "digest_of"),
    ".macs": ("MacAuthenticator",),
    ".signatures": ("KeyRegistry", "Signature", "Signer"),
    ".threshold": ("ThresholdScheme", "ThresholdSignature"),
})
