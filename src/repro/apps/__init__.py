"""Threshold applications built on DKG output (§1 motivation):
threshold ElGamal encryption, threshold Schnorr signatures, a
DDH-based distributed PRF / common coin and a randomness beacon — each
behind a request verb of :mod:`repro.service` (DECRYPT, SIGN,
DPRF_EVAL, BEACON_NEXT / BEACON_GET).

This namespace is the one stable surface the serving layer
(:mod:`repro.service`) imports: the application *modules* for their
functional APIs (several share function names like ``verify_partial``
and ``combine``, so they are not flattened) plus the unambiguous
classes, exceptions and uniquely-named helpers.
"""

from repro.apps import beacon, dprf, threshold_elgamal, threshold_schnorr
from repro.apps.beacon import Beacon, BeaconRound
from repro.apps.dprf import EvaluationError, PartialEval, coin_flip
from repro.apps.threshold_elgamal import (
    Ciphertext,
    DecryptionError,
    HybridCiphertext,
    PartialDecryption,
)
from repro.apps.threshold_schnorr import (
    PartialSignature,
    SigningError,
    batch_verify,
)

__all__ = [
    "Beacon",
    "BeaconRound",
    "Ciphertext",
    "DecryptionError",
    "EvaluationError",
    "HybridCiphertext",
    "PartialDecryption",
    "PartialEval",
    "PartialSignature",
    "SigningError",
    "batch_verify",
    "beacon",
    "coin_flip",
    "dprf",
    "threshold_elgamal",
    "threshold_schnorr",
]
