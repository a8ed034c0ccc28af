"""The threshold application driven by DKG output (§1 motivation):
threshold Schnorr signatures, behind the SIGN request verb of
:mod:`repro.service`.

This namespace is the one stable surface the serving layer
(:mod:`repro.service`) imports: the application module for its
functional API plus its classes, exception and batch check.
"""

from repro.apps import threshold_schnorr
from repro.apps.threshold_schnorr import (
    PartialSignature,
    SigningError,
    batch_verify,
)

__all__ = [
    "PartialSignature",
    "SigningError",
    "batch_verify",
    "threshold_schnorr",
]
