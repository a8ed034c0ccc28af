"""Cryptographic substrate: discrete-log groups, polynomials, commitments,
signatures and zero-knowledge proofs.

Everything in this subpackage is pure (no simulator dependencies) and
deterministic given a seeded ``random.Random``.  Group arithmetic is
pluggable: protocol code speaks the :class:`~repro.crypto.backend.AbstractGroup`
interface, realized by the modp :class:`~repro.crypto.groups.SchnorrGroup`
and the secp256k1 :class:`~repro.crypto.ec.EcGroup` backends.
"""

from repro.crypto.backend import (
    AbstractGroup,
    BatchedClaimVerifier,
    element_hex,
)
from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.dleq import DleqProof
from repro.crypto.feldman import FeldmanCommitment, FeldmanVector, share_verifier
from repro.crypto.multiexp import (
    FixedBaseTable,
    SharedBases,
    fixed_base_table,
    multiexp,
)
from repro.crypto.ec import EcGroup, EcPoint, secp256k1_group
from repro.crypto.groups import (
    BACKENDS,
    RFC5114_1024_160,
    RFC5114_2048_256,
    SchnorrGroup,
    group_by_name,
    large_group,
    medium_group,
    small_group,
    toy_group,
)
from repro.crypto.parallel import CryptoExecutor, acceleration_status
from repro.crypto.polynomials import (
    Polynomial,
    interpolate_at,
    interpolate_polynomial,
    lagrange_coefficients,
)
from repro.crypto.schnorr import Signature, SigningKey
from repro.crypto.shares import ReconstructionError, Share, reconstruct_secret

__all__ = [
    "AbstractGroup",
    "BACKENDS",
    "BatchedClaimVerifier",
    "EcGroup",
    "EcPoint",
    "element_hex",
    "secp256k1_group",
    "BivariatePolynomial",
    "CryptoExecutor",
    "DleqProof",
    "acceleration_status",
    "FeldmanCommitment",
    "FeldmanVector",
    "FixedBaseTable",
    "SharedBases",
    "fixed_base_table",
    "multiexp",
    "share_verifier",
    "Polynomial",
    "ReconstructionError",
    "RFC5114_1024_160",
    "RFC5114_2048_256",
    "SchnorrGroup",
    "Share",
    "Signature",
    "SigningKey",
    "group_by_name",
    "interpolate_at",
    "interpolate_polynomial",
    "lagrange_coefficients",
    "large_group",
    "medium_group",
    "reconstruct_secret",
    "small_group",
    "toy_group",
]
