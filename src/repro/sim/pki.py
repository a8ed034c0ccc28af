"""Simulated PKI (§2.3): certificate registry + authenticated channels.

The paper assumes a CA-rooted PKI: every node has a unique index and a
certificate binding it to a signature public key; all protocol traffic
runs over TLS.  In the simulator:

* TLS confidentiality/authenticity of point-to-point links is modelled
  by construction — the network only delivers a message to its intended
  recipient and attributes it to its true sender, and Byzantine nodes
  cannot forge the ``sender`` field;
* message *signatures* (needed because signed echo/ready/lead-ch
  messages are forwarded to third parties, where channel security does
  not help) are real Schnorr signatures verified against this registry;
* proactive reboot (§5.1) rotates a node's key: the old certificate is
  revoked and a new key registered, exactly as the paper prescribes for
  recovering nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.groups import SchnorrGroup
from repro.crypto.schnorr import Signature, SigningKey, verify


@dataclass
class Certificate:
    """Binding of a node index to its current signature public key."""

    node: int
    public_key: int
    serial: int
    revoked: bool = False


@dataclass
class CertificateAuthority:
    """The external CA: issues, looks up and revokes node certificates."""

    group: SchnorrGroup
    _certs: dict[int, Certificate] = field(default_factory=dict)
    _serial: int = 0
    _revoked: list[Certificate] = field(default_factory=list)

    def issue(self, node: int, public_key: int) -> Certificate:
        """Issue a certificate for ``node``, revoking any previous one."""
        if node in self._certs:
            self.revoke(node)
        self._serial += 1
        cert = Certificate(node, public_key, self._serial)
        self._certs[node] = cert
        return cert

    def revoke(self, node: int) -> None:
        cert = self._certs.pop(node, None)
        if cert is not None:
            cert.revoked = True
            self._revoked.append(cert)

    def public_key_of(self, node: int) -> int | None:
        cert = self._certs.get(node)
        return cert.public_key if cert else None

    def verify(self, node: int, message: bytes, sig: Signature) -> bool:
        """Verify a signature against the node's *current* certificate."""
        public_key = self.public_key_of(node)
        if public_key is None:
            return False
        return verify(self.group, public_key, message, sig)

    @property
    def revocation_list(self) -> list[Certificate]:
        return list(self._revoked)


@dataclass
class KeyStore:
    """A node's long-term signing key plus a handle on the CA."""

    node: int
    signing_key: SigningKey
    ca: CertificateAuthority

    @classmethod
    def enroll(
        cls,
        node: int,
        ca: CertificateAuthority,
        rng: random.Random,
    ) -> "KeyStore":
        key = SigningKey.generate(ca.group, rng)
        ca.issue(node, key.public_key)
        return cls(node, key, ca)

    def sign(self, message: bytes, rng: random.Random) -> Signature:
        return self.signing_key.sign(message, rng)

    def rotate(self, rng: random.Random) -> None:
        """Proactive reboot key rotation: revoke + re-issue (§5.1)."""
        self.signing_key = SigningKey.generate(self.ca.group, rng)
        self.ca.issue(self.node, self.signing_key.public_key)


class AcceptedSignatures:
    """One node's signing key and CA behind the same ``sign`` / ``verify``
    calls, remembering which signatures this node has already accepted.

    A signed ready is checked when the node builds an ``R_d`` certificate
    from it, and again inside every certificate that quotes it, its own
    proposal's included; the later checks re-derive a verdict the node
    already holds.  Successful ``(public key, message, signature)``
    triples are kept and only a miss reaches
    :meth:`CertificateAuthority.verify`.  The key is the *public key*
    the CA currently certifies for the signer, not the node id, so a
    rotated or revoked certificate never resurrects a verdict; failures
    are not kept.  Owned by one protocol node and dropped with it —
    never shared: n simulated nodes must do n hosts' verifications.
    """

    def __init__(self, keystore: KeyStore, ca: CertificateAuthority):
        self.keystore = keystore
        self.ca = ca
        self._accepted: set[tuple] = set()

    def sign(self, message: bytes, rng: random.Random) -> Signature:
        """Sign with the node's key; its own signature needs no check
        when a copy is delivered back to it."""
        sig = self.keystore.sign(message, rng)
        self._accepted.add((self.keystore.signing_key.public_key, message, sig))
        return sig

    def verify(self, node: int, message: bytes, sig: Signature) -> bool:
        triple = (self.ca.public_key_of(node), message, sig)
        if triple in self._accepted:
            return True
        if not self.ca.verify(node, message, sig):
            return False
        self._accepted.add(triple)
        return True
