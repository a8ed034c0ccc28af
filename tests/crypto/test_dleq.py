"""Tests for Chaum-Pedersen DLEQ proofs (threshold application layer).

Parameterized over both group backends via the ``bgroup`` fixture.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dleq

# Valid in both scalar fields (toy q is 64-bit, secp256k1 n is 256-bit).
secrets = st.integers(1, 2**63)


class TestDleq:
    @given(secrets, st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_roundtrip(self, bgroup, secret: int, seed: int) -> None:
        rng = random.Random(seed)
        g2 = bgroup.hash_to_element(b"base", str(seed).encode())
        h1, h2, proof = dleq.prove(bgroup, secret, bgroup.g, g2, rng)
        assert h1 == bgroup.commit(secret)
        assert h2 == bgroup.power(g2, secret)
        assert dleq.verify(bgroup, bgroup.g, h1, g2, h2, proof)

    @given(secrets, st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_rejects_mismatched_exponents(self, bgroup, secret: int, seed: int) -> None:
        rng = random.Random(seed)
        g2 = bgroup.hash_to_element(b"base2")
        h1, _, proof = dleq.prove(bgroup, secret, bgroup.g, g2, rng)
        wrong_h2 = bgroup.power(g2, (secret + 1) % bgroup.q)
        assert not dleq.verify(bgroup, bgroup.g, h1, g2, wrong_h2, proof)

    def test_rejects_tampered_proof(self, bgroup) -> None:
        rng = random.Random(7)
        q = bgroup.q
        g2 = bgroup.hash_to_element(b"base3")
        h1, h2, proof = dleq.prove(bgroup, 42, bgroup.g, g2, rng)
        bad = dleq.DleqProof((proof.challenge + 1) % q, proof.response)
        assert not dleq.verify(bgroup, bgroup.g, h1, g2, h2, bad)
        bad2 = dleq.DleqProof(proof.challenge, (proof.response + 1) % q)
        assert not dleq.verify(bgroup, bgroup.g, h1, g2, h2, bad2)

    def test_rejects_non_group_elements(self, bgroup) -> None:
        rng = random.Random(8)
        g2 = bgroup.hash_to_element(b"base4")
        h1, h2, proof = dleq.prove(bgroup, 9, bgroup.g, g2, rng)
        # 0 and -1 are elements of neither backend (out of range for
        # modp residues, not points at all for the curve).
        assert not dleq.verify(bgroup, bgroup.g, 0, g2, h2, proof)
        assert not dleq.verify(bgroup, bgroup.g, h1, g2, -1, proof)
