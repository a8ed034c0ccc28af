"""Seeded DKG captures keep their digests.

A schedule digest hashes every captured message payload, so it moves if
any node draws one more or one fewer value from a seeded rng — which is
what checking echo/ready points in the field would do if it skipped the
batch verifier's weight-salt draw.  Both backends are pinned whatever
``REPRO_TEST_BACKEND`` says: the digests are per group.
"""

from __future__ import annotations

import pytest

from repro.crypto.groups import group_by_name, toy_group
from repro.fuzz.schedule import Schedule, generate_capture

# group n t f seed digest
PINNED = """
toy 4 1 0 0 b4db05cfd6a555fbe57f11928e5a254cc12153471616d470839bacdbbbdf2ae0
toy 4 1 0 3 ede0390a33c0aca20ce2636f0c6fe52d355d07005bf21ec9d5429f2465f5d2ab
toy 6 1 1 0 842dbe4bd8541956c26410a4edfb60940231c97d9d19ed7015894c541507a64d
toy 6 1 1 3 7c1c2e1990991a3dcfd8bd8baa8973abc93446af03b5111ce930751c153a4b6c
secp256k1 4 1 0 0 3e2c4991149c2ca29929df0bfd5954a4d82f5988219ae70ff2bfa93834224286
secp256k1 4 1 0 3 6c786278b29688a0751b44ac0f08168730a143f47874f3a8c9c35d71661ce30a
secp256k1 6 1 1 0 c44009bff6cea52ad51e1457e6ad25b0ef795befb16f397f7050bc2c52877ac2
secp256k1 6 1 1 3 c4373ee020b4848cbe66b206f8290c880fed0f1e8774b86f32b6474fe08af9a8
"""


@pytest.mark.parametrize("row", PINNED.strip().splitlines())
def test_seeded_dkg_capture_digest_is_pinned(row: str) -> None:
    name, n, t, f, seed, digest = row.split()
    group = toy_group() if name == "toy" else group_by_name(name)
    capture = generate_capture(
        "dkg", n=int(n), t=int(t), f=int(f), seed=int(seed), group=group
    )
    assert Schedule.from_capture(capture).digest() == digest
