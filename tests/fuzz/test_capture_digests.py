"""Seeded base captures keep their digests.

A schedule digest hashes every captured message payload, so it moves if
any node draws one more or one fewer value from a seeded rng — which is
what checking echo/ready points in the field would do if it skipped the
batch verifier's weight-salt draw.  The renewal and group-modification
bases run in the simulator too, so a fuzz campaign's per-seed plans are
a function of (protocol, n, t, f, seed, backend).  Both backends are
pinned whatever ``REPRO_TEST_BACKEND`` says: the digests are per group.
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


# protocol group seed digest, at the --smoke shape n=4 t=1 f=0
LIFECYCLES = """
renew toy 0 7deee629685ae493962e03d6f3fbb541dc54b6783c6a78a61fb0b77d95b48f6f
renew secp256k1 0 5e93ec8df57328fade63112f77fc9821c8a049e699269a3b36e22c887cb2d482
groupmod toy 0 f139e8229f8edb96a1337d1e4c6984542f59402a9e6222becaff1df6d08d1c54
groupmod secp256k1 0 80dfee56859a56356cd7001e5666bfa2a93e5a87d8a8f544791292f894e8eac3
"""


@pytest.mark.parametrize("row", PINNED.strip().splitlines())
def test_seeded_dkg_capture_digest_is_pinned(row: str) -> None:
    name, n, t, f, seed, digest = row.split()
    group = toy_group() if name == "toy" else group_by_name(name)
    capture = generate_capture(
        "dkg", n=int(n), t=int(t), f=int(f), seed=int(seed), group=group
    )
    assert Schedule.from_capture(capture).digest() == digest


def _group(name: str):
    return toy_group() if name == "toy" else group_by_name(name)


def _digest(protocol: str, group, n: int, t: int, f: int, seed: int) -> str:
    capture = generate_capture(protocol, n=n, t=t, f=f, seed=seed, group=group)
    return Schedule.from_capture(capture).digest()


@pytest.mark.parametrize("row", LIFECYCLES.strip().splitlines())
def test_seeded_lifecycle_capture_digest_is_pinned(row: str) -> None:
    protocol, name, seed, digest = row.split()
    assert _digest(protocol, _group(name), 4, 1, 0, int(seed)) == digest


@pytest.mark.parametrize("protocol", ["renew", "groupmod"])
def test_two_generations_give_one_digest(protocol: str, group) -> None:
    """Nothing of the wall clock or of the process reaches the base."""
    first = _digest(protocol, group, 4, 1, 0, 5)
    assert _digest(protocol, group, 4, 1, 0, 5) == first
