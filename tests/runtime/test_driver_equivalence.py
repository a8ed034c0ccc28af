"""Cross-driver equivalence: sim and asyncio runs of one seeded DKG.

Protocols are sans-I/O machines, so the execution backend must not be
able to change a run's *result*: the same seeded DKG, configured so
its output is delivery-order independent (``q_size = n`` — every node
waits for all n sharings, making Q the full dealer set), must produce
identical Output effects — and identical transcript hashes over their
canonical wire encoding — under the discrete-event simulator and the
real-socket asyncio driver, on both group backends.
"""

from __future__ import annotations

import pytest

from repro.crypto.groups import group_by_name, toy_group
from repro.net.cluster import run_local_cluster
from repro.runtime.trace import transcript_hash
from repro.sim.clock import TimeoutPolicy
from repro.sim.network import ConstantDelay
from repro.dkg import DkgConfig, run_dkg

SEED = 5


def _config(group) -> DkgConfig:
    return DkgConfig(
        n=4,
        t=1,
        group=group,
        # Q = the full dealer set: the leader proposes only once every
        # sharing completed, so the decided set (and with it every
        # output field) is independent of message arrival order.
        q_size=4,
        # No view changes: socket jitter must not race a timeout.
        timeout=TimeoutPolicy(initial=1_000_000.0),
    )


@pytest.mark.parametrize(
    "group",
    [toy_group(), group_by_name("secp256k1")],
    ids=["modp", "secp256k1"],
)
def test_same_seeded_dkg_same_outputs_on_both_drivers(group) -> None:
    config = _config(group)

    sim_result = run_dkg(config, seed=SEED, delay_model=ConstantDelay(1.0))
    assert sim_result.succeeded
    sim_outputs = {
        i: node.completed for i, node in sim_result.nodes.items()
    }

    net_result = run_local_cluster(
        config, seed=SEED, time_scale=0.005, timeout=120.0
    )
    assert net_result.succeeded, net_result.errors

    # Identical Output effects, node by node.
    assert set(net_result.completions) == set(sim_outputs)
    for i, completed in sim_outputs.items():
        assert net_result.completions[i] == completed, f"node {i} diverged"

    # Identical canonical transcripts.
    sim_hash = transcript_hash(
        ((i, out) for i, out in sim_outputs.items()), group=group
    )
    net_hash = transcript_hash(
        ((i, out) for i, out in net_result.completions.items()), group=group
    )
    assert sim_hash == net_hash

    # And the digest is instance-sensitive: a different protocol
    # instance (tau seeds the dealing randomness) differs.
    other = run_dkg(config, seed=SEED, tau=1, delay_model=ConstantDelay(1.0))
    other_hash = transcript_hash(
        ((i, node.completed) for i, node in other.nodes.items()), group=group
    )
    assert other_hash != sim_hash

