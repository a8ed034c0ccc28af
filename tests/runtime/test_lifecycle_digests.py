"""Simulator lifecycles keep their payload-capture digests.

Each lifecycle below runs under a payload-mode flight recorder and the
resulting capture is hashed with :meth:`Schedule.digest`.  That digest
covers every dispatched event's wire frame — signatures included — so
a PKI enrolment label, a simulation seed, an enrolment order or an
rng draw that moves changes it, even when shares and message counts
stay the same.  Both backends are pinned whatever
``REPRO_TEST_BACKEND`` says: the digests are per group.
"""

from __future__ import annotations

import io
from typing import Callable

import pytest

from repro.crypto.groups import group_by_name, toy_group
from repro.deployment import SimWorld, enroll
from repro.dkg import DkgConfig, run_dkg
from repro.dkg.messages import DkgCompletedOutput
from repro.fuzz.schedule import Schedule
from repro.groupmod import GroupManager, ModProposal, run_node_additions
from repro.obs import trace as obs_trace
from repro.obs.replay import load_capture
from repro.proactive import ProactiveSystem
from repro.vss.config import VssConfig
from repro.vss.node import run_vss

from tests.helpers import dkg_stage

SEED = 3


def _proactive(group) -> None:
    system = ProactiveSystem(DkgConfig(n=6, t=1, f=1, group=group), seed=SEED)
    system.bootstrap()
    system.renew()
    system.renew(
        crash_plan=[(0.5, 4, 40.0)],
        clock_skews={1: 0.0, 2: 0.3, 3: 1.1, 5: 0.7},
    )


def _groupmod(group) -> None:
    manager = GroupManager(DkgConfig(n=5, t=1, group=group), seed=SEED)
    manager.bootstrap()
    manager.agree({1: ModProposal("remove", 4)})
    manager.add_node(6)
    manager.phase_change()
    assert manager.members == (1, 2, 3, 5, 6)


def _additions(group) -> None:
    config = DkgConfig(n=4, t=1, group=group)
    dkg = run_dkg(config, seed=SEED)
    results = run_node_additions(config, dkg.shares, dkg.commitment, [5, 6], seed=SEED)
    assert all(result.share is not None for result in results.values())


def _sessions(group) -> None:
    # Three concurrent DKGs as one stage of one world.
    config = DkgConfig(n=4, t=1, group=group)
    members = config.vss().indices
    pki = enroll(group, members, ("sessions-pki", SEED))
    stage = dkg_stage(pki, {f"s{k}": (config, k) for k in range(3)})
    outputs, _ = SimWorld(group, members, SEED).run_stage(
        stage, DkgCompletedOutput.kind
    )
    assert all(sorted(found) == members for found in outputs.values())


def _vss(group) -> None:
    result = run_vss(VssConfig(n=4, t=1, group=group), seed=SEED, reconstruct=True)
    assert set(result.reconstructions.values()) == {result.secret}


LIFECYCLES: dict[str, Callable] = {
    "proactive": _proactive,
    "groupmod": _groupmod,
    "additions": _additions,
    "sessions": _sessions,
    "vss": _vss,
}

# lifecycle group digest
PINNED = """
proactive toy e87ee7d2cc66c4f6a7ba0ab3ff164bae9d2c095bef683f88fc636c53a2e57513
groupmod toy 5f42fc5ba22e1338c8ac3a3753e8c76d2581c6511e01982ba4751a203fda65c9
additions toy cdb77a0a215c4cfef38a44f5fa2275665a57f793e15cec17eb10e5a05a1aba9e
sessions toy cf9033f7b36f609d2edef606f47c2394e91df60e09f36a6eb339688885082053
vss toy e1c9c48a30e07ebe4d3146790f896365b68b505c4692e9d6e147d9b0d4d07cb8
proactive secp256k1 08a79f4546383334b04326e0bca5a819f5c2b196310c7611251effc176485dfe
groupmod secp256k1 31fdc47b5a60a9dc0db5331bd0a9f1bee067708070826197e2803fe1d8b346a4
additions secp256k1 aecc89b81d1d3348186bc34a27fa4b9eb4db766141140d9f7b1a0896307d2d20
sessions secp256k1 a9a7a41a2de77c7d7da30d16c7535ccfd7856eee79cbd00ac6cec300b2e07a90
vss secp256k1 4c07d691d4f16906bf48808736c3c4c1e073c1a9a7e7d615db04eadac6ee0411
"""


def _capture_digest(name: str, group) -> str:
    buffer = io.StringIO()
    sink = obs_trace.JsonlTraceSink(
        buffer, payloads=True, group=group, meta={"lifecycle": name}, mode="w"
    )
    previous = obs_trace.set_trace_sink(sink)
    try:
        LIFECYCLES[name](group)
    finally:
        obs_trace.set_trace_sink(previous)
        sink.close()
    buffer.seek(0)
    return Schedule.from_capture(load_capture(buffer)).digest()


def _group(name: str):
    return toy_group() if name == "toy" else group_by_name(name)


@pytest.mark.parametrize("row", PINNED.strip().splitlines())
def test_lifecycle_capture_digest_is_pinned(row: str) -> None:
    name, group_name, digest = row.split()
    assert _capture_digest(name, _group(group_name)) == digest


if __name__ == "__main__":
    for group_name in ("toy", "secp256k1"):
        for name in LIFECYCLES:
            print(name, group_name, _capture_digest(name, _group(group_name)))
