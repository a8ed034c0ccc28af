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
from repro.dkg import DkgConfig, run_dkg
from repro.fuzz.schedule import Schedule
from repro.groupmod import GroupManager, ModProposal, run_node_additions
from repro.obs import trace as obs_trace
from repro.obs.replay import load_capture
from repro.proactive import ProactiveSystem
from repro.runtime.sessions import DkgSessionSpec, run_dkg_sessions
from repro.vss.config import VssConfig
from repro.vss.node import run_vss

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
    config = DkgConfig(n=4, t=1, group=group)
    specs = [DkgSessionSpec(f"s{k}", config, tau=k) for k in range(3)]
    results = run_dkg_sessions(specs, seed=SEED)
    assert all(result.succeeded for result in results.values())


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
proactive toy d243f7eac5d1c2cfd406eebd23e8554b84c0ba0bcb7d2b5f366c2efe5dfbd9de
groupmod toy 45b9d940d28b8c919ae8a4c98afb90ebae98a8ac0495974a45518f55a3f807aa
additions toy cdb77a0a215c4cfef38a44f5fa2275665a57f793e15cec17eb10e5a05a1aba9e
sessions toy ea7d0f4415d044665919faf3447b5cded6071350c3d64ed03c8fad63c3fddbba
vss toy e1c9c48a30e07ebe4d3146790f896365b68b505c4692e9d6e147d9b0d4d07cb8
proactive secp256k1 082a8cd3b074337fdcac829056975ae7d3ff337c730c73d5cb8a7b64c1211099
groupmod secp256k1 a02ba725ae3b8cbfe8bec9a1775765fedac76bb5a16cb192906c93692731d98e
additions secp256k1 aecc89b81d1d3348186bc34a27fa4b9eb4db766141140d9f7b1a0896307d2d20
sessions secp256k1 d1f1c65c226be82fcbec66a07376a9a19ca9260d22229b74af4bdab2f35e43e4
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
