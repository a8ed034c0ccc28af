"""Tests for the DKG-layer Rec protocol (Definition 4.1 consistency:
every honest reconstructor obtains the same fixed value s)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.adversary import Adversary
from repro.sim.node import Context, ProtocolNode
from repro.dkg import DkgConfig, DkgSharePointMsg, run_dkg

from tests.helpers import default_test_group

G = default_test_group()


class TestDkgRec:
    def test_all_nodes_reconstruct_same_value(self) -> None:
        res = run_dkg(DkgConfig(n=7, t=2, group=G), seed=5, reconstruct=True)
        values = res.protocol_reconstructions
        assert len(values) == 7
        assert set(values.values()) == {res.expected_secret()}

    def test_protocol_rec_matches_client_side(self) -> None:
        res = run_dkg(DkgConfig(n=7, t=2, group=G), seed=6, reconstruct=True)
        assert set(res.protocol_reconstructions.values()) == {res.reconstruct()}

    def test_rec_with_crashed_nodes(self) -> None:
        cfg = DkgConfig(n=9, t=2, f=1, group=G)
        adv = Adversary.crash_only(t=2, f=1, crash_plan=[(0.0, 9, None)])
        res = run_dkg(cfg, seed=7, adversary=adv, reconstruct=True)
        values = res.protocol_reconstructions
        assert set(values) == set(range(1, 9))
        assert len(set(values.values())) == 1

    def test_byzantine_bad_rec_shares_filtered(self) -> None:
        """A corrupt node flooding wrong share points cannot corrupt or
        block reconstruction — points failing verify-share are dropped."""

        @dataclass
        class BadRecNode(ProtocolNode):
            fired: bool = False

            def on_message(self, sender: int, payload: Any, ctx: Context) -> None:
                if isinstance(payload, DkgSharePointMsg) and not self.fired:
                    self.fired = True
                    for j in range(1, 8):
                        ctx.send(j, DkgSharePointMsg(0, 12345))

        def factory(i, config, keystore, ca):
            return BadRecNode(i) if i == 7 else None

        cfg = DkgConfig(n=7, t=2, group=G)
        adv = Adversary.corrupting(t=2, f=0, byzantine={7})
        res = run_dkg(
            cfg, seed=8, adversary=adv, node_factory=factory, reconstruct=True
        )
        values = {
            i: v for i, v in res.protocol_reconstructions.items() if i != 7
        }
        assert len(values) == 6
        assert len(set(values.values())) == 1

    def test_rec_requires_completion(self) -> None:
        import pytest
        from repro.sim.pki import CertificateAuthority, KeyStore
        from repro.dkg.node import DkgNode
        import random

        from tests.helpers import StubContext, default_test_group

        rng = random.Random(0)
        ca = CertificateAuthority(G)
        ks = KeyStore.enroll(1, ca, rng)
        node = DkgNode(1, DkgConfig(n=7, t=2, group=G), ks, ca)
        with pytest.raises(RuntimeError, match="before DKG completes"):
            node.start_reconstruction(StubContext(node_id=1))

    def test_rec_message_complexity(self) -> None:
        res = run_dkg(DkgConfig(n=7, t=2, group=G), seed=9, reconstruct=True)
        # one broadcast per node: n^2 rec-share messages
        assert res.metrics.messages_by_kind["dkg.rec-share"] == 49
