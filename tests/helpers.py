"""Test helpers: the backend-aware default group and a stub Context for
driving protocol state machines message-by-message, mirroring the
pseudocode's `upon` clauses without a full simulation."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any

from repro.apps import PartialSignature
from repro.crypto.groups import group_by_name, toy_group

TEST_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "modp")
if TEST_BACKEND not in ("modp", "secp256k1"):
    raise RuntimeError(
        f"REPRO_TEST_BACKEND={TEST_BACKEND!r} (want 'modp' or 'secp256k1')"
    )


def default_test_group():
    """The group protocol tests run over, honouring the CI backend
    matrix: the 64-bit-q toy modp group by default, secp256k1 when
    ``REPRO_TEST_BACKEND=secp256k1``."""
    if TEST_BACKEND == "secp256k1":
        return group_by_name("secp256k1")
    return toy_group()


@dataclass
class StubContext:
    """Captures a node's effects instead of scheduling them."""

    node_id: int = 1
    now: float = 0.0
    n_nodes: int = 7
    sent: list[tuple[int, Any]] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    timers: list[tuple[int, float, Any]] = field(default_factory=list)
    cancelled: list[int] = field(default_factory=list)
    leader_changes: int = 0
    _timer_counter: int = 0
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    @property
    def all_nodes(self) -> list[int]:
        return list(range(1, self.n_nodes + 1))

    def send(self, recipient: int, payload: Any) -> None:
        self.sent.append((recipient, payload))

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        for j in self.all_nodes:
            if j == self.node_id and not include_self:
                continue
            self.send(j, payload)

    def set_timer(self, delay: float, tag: Any) -> int:
        self._timer_counter += 1
        self.timers.append((self._timer_counter, delay, tag))
        return self._timer_counter

    def cancel_timer(self, timer_id: int) -> None:
        self.cancelled.append(timer_id)

    def output(self, payload: Any) -> None:
        self.outputs.append(payload)

    def record_leader_change(self) -> None:
        self.leader_changes += 1

    # -- assertion sugar -------------------------------------------------------

    def sent_of_kind(self, kind: str) -> list[tuple[int, Any]]:
        return [
            (r, p) for r, p in self.sent if getattr(p, "kind", None) == kind
        ]

    def clear(self) -> None:
        self.sent.clear()
        self.outputs.clear()


def make_worker_lie(worker):
    """Make one service ``SignerWorker`` Byzantine: every partial
    signature it returns is ``response + 1``.  Returns the undo."""
    honest = worker.partial_sign

    async def lying(presig_id, nonce_point, message):
        partial = await honest(presig_id, nonce_point, message)
        return PartialSignature(
            partial.index, (partial.response + 1) % worker.group.q
        )

    worker.partial_sign = lying

    def stop_lying() -> None:
        del worker.partial_sign  # the class's method shows through again

    return stop_lying


def record_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Wrap ``owner.name`` for the test's duration; returns the list
    that collects the positional arguments of every call to it."""
    real = getattr(owner, name)
    calls: list[tuple] = []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls
