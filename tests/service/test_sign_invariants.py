"""Serving-tier nonce invariants under random operation sequences.

A seeded scheduler drives one ``ThresholdService`` through signs,
crashes, recoveries, pool refills and flushes while workers start and
stop returning bad partial signatures.  Every answered partial-sign
call is recorded, and the properties a Schnorr nonce lives or dies by
are asserted as it is: a fallback re-combine, a crash or a drain must
never make any worker answer twice for one presignature, nor any
presignature meet two messages.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable

import pytest

from repro.crypto import schnorr
from repro.crypto.groups import toy_group
from repro.service.workers import (
    ServiceConfig,
    ServiceUnavailable,
    SignerWorker,
    ThresholdService,
)

from tests.helpers import make_worker_lie

N, T = 5, 1
OPERATIONS = 150
# (operation, weight): signing dominates; recover outweighs crash and
# stop-lying outweighs lying so the service spends most of the run able
# to sign.
MENU = (
    ("sign", 50),
    ("crash", 5),
    ("recover", 14),
    ("refill", 8),
    ("flush", 3),
    ("lie", 8),
    ("stop-lying", 12),
)


async def _run_sequence(seed: int) -> dict[str, int]:
    rng = random.Random(("sign-invariants", seed).__repr__())
    group = toy_group()
    # Low watermark 0 parks the background refill task for good: the
    # pool only ever refills when the sequence says so.
    service = ThresholdService(
        ServiceConfig(
            n=N, t=T, seed=seed, group=group, pool_target=4, pool_low_watermark=0
        )
    )
    await service.start()
    liars: dict[int, Callable[[], None]] = {}  # worker index -> undo
    tally = {"signed": 0, "unavailable": 0, "guaranteed": 0}
    try:
        for _ in range(OPERATIONS):
            (operation,) = rng.choices(
                [name for name, _ in MENU], [weight for _, weight in MENU]
            )
            index = rng.randint(1, N)
            worker = service.workers[index]
            if operation == "sign":
                live = {w.index for w in service.alive}
                # Enough live workers to forge on a dry pool, and enough
                # honest ones among them to outvote the liars.
                guaranteed = len(live) >= 2 * T + 1 and len(live & set(liars)) <= T
                messages = [rng.randbytes(8) for _ in range(rng.randint(1, 3))]
                outcomes = await asyncio.gather(
                    *(service.sign(message) for message in messages),
                    return_exceptions=True,
                )
                for message, outcome in zip(messages, outcomes):
                    if isinstance(outcome, ServiceUnavailable):
                        assert not guaranteed, (seed, outcome)
                        tally["unavailable"] += 1
                        continue
                    if isinstance(outcome, BaseException):
                        raise outcome
                    signature, _from_pool = outcome
                    assert schnorr.verify(group, service.public_key, message, signature)
                    tally["signed"] += 1
                    tally["guaranteed"] += guaranteed
            elif operation == "crash":
                if not worker.crashed:
                    service.crash_node(index)
            elif operation == "recover":
                if worker.crashed:
                    service.recover_node(index)
            elif operation == "refill":
                try:
                    await service.pool.refill()
                except ServiceUnavailable:
                    assert len(service.alive) < 2 * T + 1
            elif operation == "flush":
                service.flush_presignatures()
            elif operation == "lie":
                if index not in liars:
                    liars[index] = make_worker_lie(worker)
            elif index in liars:
                liars.pop(index)()
    finally:
        await service.stop()
    return tally


@pytest.mark.parametrize("seed", range(5))
def test_no_nonce_is_spent_twice_and_every_answer_verifies(
    seed: int, monkeypatch
) -> None:
    answered: set[tuple[int, int]] = set()  # (worker, presignature)
    message_of: dict[int, bytes] = {}  # presignature -> the one message
    partial_sign = SignerWorker.partial_sign

    async def recording(self, presig_id, nonce_point, message):
        partial = await partial_sign(self, presig_id, nonce_point, message)
        assert message_of.setdefault(presig_id, message) == message, "two messages"
        assert (self.index, presig_id) not in answered, "answered twice"
        answered.add((self.index, presig_id))
        return partial

    monkeypatch.setattr(SignerWorker, "partial_sign", recording)
    tally = asyncio.run(_run_sequence(seed))
    # The sequence spent time where a sign is owed a signature.
    assert tally["guaranteed"] > 20, tally
