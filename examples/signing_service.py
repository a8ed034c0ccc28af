"""Signing service demo: a DKG'd cluster serving clients over TCP.

The paper's §1 motivates DKG as the building block for dealerless
threshold services; this example assembles one end to end:

1. bootstrap a (n=5, t=1) group key with the DKG;
2. start the serving layer — per-node signer workers, a presignature
   pool of precomputed nonce DKGs, and the asyncio TCP gateway;
3. act as a client: threshold-sign a message and verify the result
   as an ordinary Schnorr signature under the group key;
4. crash one node mid-run and show the service keeps serving — pooled
   presignatures the crashed node contributed to are invalidated and
   the pool refills from the survivors.

Run::

    PYTHONPATH=src python examples/signing_service.py
"""

from __future__ import annotations

import asyncio

from repro.crypto import schnorr
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceFrontend,
    ThresholdService,
)

N, T, SEED, POOL = 5, 1, 11, 6


async def main() -> None:
    print(f"== threshold service n={N} t={T}, presig pool {POOL} ==\n")

    service = ThresholdService(
        ServiceConfig(n=N, t=T, seed=SEED, pool_target=POOL)
    )
    await service.start()  # prefills the pool: POOL nonce DKGs, off-path
    async with ServiceFrontend(service) as frontend:
        print(f"gateway listening on {frontend.host}:{frontend.port}")
        print(f"group public key   : {hex(service.public_key)}")
        print(f"pool ready         : {service.pool.level}\n")

        client = await ServiceClient.connect(frontend.host, frontend.port)

        # -- threshold Schnorr: verifies like a single-signer signature
        message = b"pay 10 coins to carol"
        signed = await client.sign(message)
        signature = schnorr.Signature(signed.challenge, signed.response)
        assert schnorr.verify(service.group, service.public_key, message, signature)
        print(f"SIGN    : verified, presig_used={signed.presig_used}")

        # -- crash one member mid-run; the service keeps signing
        victim = 2
        dropped = service.crash_node(victim)
        print(
            f"\ncrashed node {victim}: {dropped} pooled presignature(s) "
            "invalidated (it contributed to them)"
        )
        signed = await client.sign(b"still signing after the crash")
        assert schnorr.verify(
            service.group,
            service.public_key,
            b"still signing after the crash",
            schnorr.Signature(signed.challenge, signed.response),
        )
        status = await client.status()
        print(
            f"post-crash status  : alive={status.alive}/{status.n}, "
            f"served={status.served}, pool={status.pool_ready}"
        )

        await client.close()
    await service.stop()
    print("\nservice stopped cleanly")


if __name__ == "__main__":
    asyncio.run(main())
