#!/usr/bin/env python3
"""A dealerless threshold signing service ("wallet") scenario.

Seven nodes jointly hold a signing key that never exists in one place:

1. a key DKG establishes the wallet's public key;
2. each signing request runs an ephemeral nonce DKG, then t+1 signers
   publish partial responses that combine into an ordinary Schnorr
   signature;
3. a Byzantine signer submitting a corrupted partial is detected and
   filtered — the signature still completes;
4. the wallet key survives share renewal (proactive security): old
   shares become useless, the public key is unchanged.

Run:  python examples/threshold_wallet.py
"""

from __future__ import annotations

from repro.apps import threshold_schnorr as ts
from repro.crypto import schnorr
from repro.crypto.groups import toy_group
from repro.dkg import DkgConfig, run_dkg
from repro.proactive import ProactiveSystem


def sign(message: bytes, key, nonce, signers, t):
    group = nonce.config.group
    partials = [
        ts.PartialSignature(
            i,
            ts.partial_sign(
                group, message, key_shares[i], nonce.shares[i],
                key_pk, nonce.public_key,
            ),
        )
        for i in signers
    ]
    return ts.combine(
        group, message, partials, key_commitment, nonce.commitment, t=t
    )


def main() -> None:
    global key_shares, key_pk, key_commitment
    group = toy_group()
    config = DkgConfig(n=7, t=2, f=0, group=group)

    print("== Step 1: wallet key generation (no dealer, no trusted party) ==")
    system = ProactiveSystem(config, seed=7)
    key = system.bootstrap()
    key_shares = dict(key.shares)
    key_pk = key.public_key
    key_commitment = key.commitment
    print(f"wallet public key: {hex(key_pk)}")

    print("\n== Step 2: threshold signing (3-of-7) ==")
    message = b"transfer 10 coins to alice"
    nonce = run_dkg(config, seed=1001)  # fresh nonce per message
    sig = sign(message, key, nonce, signers=(1, 4, 6), t=2)
    print(f"signature: (c={hex(sig.challenge)[:18]}..., z={hex(sig.response)[:18]}...)")
    print(f"verifies under plain Schnorr: "
          f"{schnorr.verify(group, key_pk, message, sig)}")

    print("\n== Step 3: Byzantine signer filtered ==")
    nonce2 = run_dkg(config, seed=1002)
    good = [
        ts.PartialSignature(
            i,
            ts.partial_sign(group, message, key_shares[i], nonce2.shares[i],
                            key_pk, nonce2.public_key),
        )
        for i in (2, 3)
    ]
    evil = ts.PartialSignature(5, 0xDEADBEEF % group.q)
    print(f"bad partial detected: "
          f"{not ts.verify_partial(group, message, evil, key_commitment, nonce2.commitment)}")
    extra = ts.PartialSignature(
        7,
        ts.partial_sign(group, message, key_shares[7], nonce2.shares[7],
                        key_pk, nonce2.public_key),
    )
    sig2 = ts.combine(group, message, good + [evil, extra],
                      key_commitment, nonce2.commitment, t=2)
    print(f"signature still valid: {schnorr.verify(group, key_pk, message, sig2)}")

    print("\n== Step 4: proactive share renewal ==")
    old_shares = dict(key_shares)
    report = system.renew()
    key_shares = dict(report.shares)
    key_commitment = report.commitment
    print(f"public key unchanged: {report.public_key == key_pk}")
    print(f"all shares changed:   "
          f"{all(old_shares[i] != key_shares[i] for i in key_shares)}")
    nonce3 = run_dkg(config, seed=1003)
    sig3 = sign(b"post-renewal payment", key, nonce3, signers=(3, 5, 6), t=2)
    print(f"signing still works:  "
          f"{schnorr.verify(group, key_pk, b'post-renewal payment', sig3)}")


if __name__ == "__main__":
    main()
