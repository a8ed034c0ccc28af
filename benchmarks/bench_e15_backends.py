"""E15 — group backends at matched ~128-bit security: modp vs secp256k1.

The protocols only touch the group through the
:mod:`repro.crypto.backend` interface, so the whole stack runs over
either backend unchanged.  This bench quantifies what the elliptic
curve buys at the security level the modp stack pays 2048-bit
arithmetic for:

* **primitives** — fixed-base commit, variable-base exponentiation,
  Schnorr sign/verify round-trips;
* **DKG e2e** — full simulated DKG completion at n ∈ {7, 13};
* **verification** — batched point verification against one bivariate
  commitment (the Fig. 1 hot path, post-E14 batching on both sides);
* **signing** — threshold-Schnorr partial generation + batched combine;
* **wire** — serialized element sizes and the dealer's ``send`` frame.

The modp reference is the standardized RFC 5114 §2.3 group
(``group_by_name("rfc5114-2048-256")`` — the checked-in RFC constants,
2048-bit field / 256-bit prime-order subgroup), secp256k1 is the curve
backend.  Both have |q| = 256, so scalar work is identical and the
delta is pure group-arithmetic cost.

Run::

    PYTHONPATH=src python benchmarks/bench_e15_backends.py [--smoke]

Acceptance: secp256k1 DKG e2e >= 3x faster than modp-2048-256 at n=7.
``--smoke`` runs a single reduced shape as a CI regression guard with a
relaxed >= 2x gate (shared runners are noisy).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.apps import threshold_schnorr
from repro.crypto import schnorr
from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import group_by_name
from repro.net import wire
from repro.vss.messages import SendMsg, SessionId
from repro.dkg import DkgConfig, run_dkg


def _time(fn, rounds: int) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - t0) / rounds


def measure_primitives(group, rounds: int = 50, seed: int = 15) -> dict:
    rng = random.Random(seed)
    scalars = [group.random_nonzero_scalar(rng) for _ in range(rounds)]
    base = group.power(group.g, scalars[0])
    group.commit(scalars[0])  # warm the fixed-base table (one-time build)
    it = iter(scalars * 3)
    commit_s = _time(lambda: group.commit(next(it)), rounds)
    it = iter(scalars * 3)
    power_s = _time(lambda: group.power(base, next(it)), rounds)
    key = schnorr.SigningKey.generate(group, rng)
    sign_s = _time(lambda: key.sign(b"bench", rng), rounds)
    sig = key.sign(b"bench", rng)
    verify_s = _time(
        lambda: schnorr.verify(group, key.public_key, b"bench", sig), rounds
    )
    return {
        "commit_ms": round(commit_s * 1e3, 3),
        "power_ms": round(power_s * 1e3, 3),
        "schnorr_sign_ms": round(sign_s * 1e3, 3),
        "schnorr_verify_ms": round(verify_s * 1e3, 3),
    }


def measure_dkg(group, n: int, t: int, seed: int = 15):
    t0 = time.perf_counter()
    result = run_dkg(DkgConfig(n=n, t=t, f=0, group=group), seed=seed)
    elapsed = time.perf_counter() - t0
    assert result.succeeded
    return {"n": n, "t": t, "seconds": round(elapsed, 3)}, result


def measure_batched_verification(
    group, n: int, t: int, rounds: int = 5, seed: int = 15
) -> dict:
    """Batched Fig. 1 point verification (the post-E14 fast path)."""
    rng = random.Random(seed)
    poly = BivariatePolynomial.random_symmetric(t, group.q, rng, secret=7)
    matrix = FeldmanCommitment.commit(poly, group).matrix
    me = 1
    items = [(m, poly.evaluate(m, me)) for m in range(1, n + 1)]
    t0 = time.perf_counter()
    for _ in range(rounds):
        commitment = FeldmanCommitment(matrix, group)  # cold caches
        good, bad = commitment.batch_verify_points(me, items, rng=rng)
        assert len(good) == n and not bad
    per_point = (time.perf_counter() - t0) / (rounds * n)
    return {
        "n": n,
        "t": t,
        "points_per_s": round(1 / per_point, 1),
        "point_ms": round(per_point * 1e3, 3),
    }


def measure_signing(group, key, nonce, rounds: int = 5) -> dict:
    """Threshold-Schnorr: partial generation + verified combine."""
    message = b"bench-e15"
    t = key.nodes[1].config.t
    indices = sorted(key.nodes)[: 2 * t + 1]
    partial_s = _time(
        lambda: threshold_schnorr.partial_sign(
            group,
            message,
            key.nodes[indices[0]].completed.share,
            nonce.nodes[indices[0]].completed.share,
            key.public_key,
            nonce.public_key,
        ),
        rounds * 5,
    )
    partials = [
        threshold_schnorr.PartialSignature(
            i,
            threshold_schnorr.partial_sign(
                group,
                message,
                key.nodes[i].completed.share,
                nonce.nodes[i].completed.share,
                key.public_key,
                nonce.public_key,
            ),
        )
        for i in indices
    ]
    key_c = key.nodes[indices[0]].completed.commitment
    nonce_c = nonce.nodes[indices[0]].completed.commitment

    def combine() -> None:
        sig = threshold_schnorr.combine(group, message, partials, key_c, nonce_c, t)
        assert schnorr.verify(group, key.public_key, message, sig)

    combine_s = _time(combine, rounds)
    return {
        "partials": len(partials),
        "partial_sign_ms": round(partial_s * 1e3, 3),
        "combine_verified_ms": round(combine_s * 1e3, 3),
    }


def measure_wire(group, t: int = 4, seed: int = 15) -> dict:
    rng = random.Random(seed)
    poly = BivariatePolynomial.random_symmetric(t, group.q, rng, secret=7)
    commitment = FeldmanCommitment.commit(poly, group)
    send = SendMsg(SessionId(1, 0), commitment, poly.row_polynomial(1))
    return {
        "element_bytes": group.element_bytes,
        "send_frame_bytes": len(wire.encode(send, group=group)),
    }


def run_bench(smoke: bool = False) -> dict:
    print("generating/fetching groups ...")
    backends = {
        # RFC 5114 §2.3 constants (no parameter generation needed).
        "modp-2048-256": group_by_name("rfc5114-2048-256"),
        "secp256k1": group_by_name("secp256k1"),
    }
    dkg_shapes = [(7, 2)] if smoke else [(7, 2), (13, 4)]
    verify_shapes = [(7, 2)] if smoke else [(13, 4), (25, 8)]
    report: dict = {
        "bench": "e15_backends",
        "mode": "smoke" if smoke else "full",
        "security_bits": {
            name: group.security_bits for name, group in backends.items()
        },
        "backends": {},
    }
    for name, group in backends.items():
        print(f"-- {name}")
        row: dict = {"group_name": group.name}
        row["primitives"] = measure_primitives(
            group, rounds=20 if smoke else 50
        )
        print(f"   primitives: {row['primitives']}")
        row["dkg_e2e"] = []
        results = {}
        for n, t in dkg_shapes:
            dkg_row, result = measure_dkg(group, n, t)
            results[n] = result
            row["dkg_e2e"].append(dkg_row)
            print(f"   dkg e2e n={n}: {dkg_row['seconds']} s")
        row["verification"] = [
            measure_batched_verification(group, n, t, rounds=2 if smoke else 5)
            for n, t in verify_shapes
        ]
        print(f"   verification: {row['verification']}")
        key_n = dkg_shapes[0][0]
        _, nonce = measure_dkg(group, key_n, dkg_shapes[0][1], seed=17)
        row["signing"] = measure_signing(group, results[key_n], nonce)
        print(f"   signing: {row['signing']}")
        row["wire"] = measure_wire(group)
        print(f"   wire: {row['wire']}")
        report["backends"][name] = row
    modp = report["backends"]["modp-2048-256"]
    ec = report["backends"]["secp256k1"]
    report["headline"] = {
        "dkg_speedup": round(
            modp["dkg_e2e"][0]["seconds"] / ec["dkg_e2e"][0]["seconds"], 2
        ),
        "verify_speedup": round(
            ec["verification"][0]["points_per_s"]
            / modp["verification"][0]["points_per_s"],
            2,
        ),
        "sign_combine_speedup": round(
            modp["signing"]["combine_verified_ms"]
            / ec["signing"]["combine_verified_ms"],
            2,
        ),
        "element_size_ratio": round(
            modp["wire"]["element_bytes"] / ec["wire"]["element_bytes"], 2
        ),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single reduced shape; fail if the curve loses its 3x edge",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e15.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_bench(smoke=args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    headline = report["headline"]
    print(f"headline: {headline}")
    # Full runs enforce the 3x acceptance bar; the CI smoke uses a 2x
    # regression gate so shared-runner noise cannot flake the lane.
    target = 2.0 if args.smoke else 3.0
    if headline["dkg_speedup"] < target:
        print(
            "ACCEPTANCE MISS: secp256k1 DKG e2e only "
            f"{headline['dkg_speedup']}x modp-2048-256 (target {target}x)",
            file=sys.stderr,
        )
        return 1
    print(f"acceptance ok: secp256k1 {headline['dkg_speedup']}x on DKG e2e")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
