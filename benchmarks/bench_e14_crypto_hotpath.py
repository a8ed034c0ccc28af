"""E14 — the commitment-verification hot path: multiexp + batching.

The Fig. 1 predicates dominate runtime at realistic group sizes: every
echo/ready costs a verify-point against the bivariate commitment
matrix, and a DKG is n full VSS sessions of them.  This bench measures
three implementations of "check n points from n senders against one
commitment" at rfc5114-1024-160:

* **naive** — the textbook O(t^2)-exponentiation double loop per point
  (the seed implementation of ``verify_point``);
* **collapsed** — the cached per-node row verifier: one O(t^2) matrix
  collapse, then O(t) per point;
* **batched** — buffer all points and verify them in ONE randomized-
  linear-combination multiexp (``batch_verify_points``), the path the
  VSS/DKG sessions now take at their decision thresholds.

It also times end-to-end DKG completion at n ∈ {7, 13, 25} and the
threshold-Schnorr combine (one signature verification) next to a
batch audit of all its partials, and writes everything to
``BENCH_e14.json``.

Run directly (CI runs ``--smoke`` as a perf-regression guard)::

    PYTHONPATH=src python benchmarks/bench_e14_crypto_hotpath.py [--smoke]

Acceptance: batched verification >= 5x naive at n=13, t=4.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.apps import threshold_schnorr
from repro.crypto.bivariate import BivariatePolynomial
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import RFC5114_1024_160, SchnorrGroup, toy_group
from repro.dkg import DkgConfig, run_dkg
from repro.sim.network import ConstantDelay


def _naive_verify_point(
    commitment: FeldmanCommitment, i: int, m: int, alpha: int
) -> bool:
    """Fig. 1 verify-point exactly as the seed implemented it."""
    g = commitment.group
    t = commitment.degree
    m_pows = [pow(m, j, g.q) for j in range(t + 1)]
    i_pows = [pow(i, ell, g.q) for ell in range(t + 1)]
    expected = 1
    for j in range(t + 1):
        for ell in range(t + 1):
            e = (m_pows[j] * i_pows[ell]) % g.q
            expected = g.mul(expected, pow(commitment.matrix[j][ell], e, g.p))
    return pow(g.g, alpha % g.q, g.p) == expected


def measure_verification(
    group: SchnorrGroup, n: int, t: int, rounds: int = 3, seed: int = 14
) -> dict:
    """Time naive vs collapsed vs batched checking of n points."""
    rng = random.Random(seed)
    poly = BivariatePolynomial.random_symmetric(t, group.q, rng, secret=7)
    matrix = FeldmanCommitment.commit(poly, group).matrix
    me = 1
    items = [(m, poly.evaluate(m, me)) for m in range(1, n + 1)]

    def fresh() -> FeldmanCommitment:
        # A new instance per round so per-commitment caches start cold,
        # as they do for each newly dealt commitment in a session.
        return FeldmanCommitment(matrix, group)

    t0 = time.perf_counter()
    for _ in range(rounds):
        commitment = fresh()
        assert all(
            _naive_verify_point(commitment, me, m, alpha) for m, alpha in items
        )
    naive = (time.perf_counter() - t0) / rounds

    t0 = time.perf_counter()
    for _ in range(rounds):
        commitment = fresh()
        assert all(commitment.verify_point(me, m, alpha) for m, alpha in items)
    collapsed = (time.perf_counter() - t0) / rounds

    t0 = time.perf_counter()
    for _ in range(rounds):
        commitment = fresh()
        good, bad = commitment.batch_verify_points(me, items, rng=rng)
        assert not bad and len(good) == n
    batched = (time.perf_counter() - t0) / rounds

    return {
        "n": n,
        "t": t,
        "points": n,
        "naive_pts_per_s": round(n / naive, 1),
        "collapsed_pts_per_s": round(n / collapsed, 1),
        "batched_pts_per_s": round(n / batched, 1),
        "speedup_collapsed": round(naive / collapsed, 2),
        "speedup_batched": round(naive / batched, 2),
    }


def measure_dkg(group: SchnorrGroup, n: int, t: int, seed: int = 14):
    """Wall-clock one full DKG (zero network delay: crypto-bound)."""
    config = DkgConfig(n=n, t=t, group=group)
    t0 = time.perf_counter()
    result = run_dkg(config, seed=seed, delay_model=ConstantDelay(0.0))
    elapsed = time.perf_counter() - t0
    assert result.succeeded
    return {"n": n, "t": t, "seconds": round(elapsed, 3)}, result


def measure_combine(group: SchnorrGroup, key, nonce, rounds: int = 10) -> dict:
    """Threshold-Schnorr combine (interpolate, verify the signature once)
    next to a ``batch_verify`` audit of every partial it was given."""
    message = b"bench-e14"
    partials = [
        threshold_schnorr.PartialSignature(
            i,
            threshold_schnorr.partial_sign(
                group,
                message,
                key.shares[i],
                nonce.shares[i],
                key.public_key,
                nonce.public_key,
            ),
        )
        for i in sorted(key.shares)
    ]
    t = key.config.t
    t0 = time.perf_counter()
    for _ in range(rounds):
        threshold_schnorr.combine(
            group, message, partials, key.commitment, nonce.commitment, t
        )
    combine = (time.perf_counter() - t0) / rounds
    rng = random.Random(3)
    t0 = time.perf_counter()
    for _ in range(rounds):
        _valid, bad = threshold_schnorr.batch_verify(
            group, message, partials, key.commitment, nonce.commitment, rng
        )
        assert not bad
    audit = (time.perf_counter() - t0) / rounds
    return {
        "partials": len(partials),
        "combine_ms": round(combine * 1000, 2),
        "batch_audit_ms": round(audit * 1000, 2),
    }


def run_bench(smoke: bool) -> dict:
    if smoke:
        # Toy group: per-op times are microseconds, so the regression
        # gate needs many rounds to rise above timer noise.
        group = toy_group()
        shapes = [(7, 2)]
        dkg_shapes = [(7, 2)]
        verify_rounds, combine_rounds = 200, 50
    else:
        group = RFC5114_1024_160
        shapes = [(7, 2), (13, 4), (25, 8)]
        dkg_shapes = [(7, 2), (13, 4), (25, 8)]
        verify_rounds, combine_rounds = 3, 10
    report: dict = {
        "bench": "e14_crypto_hotpath",
        "mode": "smoke" if smoke else "full",
        "group": group.name,
        "verification": [],
        "dkg_e2e": [],
    }
    for n, t in shapes:
        row = measure_verification(group, n, t, rounds=verify_rounds)
        report["verification"].append(row)
        print(
            f"verify n={n} t={t}: naive {row['naive_pts_per_s']}/s, "
            f"collapsed {row['collapsed_pts_per_s']}/s "
            f"({row['speedup_collapsed']}x), "
            f"batched {row['batched_pts_per_s']}/s "
            f"({row['speedup_batched']}x)"
        )
    results = {}
    for n, t in dkg_shapes:
        row, result = measure_dkg(group, n, t)
        results[n] = result
        report["dkg_e2e"].append(row)
        print(f"dkg e2e n={n} t={t}: {row['seconds']} s")
    combine_n = 13 if not smoke else 7
    key = results[combine_n]
    _, nonce = measure_dkg(group, combine_n, (combine_n - 1) // 3, seed=15)
    report["combine"] = measure_combine(group, key, nonce, rounds=combine_rounds)
    print(
        f"combine ({report['combine']['partials']} partials): "
        f"{report['combine']['combine_ms']} ms, "
        f"batch audit of the partials {report['combine']['batch_audit_ms']} ms"
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="toy-group regression guard: fail if batched is slower than naive",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e14.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_bench(smoke=args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.smoke:
        row = report["verification"][0]
        if row["speedup_batched"] < 1.0:
            print(
                "PERF REGRESSION: batched verification slower than naive "
                f"({row['speedup_batched']}x)",
                file=sys.stderr,
            )
            return 1
        print(f"smoke ok: batched {row['speedup_batched']}x naive")
        return 0
    headline = next(r for r in report["verification"] if r["n"] == 13)
    if headline["speedup_batched"] < 5.0:
        print(
            "ACCEPTANCE MISS: batched verification "
            f"{headline['speedup_batched']}x naive at n=13 (target 5x)",
            file=sys.stderr,
        )
        return 1
    print(f"acceptance ok: batched {headline['speedup_batched']}x at n=13 t=4")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
