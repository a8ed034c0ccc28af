"""E18 — the parallel presignature forge: cores axis over pool refill.

``repro.crypto.parallel`` fans one workload across a process pool: a
:class:`~repro.service.workers.ThresholdService` on a multi-CPU machine
partitions a whole-deficit presignature refill into per-worker chunks of
nonce DKGs, one embedded protocol world per pool worker.  This bench
times that forge call (``ThresholdService._forge_nonce_batch``, the
blocking body of every pool refill) swept over pool widths ∈ {1, 2,
auto = every available CPU}, each set by swapping a
:class:`~repro.crypto.parallel.CryptoExecutor` of that width onto the
service, in alternating rounds so drift hits every core count alike
(after one untimed warm-up round), and reports every run plus the
per-core-count median.

Each round forges fresh presignature ids; ``batches_identical`` records
whether every core count forged byte-identical presignatures (ids,
nonce points, shares) for the same ids.

Honest-accounting note: ``available_cpus`` is recorded in the report.
A process pool cannot beat serial on a single-core box, so the
``--smoke`` gate — forging at 2 cores is not slower than serial, with a
10% shared-runner allowance — is enforced only on >= 2 cpus.

Run::

    PYTHONPATH=src python benchmarks/bench_e18_parallel.py [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from repro.crypto import parallel
from repro.crypto.groups import group_by_name
from repro.service.workers import ServiceConfig, ThresholdService

CORES_AXIS: list[int | str] = [1, 2, "auto"]


def _resolve(cores: int | str) -> int:
    return parallel.available_cpus() if cores == "auto" else int(cores)


def _service(group, n: int, t: int, seed: int, width: int) -> ThresholdService:
    """A pool-less service (so no executor of its own) forging at ``width``."""
    service = ThresholdService(
        ServiceConfig(n=n, t=t, group=group, seed=seed, pool_target=0)
    )
    if width > 1:
        service.crypto_executor = parallel.CryptoExecutor(width)
        service.crypto_executor.warm()
    return service


def _batch_digest(group, batch) -> str:
    h = hashlib.sha256()
    for presig, shares in batch:
        h.update(repr(presig.presig_id).encode())
        h.update(group.element_to_bytes(presig.nonce_point))
        h.update(repr(sorted(shares.items())).encode())
    return h.hexdigest()


def measure_pool_refill(
    group, n: int, t: int, nonces: int, rounds: int, seed: int = 18
) -> dict:
    """Seconds per ``nonces``-presignature forge, per core count."""
    services = {
        str(cores): _service(group, n, t, seed, _resolve(cores))
        for cores in CORES_AXIS
    }
    runs: dict[str, list[float]] = {key: [] for key in services}
    identical = True
    try:
        # Round 0 is an untimed warm-up: pool workers build their group
        # tables on first contact and would otherwise flatter serial.
        for round_index in range(rounds + 1):
            ids = list(range(round_index * nonces, (round_index + 1) * nonces))
            digests = set()
            for key, service in services.items():
                t0 = time.perf_counter()
                batch = service._forge_nonce_batch(ids)
                if round_index:
                    runs[key].append(round(time.perf_counter() - t0, 3))
                digests.add(_batch_digest(group, batch))
            identical &= len(digests) == 1
    finally:
        for service in services.values():
            if service.crypto_executor is not None:
                service.crypto_executor.close()
    serial = statistics.median(runs["1"])
    row: dict = {
        "n": n,
        "t": t,
        "nonces": nonces,
        "rounds": rounds,
        "cores": {},
        "batches_identical": identical,
    }
    for cores in CORES_AXIS:
        key = str(cores)
        median = statistics.median(runs[key])
        row["cores"][key] = {
            "resolved": _resolve(cores),
            "runs_s": runs[key],
            "median_s": round(median, 3),
            "presigs_per_s": round(nonces / median, 2),
            "speedup_vs_serial": round(serial / median, 2),
        }
    return row


def run_bench(smoke: bool = False) -> dict:
    backends = (
        {"secp256k1": group_by_name("secp256k1")}
        if smoke
        else {
            "modp-2048-256": group_by_name("rfc5114-2048-256"),
            "secp256k1": group_by_name("secp256k1"),
        }
    )
    nonces, rounds = (8, 3) if smoke else (16, 5)
    cpus = parallel.available_cpus()
    report: dict = {
        "bench": "e18_parallel",
        "mode": "smoke" if smoke else "full",
        "available_cpus": cpus,
        "cores_axis": [str(c) for c in CORES_AXIS],
        "backends": {},
    }
    for name, group in backends.items():
        print(f"-- {name} (available_cpus={cpus})")
        refill = measure_pool_refill(group, n=4, t=1, nonces=nonces, rounds=rounds)
        report["backends"][name] = {"group_name": group.name, "pool_refill": refill}
        print(f"   pool refill: {refill['cores']}")
    report["headline"] = {
        "worst_forge_speedup_2_cores": min(
            row["pool_refill"]["cores"]["2"]["speedup_vs_serial"]
            for row in report["backends"].values()
        ),
        "batches_identical": all(
            row["pool_refill"]["batches_identical"]
            for row in report["backends"].values()
        ),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced shapes; fail if forging at 2 cores is slower than "
        "serial (enforced on >= 2 cpus)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e18.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_bench(smoke=args.smoke)
    if not args.smoke:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    headline = report["headline"]
    print(f"headline: {headline}")
    cpus = report["available_cpus"]
    if args.smoke and cpus >= 2:
        worst = headline["worst_forge_speedup_2_cores"]
        # Shared-runner slack: "not slower" with a 10% noise allowance.
        if worst < 0.9:
            print(
                f"ACCEPTANCE MISS: forging at 2 cores slower than serial "
                f"({worst}x) on {cpus} cpus",
                file=sys.stderr,
            )
            return 1
    elif cpus < 2:
        print(f"note: {cpus} cpu available — the forge speed gate is waived")
    print("acceptance ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
