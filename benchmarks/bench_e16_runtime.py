"""E16 — session-multiplexed runtime vs. one-host-per-protocol.

Serving workloads need many concurrent DKGs (one per pooled
presignature nonce).  Before the sans-I/O runtime each got its own
protocol world: its own simulated event queue, or — on the real
network — its own set of n server sockets and n² connections.  The
:class:`~repro.runtime.runtime.ProtocolRuntime` multiplexes any number
of sessions over one endpoint per node instead.  This bench measures
both layouts in both execution backends:

* **sim** — K nonce-style DKGs (n=5, t=1): K independent
  ``run_dkg`` worlds (sequential, the old service forge path) vs. one
  ``run_dkg_sessions`` world with K multiplexed sessions (the new
  batch-refill path).  Virtual time makes both CPU-bound, so this row
  is an *overhead parity check*: the envelope and session routing must
  not cost measurable wall time;
* **tcp** — K DKGs over real asyncio sockets under injected link
  latency (the paper's over-the-Internet setting, where protocol
  rounds wait on the network): K separate ``LocalCluster``
  deployments run back to back (K·n server sockets, latency paid K
  times over) vs. one ``SessionCluster`` carrying K concurrent
  sessions (n sockets, rounds of different sessions overlapping in
  the latency gaps), wall-clock timed end to end.

Run::

    PYTHONPATH=src python benchmarks/bench_e16_runtime.py [--smoke]

Acceptance: the multiplexed TCP layout completes all K DKGs faster
than K sequential single-protocol clusters, every session agrees, and
the sim overhead check stays within noise of 1x.  ``--smoke`` runs a
reduced K as a CI regression guard.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import time
from pathlib import Path

from repro.crypto.groups import toy_group
from repro.net.cluster import COMPLETED_KIND, SessionCluster, run_local_cluster
from repro.runtime.sessions import DkgSessionSpec, run_dkg_sessions
from repro.sim.network import ConstantDelay, UniformDelay
from repro.sim.pki import CertificateAuthority, KeyStore
from repro.dkg import DkgConfig, run_dkg
from repro.dkg.messages import DkgStartInput
from repro.dkg.node import DkgNode

TIME_SCALE = 0.005
# 5–15 ms per hop at TIME_SCALE: a LAN-to-metro link, enough that
# protocol rounds are latency-bound (the regime the runtime targets).
TCP_DELAY = (1.0, 3.0)


def bench_sim(config: DkgConfig, k: int, seed: int = 1) -> dict:
    t0 = time.perf_counter()
    for tau in range(k):
        result = run_dkg(
            config, seed=seed, tau=tau, delay_model=ConstantDelay(0.0)
        )
        assert result.succeeded
    separate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    results = run_dkg_sessions(
        [DkgSessionSpec(f"dkg-{tau}", config, tau=tau) for tau in range(k)],
        seed=seed,
        delay_model=ConstantDelay(0.0),
    )
    multiplexed_s = time.perf_counter() - t0
    assert all(r.succeeded for r in results.values())
    assert len({r.public_key for r in results.values()}) == k
    return {
        "k": k,
        "separate_worlds_s": round(separate_s, 4),
        "multiplexed_s": round(multiplexed_s, 4),
        "speedup": round(separate_s / multiplexed_s, 2),
    }


def bench_tcp(config: DkgConfig, k: int, seed: int = 1) -> dict:
    members = config.vss().indices
    delay = UniformDelay(*TCP_DELAY)

    # Old layout: one cluster (n sockets, n² links) per DKG, run after
    # run — the one-host-per-protocol arrangement the service had.
    t0 = time.perf_counter()
    for tau in range(k):
        result = run_local_cluster(
            config, seed=seed, tau=tau, delay_model=delay,
            time_scale=TIME_SCALE, timeout=120.0,
        )
        assert result.succeeded, result.errors
    separate_s = time.perf_counter() - t0

    # New layout: ONE cluster, K concurrent sessions over n endpoints.
    async def multiplexed() -> dict:
        ca = CertificateAuthority(config.group)
        rng = random.Random(seed)
        keystores = {i: KeyStore.enroll(i, ca, rng) for i in members}
        async with SessionCluster(
            list(members), seed=seed, group=config.group,
            delay_model=delay, time_scale=TIME_SCALE,
        ) as cluster:
            for tau in range(k):
                cluster.open_session(
                    f"dkg-{tau}",
                    {
                        i: DkgNode(i, config, keystores[i], ca, tau=tau)
                        for i in members
                    },
                )
            for tau in range(k):
                cluster.inject_all(f"dkg-{tau}", DkgStartInput(tau))
            keys = set()
            for tau in range(k):
                outs = await cluster.wait_session_outputs(
                    f"dkg-{tau}", COMPLETED_KIND, set(members), timeout=120.0
                )
                assert sorted(outs) == list(members), f"session {tau}"
                keys |= {o.public_key for o in outs.values()}
            assert cluster.collect_errors() == []
            assert len(keys) == k
            return {"endpoints": len(cluster.hosts)}

    t0 = time.perf_counter()
    info = asyncio.run(multiplexed())
    multiplexed_s = time.perf_counter() - t0
    return {
        "k": k,
        "separate_clusters_s": round(separate_s, 4),
        "separate_server_sockets": k * len(members),
        "multiplexed_s": round(multiplexed_s, 4),
        "multiplexed_server_sockets": info["endpoints"],
        "speedup": round(separate_s / multiplexed_s, 2),
    }


def run_bench(smoke: bool = False) -> dict:
    group = toy_group()
    config = DkgConfig(n=5, t=1, group=group) if not smoke else DkgConfig(
        n=4, t=1, group=group
    )
    sim_ks = [4] if smoke else [2, 4, 8, 16]
    tcp_ks = [4] if smoke else [4, 8]
    report: dict = {
        "bench": "e16_runtime",
        "mode": "smoke" if smoke else "full",
        "config": {"n": config.n, "t": config.t, "group": group.name},
        "sim": [],
        "tcp": [],
    }
    for k in sim_ks:
        row = bench_sim(config, k)
        print(f"sim  k={k}: separate {row['separate_worlds_s']}s, "
              f"multiplexed {row['multiplexed_s']}s ({row['speedup']}x)")
        report["sim"].append(row)
    for k in tcp_ks:
        row = bench_tcp(config, k)
        print(f"tcp  k={k}: {row['separate_server_sockets']} sockets / "
              f"{row['separate_clusters_s']}s separate vs "
              f"{row['multiplexed_server_sockets']} sockets / "
              f"{row['multiplexed_s']}s multiplexed ({row['speedup']}x)")
        report["tcp"].append(row)
    report["headline"] = {
        "tcp_speedup": report["tcp"][0]["speedup"],
        "socket_reduction": round(
            report["tcp"][0]["separate_server_sockets"]
            / report["tcp"][0]["multiplexed_server_sockets"],
            2,
        ),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced shapes; fail if multiplexing loses to separate clusters",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e16.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_bench(smoke=args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"headline: {report['headline']}")
    # Full runs must beat the separate-cluster layout outright; the CI
    # smoke uses a relaxed gate so shared-runner noise cannot flake it.
    target = 0.8 if args.smoke else 1.0
    if report["headline"]["tcp_speedup"] < target:
        print(
            "ACCEPTANCE MISS: multiplexed sessions slower than separate "
            f"clusters ({report['headline']['tcp_speedup']}x < {target}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
