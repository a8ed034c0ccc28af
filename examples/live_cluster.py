"""Live cluster demo: the same DKG, simulated and over real TCP.

The paper's title is "Distributed Key Generation for the *Internet*";
this example runs one DKG session twice — once inside the
discrete-event simulator and once across n real asyncio TCP endpoints
on localhost, every message serialized through the binary wire codec —
and shows both produce an agreed group public key, then rides the real
cluster through a crash fault.

Run::

    PYTHONPATH=src python examples/live_cluster.py
"""

from __future__ import annotations

from repro.crypto.groups import toy_group
from repro.dkg import DkgConfig, run_dkg
from repro.net import run_local_cluster

N, T, F, SEED = 6, 1, 1, 7


def main() -> None:
    config = DkgConfig(n=N, t=T, f=F, group=toy_group())

    print(f"== DKG n={N} t={T} f={F}: simulator vs. real sockets ==\n")

    sim = run_dkg(config, seed=SEED)
    assert sim.succeeded
    print("simulated run:")
    print(f"  completed nodes : {sim.completed_nodes}")
    print(f"  agreed Q        : {sim.q_set}")
    print(f"  public key      : {hex(sim.public_key)}")
    print(f"  messages / bytes: {sim.metrics.messages_total} / "
          f"{sim.metrics.bytes_total}")

    real = run_local_cluster(config, seed=SEED, time_scale=0.01)
    assert real.succeeded, real.errors
    print("\nreal asyncio TCP run (localhost):")
    print(f"  completed nodes : {real.completed_nodes}")
    print(f"  agreed Q        : {real.q_set}")
    print(f"  public key      : {hex(real.public_key)}")
    print(f"  messages / bytes: {real.metrics.messages_total} / "
          f"{real.metrics.bytes_total}")
    print(f"  wall clock      : {real.wall_seconds * 1000:.1f} ms")

    # Same deployment, but node N crashes two time units in (f=1
    # budget): the remaining nodes must still reach agreement.
    crashed = run_local_cluster(
        config, seed=SEED, time_scale=0.01, crash_plan=[(2.0, N, None)]
    )
    assert crashed.succeeded, crashed.errors
    print(f"\nreal run with node {N} crashing at t=2:")
    print(f"  completed nodes : {crashed.completed_nodes}")
    print(f"  agreed Q        : {crashed.q_set}")
    print(f"  public key      : {hex(crashed.public_key)}")
    print("\nBoth transports drive the identical node state machines; "
          "only the wiring differs.")


if __name__ == "__main__":
    main()
