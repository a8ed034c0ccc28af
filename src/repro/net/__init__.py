"""repro.net — a real network runtime for the VSS/DKG stack.

The paper is about running DKG *over the Internet*; this package makes
the reproduction's node state machines executable outside the
discrete-event simulator:

* :mod:`repro.net.wire` — a canonical, versioned binary codec that
  round-trips every protocol payload (length-prefixed frames);
* :mod:`repro.net.peers` — addressing: node index -> (host, port);
* :mod:`repro.net.transport` — the :class:`Transport` protocol the
  :class:`~repro.runtime.driver.MachineDriver` interprets effects
  against, met by the discrete-event simulator and by
  :class:`AsyncioTransport` (real TCP);
* :mod:`repro.net.host` — :class:`NodeHost`, one runtime endpoint
  (any number of protocol sessions) on a transport;
* :mod:`repro.net.cluster` — :class:`SessionCluster`, n asyncio
  runtime endpoints multiplexing named protocol sessions, and
  :class:`LocalCluster`, the one-DKG convenience on top of it, both
  with transport-level fault injection;
* :mod:`repro.net.proactive` / :mod:`repro.net.groupmod` — the §5
  share-renewal and §6 group-modification lifecycles over real
  sockets.
"""

from repro.net.cluster import (
    ClusterResult,
    LocalCluster,
    SessionCluster,
    run_local_cluster,
)
from repro.net.groupmod import GroupModClusterResult, run_groupmod_cluster
from repro.net.host import NodeHost
from repro.net.peers import PeerAddress, PeerRegistry
from repro.net.proactive import RenewalClusterResult, run_renewal_cluster
from repro.net.transport import AsyncioTransport, DropRetryLink, Transport
from repro.net.wire import WireError, decode, encode, encoded_size

__all__ = [
    "AsyncioTransport",
    "ClusterResult",
    "DropRetryLink",
    "GroupModClusterResult",
    "LocalCluster",
    "NodeHost",
    "PeerAddress",
    "PeerRegistry",
    "RenewalClusterResult",
    "SessionCluster",
    "Transport",
    "WireError",
    "decode",
    "encode",
    "encoded_size",
    "run_groupmod_cluster",
    "run_local_cluster",
    "run_renewal_cluster",
]
