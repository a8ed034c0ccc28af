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
* :mod:`repro.net.cluster` — :class:`TcpWorld`, n asyncio runtime
  endpoints running stages of named protocol sessions, with
  transport-level fault injection (the §5 and §6 lifecycles run
  there when given ``world=TcpWorld``); :class:`LocalCluster`, a
  :class:`TcpWorld` running one DKG.
"""

from repro.net.cluster import (
    ClusterResult,
    LocalCluster,
    TcpWorld,
    run_local_cluster,
)
from repro.net.host import NodeHost
from repro.net.peers import PeerAddress, PeerRegistry
from repro.net.transport import AsyncioTransport, DropRetryLink, Transport
from repro.net.wire import WireError, decode, encode, encoded_size

__all__ = [
    "AsyncioTransport",
    "ClusterResult",
    "DropRetryLink",
    "LocalCluster",
    "NodeHost",
    "PeerAddress",
    "PeerRegistry",
    "TcpWorld",
    "Transport",
    "WireError",
    "decode",
    "encode",
    "encoded_size",
    "run_local_cluster",
]
