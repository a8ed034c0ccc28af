"""Peer addressing: node index -> (host, port).

The paper's system model (§2.3) gives every node a unique index bound
to its identity by the PKI; the network layer additionally needs a
routable address per index.  A :class:`PeerRegistry` is that map.  For
a :class:`~repro.net.cluster.LocalCluster` the registry is filled in as
each host binds an ephemeral localhost port; a real deployment would
load it from configuration instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PeerAddress:
    """Where a node's transport endpoint listens."""

    node_id: int
    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"P{self.node_id}@{self.host}:{self.port}"


class PeerRegistry:
    """Mutable index -> address map shared by a deployment's transports.

    Registration may happen after construction (ephemeral ports are
    only known once servers bind), so lookups raise :class:`KeyError`
    until the peer has registered.
    """

    def __init__(self, addresses: dict[int, PeerAddress] | None = None):
        self._addresses: dict[int, PeerAddress] = dict(addresses or {})

    @classmethod
    def static(cls, host: str, ports: dict[int, int]) -> "PeerRegistry":
        """A fully specified registry (e.g. from a config file)."""
        return cls(
            {i: PeerAddress(i, host, port) for i, port in ports.items()}
        )

    def register(self, node_id: int, host: str, port: int) -> PeerAddress:
        address = PeerAddress(node_id, host, port)
        self._addresses[node_id] = address
        return address

    def address_of(self, node_id: int) -> PeerAddress:
        try:
            return self._addresses[node_id]
        except KeyError:
            raise KeyError(f"no registered address for node {node_id}") from None

    def knows(self, node_id: int) -> bool:
        return node_id in self._addresses

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self):
        return iter(sorted(self._addresses))

    def member_ids(self) -> list[int]:
        return sorted(self._addresses)
