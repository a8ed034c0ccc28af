"""The session envelope: how multiplexed traffic travels on the wire.

Every message of a runtime-hosted session crosses the network wrapped
in a :class:`SessionEnvelope` carrying the session id, so one
transport endpoint can interleave any number of concurrent protocol
instances (the v4 wire frame; see :mod:`repro.net.wire`).  Frames
without an envelope route to the runtime's *default* session, which is
what keeps single-protocol peers from older deployments interoperable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class SessionTimerTag(tuple):
    """A runtime-namespaced timer tag: ``(session, inner tag)``.

    :class:`~repro.runtime.runtime.ProtocolRuntime` lifts every
    session timer into its own namespace by wrapping the machine's tag
    in this marker type.  It *is* a plain 2-tuple (so machine code and
    existing tests comparing against ``(session, tag)`` keep working),
    but it is distinguishable from a machine's own tuple-shaped tag —
    e.g. the DKG's ``("dkg-timeout", view)`` — which observability and
    replay must not mistake for session namespacing.
    """

    __slots__ = ()

    def __new__(cls, session: str, tag: Any) -> "SessionTimerTag":
        return super().__new__(cls, (session, tag))

    @property
    def session(self) -> str:
        return self[0]

    @property
    def tag(self) -> Any:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SessionTimerTag({self[0]!r}, {self[1]!r})"


@dataclass(frozen=True)
class SessionEnvelope:
    """``payload`` addressed to protocol session ``session``."""

    session: str
    payload: Any

    kind = "runtime.envelope"
