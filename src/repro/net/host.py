"""NodeHost: one runtime endpoint living on an asyncio transport.

A host binds a :class:`~repro.runtime.runtime.ProtocolRuntime` to an
:class:`~repro.net.transport.AsyncioTransport` through the shared
:class:`~repro.runtime.driver.MachineDriver`: inbound frames become
``MessageReceived`` events, expiring loop timers ``TimerFired``,
operator inputs ``OperatorInput`` — and the effects each ``step``
returns are interpreted against the transport.  Any number of
concurrent protocol sessions (VSS, DKG, renewal phases, group
modification) share the host's single server socket and connection
set, each addressed by the session envelope its frames travel in.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.net.transport import AsyncioTransport
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.runtime.driver import MachineDriver
from repro.runtime.envelope import SessionEnvelope
from repro.runtime.runtime import ProtocolRuntime
from repro.sim.node import OutputRecord, ProtocolNode


def _discard(*_args: Any) -> None:
    """Dispatch hook of a stopped endpoint."""


class NodeHost:
    """Drives one runtime (one or many sessions) over one endpoint."""

    def __init__(self, runtime: ProtocolRuntime, transport: AsyncioTransport):
        if runtime.node_id != transport.node_id:
            raise ValueError("runtime and transport disagree on the index")
        self.runtime = runtime
        self.transport = transport
        self.logger = get_logger("repro.net.host", node=transport.node_id)
        self.driver = MachineDriver(self.runtime, transport, transport.node_id)
        transport.on_message = self.driver.handle_message
        transport.on_timer = self._on_timer

    # -- plumbing ------------------------------------------------------------

    def _on_timer(self, tag: Any, backend_id: int) -> None:
        self.driver.handle_timer(backend_id, tag)

    # -- session management --------------------------------------------------

    def open_session(self, session: str, node: ProtocolNode) -> None:
        """Multiplex another protocol instance onto this endpoint."""
        self.runtime.open_session(session, node)
        obs_trace.record_open(
            self.transport.node_id,
            session,
            self.transport.members,
            self.driver.trace_sink,
        )
        self.logger.bind(session=session).debug("session opened")

    def close_session(self, session: str) -> None:
        self.runtime.close_session(session)
        self.logger.bind(session=session).debug("session closed")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await self.transport.start()

    async def stop(self) -> None:
        await self.transport.stop()
        # End of deployment: nothing is delivered any more, so take the
        # hooks installed in __init__ back out.  They are what ties host,
        # driver and transport into a cycle that would keep a finished
        # DKG's state alive until the next full garbage collection.
        self.transport.on_message = self.transport.on_timer = _discard

    def crash(self) -> None:
        """Transport links down + every session's crash hook (§2.2)."""
        self.transport.crash()
        self.logger.info("crashed: links down, in-flight frames lost")
        self.driver.handle_crash()

    async def recover(self) -> None:
        """Restart the endpoint, then let every session run its
        recovery (help requests + B-log replay) over revived links."""
        await self.transport.recover()
        self.logger.info("recovered: endpoint re-listening")
        self.driver.handle_recover()

    # -- operator surface ----------------------------------------------------

    def inject(self, payload: Any, *, session: str) -> bool:
        """Deliver an operator ``in`` message to ``session``; returns
        False (and logs) when the endpoint is crashed and the input was
        dropped."""
        if self.transport.crashed:
            self.logger.bind(session=session).warning(
                "operator input %r dropped (endpoint crashed)",
                getattr(payload, "kind", type(payload).__name__),
            )
            return False
        self.driver.handle_operator(SessionEnvelope(session, payload))
        return True

    @property
    def outputs(self) -> list[OutputRecord]:
        return self.transport.outputs

    def outputs_of_kind(
        self, kind: str, session: str | None = None
    ) -> list[OutputRecord]:
        records = self.outputs
        if session is not None:
            allowed = {
                id(p) for p in self.runtime.session_outputs.get(session, [])
            }
            records = [o for o in records if id(o.payload) in allowed]
        return [
            o for o in records if getattr(o.payload, "kind", None) == kind
        ]

    async def wait_for_output(
        self,
        kind: str,
        timeout: float | None = None,
        *,
        session: str | None = None,
    ) -> Any:
        """Block until an output of ``kind`` appears (optionally within
        ``session``); returns it.  ``timeout`` is wall-clock seconds;
        ``asyncio.TimeoutError`` is raised on expiry.
        """

        async def _wait() -> Any:
            while True:
                found = self.outputs_of_kind(kind, session=session)
                if found:
                    return found[0].payload
                event = self.transport.output_event
                assert event is not None, "host not started"
                event.clear()
                await event.wait()

        return await asyncio.wait_for(_wait(), timeout)
