"""The asyncio gateway: client sockets in, threshold fan-out behind.

One :class:`ServiceFrontend` owns a TCP server speaking the service
frames of :mod:`repro.service.protocol` (codec v2 on the
:mod:`repro.net.wire` framing).  Load discipline, in order:

1. **per-client backpressure** — each connection may have at most
   ``max_inflight_per_client`` requests outstanding; excess requests
   are answered immediately with ``ERR_BUSY`` instead of being
   buffered without bound;
2. **a bounded request queue** — one global queue of
   ``max_queue`` admitted requests; when it is full, new arrivals get
   ``ERR_BUSY`` (shed load early, at the cheap layer);
3. **request batching** — the dispatcher drains up to ``batch_max``
   already-queued requests at a time and groups them by kind, each
   group handed to
   :meth:`~repro.service.workers.ThresholdService.handle_batch`, which
   runs its requests concurrently.  Draining never waits: under light
   load a lone request is dispatched immediately.

Responses are written back on the requesting connection, serialized by
a per-connection lock so frames from concurrent handlers never
interleave.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.net import wire
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.service import protocol
from repro.service.workers import ThresholdService

_DEFAULT_MAX_QUEUE = 256
_DEFAULT_CLIENT_INFLIGHT = 32
_DEFAULT_BATCH_MAX = 16


@dataclass
class _ClientConn:
    """Per-connection bookkeeping: serialized writes + in-flight cap."""

    writer: asyncio.StreamWriter
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    inflight: int = 0
    closed: bool = False

    async def send(self, response: object, group) -> None:
        if self.closed:
            return
        frame = wire.encode(response, group=group)
        async with self.lock:
            if self.closed:
                return
            try:
                self.writer.write(frame)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closed = True


class ServiceFrontend:
    """Accepts client connections and drives the threshold service."""

    def __init__(
        self,
        service: ThresholdService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_queue: int = _DEFAULT_MAX_QUEUE,
        max_inflight_per_client: int = _DEFAULT_CLIENT_INFLIGHT,
        batch_max: int = _DEFAULT_BATCH_MAX,
    ):
        if max_queue < 1 or max_inflight_per_client < 1 or batch_max < 1:
            raise ValueError("frontend capacities must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.max_inflight_per_client = max_inflight_per_client
        self.batch_max = batch_max
        self.rejected_busy = 0
        self.connections_total = 0
        self.logger = get_logger("repro.service.frontend")
        self._queue: asyncio.Queue[tuple[_ClientConn, object]] = asyncio.Queue()
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._batch_tasks: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for task in list(self._batch_tasks):
            task.cancel()
        if self._batch_tasks:
            await asyncio.gather(*self._batch_tasks, return_exceptions=True)

    async def __aenter__(self) -> "ServiceFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- the accept path -------------------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_total += 1
        obs_metrics.counter_inc(
            "repro_service_connections_total",
            help="client connections accepted by the gateway",
        )
        self.logger.debug("client connected (%d total)", self.connections_total)
        client = _ClientConn(writer)
        try:
            while True:
                header = await reader.readexactly(4)
                length = int.from_bytes(header, "big")
                if length > wire.MAX_FRAME_BYTES:
                    break  # garbled stream: close rather than resync
                body = await reader.readexactly(length)
                try:
                    request = wire.decode(
                        header + body, group=self.service.group
                    )
                except wire.WireError:
                    break
                if not isinstance(request, protocol.REQUEST_TYPES):
                    await client.send(
                        protocol.ErrorResponse(
                            getattr(request, "request_id", 0),
                            protocol.ERR_BAD_REQUEST,
                            f"not a service request: {type(request).__name__}",
                        ),
                        self.service.group,
                    )
                    continue
                await self._admit(client, request)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            client.closed = True
            writer.close()
            self.logger.debug("client disconnected")

    async def _admit(self, client: _ClientConn, request) -> None:
        """Apply both backpressure layers before queueing."""
        if (
            client.inflight >= self.max_inflight_per_client
            or self._queue.qsize() >= self.max_queue
        ):
            self.rejected_busy += 1
            obs_metrics.counter_inc(
                "repro_service_busy_rejections_total",
                help="requests shed with ERR_BUSY by the gateway",
            )
            await client.send(
                protocol.ErrorResponse(
                    request.request_id, protocol.ERR_BUSY, "service saturated"
                ),
                self.service.group,
            )
            return
        client.inflight += 1
        self._queue.put_nowait((client, request))
        obs_metrics.gauge_set(
            "repro_service_queue_depth",
            self._queue.qsize(),
            help="admitted requests waiting for the dispatcher",
        )

    # -- the dispatch path -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            drained = [first]
            while len(drained) < self.batch_max and not self._queue.empty():
                drained.append(self._queue.get_nowait())
            obs_metrics.gauge_set(
                "repro_service_queue_depth",
                self._queue.qsize(),
                help="admitted requests waiting for the dispatcher",
            )
            obs_metrics.observe(
                "repro_service_batch_size",
                len(drained),
                help="requests drained per dispatch cycle",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            )
            by_kind: dict[str, list[tuple[_ClientConn, object]]] = {}
            for item in drained:
                by_kind.setdefault(item[1].kind, []).append(item)
            for batch in by_kind.values():
                task = asyncio.create_task(self._run_batch(batch))
                self._batch_tasks.add(task)
                task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: list[tuple[_ClientConn, object]]) -> None:
        responses = await self.service.handle_batch([req for _, req in batch])
        for (client, _), response in zip(batch, responses):
            client.inflight -= 1
            await client.send(response, self.service.group)
