"""A concurrent load generator for the serving layer (``repro loadgen``).

:class:`ServiceClient` is a minimal pipelining client: requests carry
client-chosen correlation ids, a single reader task matches responses
back to awaiting futures, so one connection can have many requests in
flight.  :class:`LoadGenerator` opens ``clients`` such connections and
drives a closed loop on each (issue, await, repeat), measuring
per-request wall latency; the report carries p50/p99, throughput and
the busy-rejection count — the numbers the E13 benchmark and the CI
smoke step read off.

Signatures are verified client-side against the service's STATUS
response (group + public key): a threshold signature is just a Schnorr
signature, so the client needs nothing but the group parameters.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field

from repro.analysis import percentile
from repro.crypto import schnorr
from repro.crypto.groups import group_by_name
from repro.net import wire
from repro.service import protocol

_CONNECT_ATTEMPTS = 40
_CONNECT_BACKOFF_S = 0.25
_BUSY_RETRIES = 50
_BUSY_BACKOFF_S = 0.05

OPS = ("sign", "status")


class ServiceClient:
    """One pipelined client connection to a service frontend."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        group=None,
    ):
        self._reader = reader
        self._writer = writer
        # Element-decoding context for responses; STATUS responses are
        # self-describing, so the first status round-trip can bootstrap
        # this from None.
        self.group = group
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        group=None,
        attempts: int = _CONNECT_ATTEMPTS,
        backoff: float = _CONNECT_BACKOFF_S,
    ) -> "ServiceClient":
        """Dial the frontend, retrying while the service boots."""
        last: Exception = ConnectionError(f"no route to {host}:{port}")
        for attempt in range(attempts):
            try:
                reader, writer = await asyncio.open_connection(host, port)
                return cls(reader, writer, group=group)
            except (ConnectionError, OSError) as exc:
                last = exc
                await asyncio.sleep(backoff * min(attempt + 1, 4))
        raise ConnectionError(f"service at {host}:{port} unreachable: {last}")

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(4)
                body = await self._reader.readexactly(
                    int.from_bytes(header, "big")
                )
                response = wire.decode(header + body, group=self.group)
                future = self._pending.pop(response.request_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            wire.WireError,
        ) as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(f"stream lost: {exc}"))
            self._pending.clear()
        except asyncio.CancelledError:
            pass

    async def request(self, build) -> object:
        """Send ``build(request_id)`` and await the matching response."""
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(wire.encode(build(request_id), group=self.group))
        await self._writer.drain()
        return await future

    # -- typed conveniences ----------------------------------------------------

    async def sign(self, message: bytes) -> object:
        return await self.request(lambda rid: protocol.SignRequest(rid, message))

    async def status(self) -> protocol.StatusResponse:
        response = await self.request(protocol.StatusRequest)
        if not isinstance(response, protocol.StatusResponse):
            raise RuntimeError(f"status failed: {response}")
        return response

    async def ops(self) -> dict:
        """Fetch the server's live observability snapshot (codec v5)."""
        response = await self.request(protocol.OpsRequest)
        if not isinstance(response, protocol.OpsResponse):
            raise RuntimeError(f"ops failed: {response}")
        return json.loads(response.snapshot.decode())


@dataclass
class LoadReport:
    """Aggregated outcome of one load-generation run."""

    clients: int
    completed: int = 0
    presig_hits: int = 0
    errors: int = 0
    busy_rejections: int = 0
    invalid_signatures: int = 0
    wall_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    # The server's OPS snapshot (schema/status/metrics), when the
    # frontend speaks codec v5; None against older servers.
    server_snapshot: dict | None = None

    def _percentile(self, fraction: float) -> float:
        if not self.latencies:
            return 0.0
        return percentile(sorted(self.latencies), fraction)

    @property
    def p50_ms(self) -> float:
        return self._percentile(0.50) * 1000

    @property
    def p99_ms(self) -> float:
        return self._percentile(0.99) * 1000

    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def as_dict(self) -> dict:
        report = {
            "clients": self.clients,
            "completed": self.completed,
            "presig_hits": self.presig_hits,
            "errors": self.errors,
            "busy_rejections": self.busy_rejections,
            "invalid_signatures": self.invalid_signatures,
            "wall_seconds": round(self.wall_seconds, 4),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "throughput_rps": round(self.throughput, 2),
        }
        if self.server_snapshot is not None:
            report["server"] = self.server_snapshot
        return report


class LoadGenerator:
    """Closed-loop concurrent clients against one service frontend."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        clients: int = 8,
        requests_per_client: int = 10,
        op: str = "sign",
        payload_bytes: int = 16,
        expect_backend: str | None = None,
    ):
        if op not in OPS:
            raise ValueError(f"unknown op {op!r} (choose from {OPS})")
        self.host = host
        self.port = port
        self.clients = clients
        self.requests_per_client = requests_per_client
        self.op = op
        self.payload_bytes = payload_bytes
        self.expect_backend = expect_backend
        self._group = None
        self._public_key = 0

    async def run(self) -> LoadReport:
        report = LoadReport(clients=self.clients)
        probe = await ServiceClient.connect(self.host, self.port)
        try:
            status = await probe.status()
            self._public_key = status.public_key
            try:
                self._group = group_by_name(status.group_name)
            except KeyError:
                pass  # custom parameters: signatures go unverified
        finally:
            await probe.close()
        if self.expect_backend is not None:
            actual = (
                "secp256k1" if status.group_name == "secp256k1" else "modp"
            )
            if actual != self.expect_backend:
                raise RuntimeError(
                    f"service runs the {actual} backend "
                    f"({status.group_name!r}), expected {self.expect_backend}"
                )
        connections = await asyncio.gather(
            *(
                ServiceClient.connect(self.host, self.port, group=self._group)
                for _ in range(self.clients)
            )
        )
        start = time.perf_counter()
        try:
            await asyncio.gather(
                *(
                    self._drive(client_id, connection, report)
                    for client_id, connection in enumerate(connections)
                )
            )
        finally:
            report.wall_seconds = time.perf_counter() - start
            await asyncio.gather(
                *(connection.close() for connection in connections)
            )
        # Merge the server's view: client percentiles are half the
        # story; the OPS snapshot adds pool depth, refill lag and
        # server-side per-kind latency.  Older servers (codec < 5)
        # break the connection on the unknown frame — tolerate that.
        try:
            probe = await ServiceClient.connect(
                self.host, self.port, group=self._group, attempts=2
            )
            try:
                report.server_snapshot = await probe.ops()
            finally:
                await probe.close()
        except Exception:
            report.server_snapshot = None
        return report

    async def _drive(
        self, client_id: int, client: ServiceClient, report: LoadReport
    ) -> None:
        for sequence in range(self.requests_per_client):
            started = time.perf_counter()
            try:
                response = await self._issue(client, client_id, sequence, report)
            except (ConnectionError, RuntimeError):
                report.errors += 1
                continue
            elapsed = time.perf_counter() - started
            if isinstance(response, protocol.ErrorResponse):
                report.errors += 1
                continue
            report.completed += 1
            report.latencies.append(elapsed)
            if isinstance(response, protocol.SignResponse):
                if response.presig_used:
                    report.presig_hits += 1
                if not self._verify(
                    client_id, sequence, response
                ):  # pragma: no cover - would flag a service bug
                    report.invalid_signatures += 1

    def _payload(self, client_id: int, sequence: int) -> bytes:
        seedline = f"load|{client_id}|{sequence}|".encode()
        return (seedline * (self.payload_bytes // len(seedline) + 1))[
            : self.payload_bytes
        ]

    def _verify(
        self, client_id: int, sequence: int, response: protocol.SignResponse
    ) -> bool:
        if self._group is None:
            return True
        return schnorr.verify(
            self._group,
            self._public_key,
            self._payload(client_id, sequence),
            schnorr.Signature(response.challenge, response.response),
        )

    async def _issue(
        self,
        client: ServiceClient,
        client_id: int,
        sequence: int,
        report: LoadReport,
    ) -> object:
        for attempt in range(_BUSY_RETRIES):
            response = await self._issue_once(client, client_id, sequence)
            if (
                isinstance(response, protocol.ErrorResponse)
                and response.code == protocol.ERR_BUSY
            ):
                # Backpressure: the polite client backs off and retries.
                report.busy_rejections += 1
                await asyncio.sleep(_BUSY_BACKOFF_S * (attempt + 1))
                continue
            return response
        return response

    async def _issue_once(
        self, client: ServiceClient, client_id: int, sequence: int
    ) -> object:
        if self.op == "sign":
            return await client.sign(self._payload(client_id, sequence))
        return await client.status()


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 7710,
    *,
    clients: int = 8,
    requests_per_client: int = 10,
    op: str = "sign",
    payload_bytes: int = 16,
    expect_backend: str | None = None,
) -> LoadReport:
    """Synchronous convenience wrapper around :class:`LoadGenerator`."""
    generator = LoadGenerator(
        host,
        port,
        clients=clients,
        requests_per_client=requests_per_client,
        op=op,
        payload_bytes=payload_bytes,
        expect_backend=expect_backend,
    )
    return asyncio.run(generator.run())
