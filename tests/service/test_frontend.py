"""End-to-end tests for the serving layer over real TCP.

These are the acceptance tests for the service subsystem: external
clients speak the v2 wire frames to the gateway across kernel sockets,
the gateway fans out to the workers, and what comes back verifies
against the group key with plain single-signer Schnorr.  Backpressure,
retired verbs and mid-run crashes are exercised at the same layer a
real client would hit them.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.crypto import schnorr
from repro.service import protocol
from repro.service.frontend import ServiceFrontend
from repro.service.loadgen import LoadGenerator, ServiceClient
from repro.service.workers import ServiceConfig, ThresholdService


def _run(coro):
    return asyncio.run(coro)


async def _stack(config: ServiceConfig, **frontend_kw):
    service = ThresholdService(config)
    await service.start()
    frontend = ServiceFrontend(service, **frontend_kw)
    await frontend.start()
    return service, frontend


async def _teardown(service, frontend, *clients) -> None:
    for client in clients:
        await client.close()
    await frontend.stop()
    await service.stop()


class TestRequestResponse:
    def test_sign_verifies_under_group_key(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=1, pool_target=2)
            )
            client = await ServiceClient.connect(frontend.host, frontend.port)
            message = b"attested by the cluster"
            response = await client.sign(message)
            assert isinstance(response, protocol.SignResponse)
            ok = schnorr.verify(
                service.group,
                service.public_key,
                message,
                schnorr.Signature(response.challenge, response.response),
            )
            await _teardown(service, frontend, client)
            return ok, response.presig_used

        ok, presig_used = _run(scenario())
        assert ok
        assert presig_used  # the pool was prefilled

    def test_status_reports_service_shape(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=5, pool_target=3)
            )
            client = await ServiceClient.connect(frontend.host, frontend.port)
            await client.sign(b"one")
            status = await client.status()
            await _teardown(service, frontend, client)
            return status, service.public_key

        status, public_key = _run(scenario())
        assert (status.n, status.t, status.alive) == (4, 1, 4)
        assert status.served >= 1
        assert status.public_key == public_key
        assert status.pool_target == 3

    def test_pipelined_requests_correlate_by_id(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=6, pool_target=8)
            )
            client = await ServiceClient.connect(frontend.host, frontend.port)
            messages = [b"m%d" % i for i in range(6)]
            responses = await asyncio.gather(
                *(client.sign(m) for m in messages)
            )
            checks = [
                schnorr.verify(
                    service.group,
                    service.public_key,
                    m,
                    schnorr.Signature(r.challenge, r.response),
                )
                for m, r in zip(messages, responses)
            ]
            await _teardown(service, frontend, client)
            return checks

        assert all(_run(scenario()))


class TestBackpressure:
    def test_inflight_cap_sheds_with_busy(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=7, pool_target=0),
                max_inflight_per_client=1,
            )
            client = await ServiceClient.connect(frontend.host, frontend.port)
            # Signs forge nonces on demand (slow), so concurrent requests
            # pile past the cap of one.
            responses = await asyncio.gather(
                *(client.sign(b"flood %d" % i) for i in range(6))
            )
            await _teardown(service, frontend, client)
            return responses

        responses = _run(scenario())
        busy = [
            r
            for r in responses
            if isinstance(r, protocol.ErrorResponse)
            and r.code == protocol.ERR_BUSY
        ]
        signed = [r for r in responses if isinstance(r, protocol.SignResponse)]
        assert busy, "cap of 1 must shed some of 6 concurrent requests"
        assert signed, "some requests must still be served"

    def test_bounded_queue_sheds_with_busy(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=8, pool_target=0),
                max_queue=1,
                max_inflight_per_client=64,
            )
            client = await ServiceClient.connect(frontend.host, frontend.port)
            responses = await asyncio.gather(
                *(client.sign(b"q %d" % i) for i in range(8))
            )
            rejected = frontend.rejected_busy
            await _teardown(service, frontend, client)
            return responses, rejected

        responses, rejected = _run(scenario())
        assert rejected > 0
        assert any(isinstance(r, protocol.SignResponse) for r in responses)

    def test_garbled_stream_closes_connection(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=9, pool_target=0)
            )
            reader, writer = await asyncio.open_connection(
                frontend.host, frontend.port
            )
            writer.write(len(b"garbage!").to_bytes(4, "big") + b"garbage!")
            await writer.drain()
            got = await reader.read(64)  # server closes on us
            writer.close()
            await _teardown(service, frontend)
            return got

        assert _run(scenario()) == b""

    def test_non_request_frame_gets_bad_request(self) -> None:
        from repro.net import wire
        from repro.dkg.messages import DkgHelpMsg

        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=10, pool_target=0)
            )
            reader, writer = await asyncio.open_connection(
                frontend.host, frontend.port
            )
            writer.write(wire.encode(DkgHelpMsg(0)))
            await writer.drain()
            header = await reader.readexactly(4)
            body = await reader.readexactly(int.from_bytes(header, "big"))
            response = wire.decode(header + body)
            writer.close()
            await _teardown(service, frontend)
            return response

        response = _run(scenario())
        assert isinstance(response, protocol.ErrorResponse)
        assert response.code == protocol.ERR_BAD_REQUEST

    @pytest.mark.parametrize(
        "verb", ["BeaconNextRequest", "DprfEvalRequest", "DecryptRequest"]
    )
    def test_retired_verb_closes_only_its_connection(self, verb: str) -> None:
        from tests.net.test_wire_golden import RETIRED_FRAMES

        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=15, pool_target=2)
            )
            client = await ServiceClient.connect(frontend.host, frontend.port)
            reader, writer = await asyncio.open_connection(
                frontend.host, frontend.port
            )

            async def send_retired() -> bytes:
                writer.write(bytes.fromhex(RETIRED_FRAMES[verb]))
                await writer.drain()
                return await reader.read(64)  # the gateway closes on us

            message = b"signed beside a retired verb"
            closed, signed = await asyncio.gather(
                send_retired(), client.sign(message)
            )
            after = await client.sign(b"and after it")
            writer.close()
            ok = [
                schnorr.verify(
                    service.group,
                    service.public_key,
                    m,
                    schnorr.Signature(r.challenge, r.response),
                )
                for m, r in ((message, signed), (b"and after it", after))
            ]
            await _teardown(service, frontend, client)
            return closed, ok

        closed, ok = _run(scenario())
        assert closed == b""
        assert ok == [True, True]


class TestCrashMidRun:
    def test_service_survives_crash_under_load(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=7, t=2, seed=13, pool_target=6)
            )
            generator = LoadGenerator(
                frontend.host,
                frontend.port,
                clients=6,
                requests_per_client=3,
                op="sign",
            )

            async def crash_soon():
                while service.served < 4:
                    await asyncio.sleep(0.001)
                service.crash_node(5)

            crasher = asyncio.create_task(crash_soon())
            report = await generator.run()
            await crasher
            alive = len(service.alive)
            await _teardown(service, frontend)
            return report, alive

        report, alive = _run(scenario())
        assert alive == 6
        assert report.completed == 18
        assert report.errors == 0
        assert report.invalid_signatures == 0

    def test_crash_below_threshold_yields_unavailable(self) -> None:
        async def scenario():
            service, frontend = await _stack(
                ServiceConfig(n=4, t=1, seed=14, pool_target=0)
            )
            client = await ServiceClient.connect(frontend.host, frontend.port)
            service.crash_node(1)
            service.crash_node(2)
            response = await client.sign(b"doomed")
            await _teardown(service, frontend, client)
            return response

        response = _run(scenario())
        assert isinstance(response, protocol.ErrorResponse)
        assert response.code in (protocol.ERR_UNAVAILABLE, protocol.ERR_FAILED)
