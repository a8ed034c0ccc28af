"""Wire-level tests for the service frames (codec versions 2/3/5).

Mirrors the :mod:`tests.net.test_wire` acceptance bar for the new
kinds: every service message round-trips, truncated/garbled frames are
rejected with :class:`~repro.net.wire.WireError`, and the version
gating holds — v1 frames still decode for the protocol kinds but are
rejected for service kinds, which did not exist in v1.
"""

from __future__ import annotations

import pytest

from repro.net import wire
from repro.service.protocol import (
    ERR_BUSY,
    ERROR_NAMES,
    BeaconGetRequest,
    BeaconNextRequest,
    BeaconResponse,
    DecryptRequest,
    DecryptResponse,
    DprfEvalRequest,
    DprfResponse,
    ErrorResponse,
    OpsRequest,
    OpsResponse,
    SignRequest,
    SignResponse,
    StatusRequest,
    StatusResponse,
)
from repro.vss.messages import HelpMsg, SessionId

MESSAGES = [
    SignRequest(1, b""),
    SignRequest(2**64 - 1, b"x" * 300),
    SignResponse(1, 0, 0, False),
    SignResponse(2, 10**30, 10**30, True),
    BeaconNextRequest(3),
    BeaconGetRequest(4, 2**63),
    BeaconResponse(4, 0, b"\x00" * 32, 1),
    DprfEvalRequest(5, b"lottery|2026"),
    DprfResponse(5, b"\xff" * 64),
    DecryptRequest(6, 2, b"\x80" * 48),
    DecryptResponse(6, b""),
    StatusRequest(7),
    StatusResponse(7, 7, 2, 7, 0, 0, 0, 0, 0, 123456, "rfc5114-1024-160"),
    ErrorResponse(8, ERR_BUSY, "service saturated"),
    ErrorResponse(9, ERR_BUSY, ""),
    OpsRequest(10),
    OpsResponse(10, b'{"schema":1,"status":{"n":7},"metrics":{}}'),
    OpsResponse(11, b""),
]

_IDS = [f"{type(m).__name__}-{i}" for i, m in enumerate(MESSAGES)]


class TestServiceRoundTrip:
    @pytest.mark.parametrize("message", MESSAGES, ids=_IDS)
    def test_decode_encode_identity(self, message) -> None:
        assert wire.decode(wire.encode(message)) == message

    def test_frames_carry_minimum_codec_version(self) -> None:
        # Unchanged service kinds stay at their v2 introduction stamp;
        # STATUS responses changed layout in v3 (name precedes key).
        # (v4 added only new kinds — envelope and groupmod frames;
        # v5 likewise the OPS observability frames, v6 the shard
        # router frames.)
        assert wire.VERSION == 6
        assert wire.encode(SignRequest(1, b"m"))[6] == 2
        status = StatusResponse(7, 7, 2, 7, 0, 0, 0, 0, 0, 1, "toy-0")
        assert wire.encode(status)[6] == 3

    def test_ops_frames_stamped_v5(self) -> None:
        assert wire.encode(OpsRequest(1))[6] == 5
        assert wire.encode(OpsResponse(1, b"{}"))[6] == 5

    def test_service_kinds_start_at_boundary(self) -> None:
        service_types = {type(m) for m in MESSAGES}
        for kind, (typ, _, _) in wire.SCHEMA.items():
            if typ in service_types:
                assert kind >= wire.SERVICE_KIND_MIN


class TestVersionGating:
    def test_service_frame_claiming_v1_rejected(self) -> None:
        frame = bytearray(wire.encode(StatusRequest(1)))
        frame[6] = 1
        with pytest.raises(wire.WireError, match="version"):
            wire.decode(bytes(frame))

    def test_legacy_kinds_stay_byte_identical_to_v1(self) -> None:
        # Rolling upgrades: protocol frames from an upgraded node must
        # still be accepted by a v1 peer, so they are stamped v1.
        message = HelpMsg(SessionId(1, 2))
        frame = wire.encode(message)
        assert frame[6] == 1
        assert wire.decode(frame) == message

    def test_unknown_version_still_rejected(self) -> None:
        frame = bytearray(wire.encode(StatusRequest(1)))
        frame[6] = wire.VERSION + 1
        with pytest.raises(wire.WireError):
            wire.decode(bytes(frame))

    def test_ops_frame_claiming_v4_rejected(self) -> None:
        # OPS kinds did not exist before v5; a frame claiming an older
        # codec with an OPS kind byte is a protocol violation.
        frame = bytearray(wire.encode(OpsRequest(1)))
        frame[6] = 4
        with pytest.raises(wire.WireError, match="version"):
            wire.decode(bytes(frame))

    def test_ec_element_frames_stamped_v3(self) -> None:
        # A frame whose fields a pre-v3 decoder would misread (compressed
        # points instead of modp residues) must claim version 3, so old
        # peers reject it at the version gate instead of decoding garbage.
        from repro.crypto.groups import group_by_name

        ec = group_by_name("secp256k1")
        beacon = BeaconResponse(4, 0, b"\x00" * 32, ec.commit(5))
        frame = wire.encode(beacon, group=ec)
        assert frame[6] == 3
        assert wire.decode(frame, group=ec) == beacon
        decrypt = DecryptRequest(6, ec.commit(9), b"\x80" * 8)
        frame = wire.encode(decrypt, group=ec)
        assert frame[6] == 3
        assert wire.decode(frame, group=ec) == decrypt

    def test_v2_status_layout_rejected(self) -> None:
        # The v3 layout moved the group name ahead of the public key; a
        # frame still claiming v2 must not be parsed with v3 field order.
        status = StatusResponse(7, 7, 2, 7, 0, 0, 0, 0, 0, 1, "toy-0")
        frame = bytearray(wire.encode(status))
        frame[6] = 2
        with pytest.raises(wire.WireError, match="version >= 3"):
            wire.decode(bytes(frame))


class TestServiceRejection:
    def _frame(self) -> bytes:
        return wire.encode(SignResponse(5, 123, 456, True))

    def test_truncation_every_prefix_rejected(self) -> None:
        data = self._frame()
        for cut in range(len(data)):
            with pytest.raises(wire.WireError):
                wire.decode(data[:cut])

    def test_trailing_garbage_rejected(self) -> None:
        with pytest.raises(wire.WireError):
            wire.decode(self._frame() + b"\x00")

    def test_bad_presig_flag_rejected(self) -> None:
        data = bytearray(self._frame())
        data[-1] = 2  # the presig_used byte is the final field
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))

    def test_unknown_error_code_rejected_both_ways(self) -> None:
        bogus = max(ERROR_NAMES) + 17
        with pytest.raises(wire.WireError):
            wire.encode(ErrorResponse(1, bogus, "x"))
        data = bytearray(wire.encode(ErrorResponse(1, ERR_BUSY, "x")))
        data[8 + 8] = bogus  # header + request id -> the code byte
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))

    def test_garbled_detail_utf8_rejected(self) -> None:
        clean = wire.encode(ErrorResponse(1, ERR_BUSY, "ok"))
        data = bytearray(clean)
        data[-2:] = b"\xff\xfe"  # invalid UTF-8 in the detail bytes
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))

    def test_status_garbled_group_name_rejected(self) -> None:
        status = StatusResponse(1, 4, 1, 4, 0, 0, 0, 0, 0, 5, "ab")
        data = bytearray(wire.encode(status))
        data[-2:] = b"\xff\xff"
        with pytest.raises(wire.WireError):
            wire.decode(bytes(data))
