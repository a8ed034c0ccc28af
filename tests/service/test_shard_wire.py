"""Codec v6: shard-router frame roundtrips, version stamping, gates."""

import pytest

from repro.net import wire
from repro.service.shard import api


ROUNDTRIP_CASES = [
    api.ShardSignRequest(7, b"user-17", b"hello world"),
    api.ShardSignRequest(1, b"\x00" * 32, b""),
    api.ShardStatusRequest(9, b"user-17"),
    api.FleetOpsRequest(3),
    api.FleetOpsResponse(3, b'{"schema":1,"fleet":{}}'),
    api.ShardCtlRequest(5, "add", ""),
    api.ShardCtlRequest(6, "drain", "shard-2"),
    api.ShardCtlRequest(7, "status", ""),
    api.ShardCtlResponse(8, b'{"api_version":1}'),
]


@pytest.mark.parametrize("message", ROUNDTRIP_CASES, ids=lambda m: m.kind)
def test_roundtrip(message):
    assert wire.decode(wire.encode(message)) == message


@pytest.mark.parametrize("message", ROUNDTRIP_CASES, ids=lambda m: m.kind)
def test_stamped_version_6(message):
    frame = wire.encode(message)
    assert frame[6] == 6


def test_version_constants():
    assert wire.VERSION == 6
    assert 6 in wire.SUPPORTED_VERSIONS
    # The v6 kinds are one contiguous range, colliding with no earlier
    # kind assignment.
    v6_kinds = {kind for kind, (_, since, _) in wire.SCHEMA.items() if since == 6}
    assert v6_kinds == set(range(0x3E, 0x44))


@pytest.mark.parametrize("claimed", [2, 3, 4, 5])
def test_downgraded_frames_rejected(claimed):
    frame = bytearray(wire.encode(api.ShardSignRequest(1, b"k", b"m")))
    frame[6] = claimed
    with pytest.raises(wire.WireError, match="requires codec version >= 6"):
        wire.decode(bytes(frame))


def test_unknown_shardctl_op_rejected_on_encode():
    with pytest.raises(wire.WireError, match="unknown shardctl op"):
        wire.encode(api.ShardCtlRequest(1, "explode", ""))


def test_unknown_shardctl_op_index_rejected_on_decode():
    frame = bytearray(wire.encode(api.ShardCtlRequest(1, "status", "")))
    # The op index is the byte right after the 8-byte correlation id.
    frame[wire.HEADER_BYTES + wire.REQUEST_ID_BYTES] = 0xFF
    with pytest.raises(wire.WireError, match="unknown shardctl op index"):
        wire.decode(bytes(frame))


def test_garbled_shard_id_rejected():
    frame = bytearray(wire.encode(api.ShardCtlRequest(1, "drain", "ab")))
    frame[-1] = 0xFF  # invalid UTF-8 continuation in the shard id
    with pytest.raises(wire.WireError, match="garbled shard id"):
        wire.decode(bytes(frame))


def test_trailing_bytes_rejected():
    frame = wire.encode(api.FleetOpsRequest(1))
    grown = (
        (len(frame) - 4 + 1).to_bytes(4, "big") + frame[4:] + b"\x00"
    )
    with pytest.raises(wire.WireError):
        wire.decode(grown)


def test_shardctl_ops_wire_order_is_append_only():
    # The u8 op encoding indexes this tuple; reordering it would flip
    # the meaning of frames already in flight.
    assert api.SHARDCTL_OPS[:3] == ("add", "drain", "status")


def test_router_type_tuples():
    assert set(api.ROUTER_REQUEST_TYPES) == {
        api.ShardSignRequest,
        api.ShardStatusRequest,
        api.FleetOpsRequest,
        api.ShardCtlRequest,
    }
    for response_type in api.ROUTER_RESPONSE_TYPES:
        assert hasattr(response_type, "kind")
