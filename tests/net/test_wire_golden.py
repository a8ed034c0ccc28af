"""Golden wire frames: the byte-level reference for the codec.

``golden_frames.json`` holds ``wire.encode`` of every entry of
``tests.net.test_wire.build_messages`` on the toy modp group (with and
without a ``group=`` width context) and on secp256k1, inline and — for
the frames endpoints send compressed — in digest mode.  It was
written by the hand-written codec this table-driven one replaced, so a
frame that differs here is a wire-format change: recorded captures,
fuzz-corpus digests and transcript hashes would stop matching.

Only the public ``encode``/``decode`` surface is used, so the file
checks any implementation of the codec.  A new message kind appends
frames (``python -m tests.net.test_wire_golden``); existing entries
never change.

:data:`RETIRED_FRAMES` keeps, as literal bytes, the golden frames of
kinds the codec no longer speaks; to ``decode`` they are hostile bytes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.crypto.groups import group_by_name, toy_group
from repro.crypto.hashing import commitment_digest
from repro.net import wire

from tests.net.test_wire import build_messages

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_frames.json")

LANES = {
    "modp/ctx": toy_group(),
    "modp/bare": None,
    "secp256k1/ctx": group_by_name("secp256k1"),
}

# Kinds 0x3E-0x43, a multi-committee router's frames (codec version 6),
# exactly as the golden file held them before they were retired.  Their
# bytes were the same on every lane.
RETIRED_FRAMES = {
    "ShardSignRequest": "0000001f4b47063e000000000000000f0877616c6c65742d3709706179206361726f6c",
    "ShardStatusRequest": "000000154b47063f00000000000000100877616c6c65742d37",
    "FleetOpsRequest": "0000000c4b4706400000000000000011",
    "FleetOpsResponse": "000000344b4706410000000000000011277b22736368656d61223a312c226170695f76657273696f6e223a312c22666c656574223a7b7d7d",
    "ShardCtlRequest-drain": "000000154b4706420000000000000012010773686172642d31",
    "ShardCtlRequest-add": "0000000e4b47064200000000000000130000",
    "ShardCtlResponse": "000000304b4706430000000000000012237b226170695f76657273696f6e223a312c227374617465223a2272657469726564227d",
}


def golden_cases() -> dict[str, tuple]:
    """``id -> (message, group, encode kwargs)`` for every golden frame."""
    cases = {}
    for lane, context in LANES.items():
        group = context or toy_group()
        for index, message in enumerate(build_messages(group)):
            name = f"{index:02d}-{type(message).__name__}"
            kwargs = {"group": context} if context else {}
            cases[f"{lane}/inline/{name}"] = (message, group, kwargs)
            if wire.commitment_mode(message) == "digest":
                cases[f"{lane}/digest/{name}"] = (
                    message,
                    group,
                    {**kwargs, "commitments": "digest"},
                )
    return cases


CASES = golden_cases()
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def table_holding(message):
    """The receiver-side table a digest-mode frame needs."""
    commitment = getattr(message, "payload", message).commitment
    table = wire.CommitmentTable(8, 8)
    table.insert(commitment_digest(commitment), commitment)
    return table


def test_golden_file_covers_exactly_the_generated_cases() -> None:
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_encode_reproduces_golden_frame(case: str) -> None:
    message, _, kwargs = CASES[case]
    assert wire.encode(message, **kwargs).hex() == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_frame_decodes_and_re_encodes(case: str) -> None:
    message, group, kwargs = CASES[case]
    frame = bytes.fromhex(GOLDEN[case])
    table = table_holding(message) if "commitments" in kwargs else None
    decoded = wire.decode(frame, commitments=table, group=kwargs.get("group"))
    assert decoded == message
    assert wire.encode(decoded, **kwargs) == frame


@pytest.mark.parametrize("lane", LANES)
@pytest.mark.parametrize("name", RETIRED_FRAMES)
def test_retired_kind_is_rejected(name: str, lane: str) -> None:
    frame = bytes.fromhex(RETIRED_FRAMES[name])
    assert frame[7] not in wire.SCHEMA
    for table in (None, wire.CommitmentTable(8, 8)):
        with pytest.raises(wire.WireError):
            wire.decode(frame, group=LANES[lane], commitments=table)


if __name__ == "__main__":
    frames = {
        case: wire.encode(message, **kwargs).hex()
        for case, (message, _, kwargs) in sorted(CASES.items())
    }
    GOLDEN_PATH.write_text(json.dumps(frames, indent=0) + "\n")
    print(f"wrote {len(frames)} frames to {GOLDEN_PATH}")
