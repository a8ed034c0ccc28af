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


def golden_cases() -> dict[str, tuple]:
    """``id -> (message, group, encode kwargs)`` for every golden frame."""
    cases = {}
    lanes = [
        ("modp/ctx", toy_group(), True),
        ("modp/bare", toy_group(), False),
        ("secp256k1/ctx", group_by_name("secp256k1"), True),
    ]
    for lane, group, ctx in lanes:
        for index, message in enumerate(build_messages(group)):
            name = f"{index:02d}-{type(message).__name__}"
            kwargs = {"group": group} if ctx else {}
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


if __name__ == "__main__":
    frames = {
        case: wire.encode(message, **kwargs).hex()
        for case, (message, _, kwargs) in sorted(CASES.items())
    }
    GOLDEN_PATH.write_text(json.dumps(frames, indent=0) + "\n")
    print(f"wrote {len(frames)} frames to {GOLDEN_PATH}")
