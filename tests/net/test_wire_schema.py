"""Tests generated from ``wire.SCHEMA``, and the codec's trust boundary.

Nothing here lists message kinds or byte offsets by hand.  Round trips
come from walking the table; the hostile-decode sweep replays every
golden frame through a recording reader, which reports where the
table-driven decoder read a count, a length, a tag, an enum or a group
element, and then lies in each of those places.  The one property: the
only exception ``wire.decode`` ever raises is :class:`wire.WireError`
(:class:`wire.UnresolvedDigest` is a subclass).
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.crypto import groups
from repro.crypto.feldman import FeldmanCommitment
from repro.crypto.groups import SchnorrGroup, group_by_name, toy_group
from repro.groupmod.messages import ModProposal, ProposalMsg
from repro.net import wire
from repro.runtime.envelope import SessionEnvelope
from repro.service.protocol import StatusResponse
from repro.vss.messages import EchoMsg, HelpMsg, SessionId

from tests.net.test_wire import build_messages
from tests.net.test_wire_golden import CASES, GOLDEN, table_holding

GROUPS = {"modp": toy_group(), "secp256k1": group_by_name("secp256k1")}
SAMPLES = {name: build_messages(group) for name, group in GROUPS.items()}
REGISTERED = {typ for typ, _, _ in wire.SCHEMA.values()}
KIND_IDS = [f"0x{kind:02x}-{wire.SCHEMA[kind][0].__name__}" for kind in wire.SCHEMA]


def uvarint(n: int) -> bytes:
    w = wire._Writer(None, "inline")
    w.uvarint(n)
    return bytes(w.buf)


class TestTable:
    @pytest.mark.parametrize("kind", wire.SCHEMA, ids=KIND_IDS)
    def test_row_names_exactly_the_dataclass_fields(self, kind: int) -> None:
        typ, since, fields = wire.SCHEMA[kind]
        declared = {f.name for f in dataclasses.fields(typ)} - {"size"}
        assert len(fields) == len(declared)
        assert {attr for attr, _ in fields} == declared
        assert 1 <= since <= wire.VERSION

    def test_version_is_the_newest_since(self) -> None:
        assert wire.VERSION == max(since for _, since, _ in wire.SCHEMA.values())

    def test_one_kind_per_type(self) -> None:
        assert len(REGISTERED) == len(wire.SCHEMA)

    def test_no_kind_reuses_a_retired_one(self) -> None:
        for first, last, since, _ in wire.RETIRED_KINDS:
            assert not [kind for kind in wire.SCHEMA if first <= kind <= last]
            assert 1 <= since < wire.VERSION

    @pytest.mark.parametrize("backend", GROUPS)
    @pytest.mark.parametrize("kind", wire.SCHEMA, ids=KIND_IDS)
    def test_round_trip(self, kind: int, backend: str) -> None:
        typ, since, _ = wire.SCHEMA[kind]
        group = GROUPS[backend]
        samples = [m for m in SAMPLES[backend] if type(m) is typ]
        assert samples, f"build_messages() has no {typ.__name__}"
        for message in samples:
            frame = wire.encode(message, group=group)
            assert frame[7] == kind
            # Stamped with the kind's own version; only a non-modp group
            # shaping the frame may raise that, and only to 3.
            assert frame[6] in (since, max(since, 3))
            if backend == "modp":
                assert frame[6] == since
            assert wire.decode(frame, group=group) == message
            predated = frame[:6] + bytes([since - 1]) + frame[7:]
            with pytest.raises(wire.WireError, match="version"):
                wire.decode(predated, group=group)

    @pytest.mark.parametrize("kind", wire.SCHEMA, ids=KIND_IDS)
    def test_decode_accepts_only_a_version_encode_stamps(self, kind: int) -> None:
        # since, or 3 for a frame a non-modp group shaped: no other byte.
        typ, since, _ = wire.SCHEMA[kind]
        group = GROUPS["modp"]
        message = next(m for m in SAMPLES["modp"] if type(m) is typ)
        frame = wire.encode(message, group=group)
        for version in range(256):
            claimed = frame[:6] + bytes([version]) + frame[7:]
            if version in (since, max(since, 3)):
                assert wire.decode(claimed, group=group) == message
            else:
                with pytest.raises(wire.WireError, match="version"):
                    wire.decode(claimed, group=group)


# -- hostile decode ------------------------------------------------------------


class RecordingReader(wire._Reader):
    """Reports every structural read of one decode as
    ``(frame_start, start, end, role, detail)``, offsets absolute."""

    marks: list[tuple] = []
    total = 0

    @property
    def base(self) -> int:
        # An embedded frame runs to the end of its envelope, so any
        # reader's body ends where the whole frame does.
        return self.total - len(self.data)

    def _mark(self, start: int, role: str, detail) -> None:
        frame_start = self.base - wire.HEADER_BYTES
        self.marks.append(
            (frame_start, self.base + start, self.base + self.pos, role, detail)
        )

    def choice(self, valid, what):
        start = self.pos
        try:
            return super().choice(valid, what)
        finally:
            self._mark(start, "byte", max(valid) + 1)

    def uvarint(self):
        start = self.pos
        value = super().uvarint()
        self._mark(start, "uvarint", value + 1)
        return value

    def count(self, limit, what):
        start = self.pos
        value = super().count(limit, what)
        self._mark(start, "uvarint", limit + 1)
        return value

    def _decode_element(self, group, raw):
        # Fixed-width commitment entries and loose elements both end here.
        self._mark(self.pos - len(raw), "element", group)
        return super()._decode_element(group, raw)


def structural_reads(frame: bytes, **kwargs) -> list[tuple]:
    RecordingReader.marks = []
    RecordingReader.total = len(frame)
    original = wire._Reader
    wire._Reader = RecordingReader
    try:
        wire.decode(frame, **kwargs)
    finally:
        wire._Reader = original
    return RecordingReader.marks


def bad_elements(group) -> list[bytes]:
    """Encodings of the right width that are not group elements."""
    width = group.element_bytes
    if isinstance(group, SchnorrGroup):
        # Zero, an element of order 2 (outside the order-q subgroup)
        # and a residue >= p.
        return [bytes(width), (group.p - 1).to_bytes(width, "big"), b"\xff" * width]
    off_curve = next(
        raw
        for raw in (b"\x02" + x.to_bytes(32, "big") for x in range(1, 64))
        if not _decodes(group, raw)
    )
    return [off_curve, b"\x04" + bytes(32), b"\x02" + b"\xff" * 32, bytes(width)]


def _decodes(group, raw: bytes) -> bool:
    try:
        group.element_decode(raw)
    except ValueError:
        return False
    return True


def splice(frame: bytes, mark: tuple, replacement: bytes) -> bytes:
    """``frame`` with one read's bytes replaced and every enclosing
    length prefix corrected, so only the lie itself is wrong."""
    frame_start, start, end = mark[:3]
    out = bytearray(frame[:start] + replacement + frame[end:])
    for prefix in {0, frame_start}:
        length = int.from_bytes(frame[prefix : prefix + 4], "big")
        length += len(replacement) - (end - start)
        out[prefix : prefix + 4] = length.to_bytes(4, "big")
    return bytes(out)


def lies(frame: bytes, marks: list[tuple]):
    for cut in range(4, len(frame)):
        body = frame[4:cut]
        yield len(body).to_bytes(4, "big") + body
    for mark in marks:
        role, detail = mark[3:]
        if role == "byte":
            replacements = [b"\x00", b"\xff", bytes([min(detail, 0xFF)])]
        elif role == "uvarint":
            replacements = [b"\x00", b"\xff", uvarint(detail), uvarint(2**62)]
        else:
            replacements = bad_elements(detail)
        for replacement in replacements:
            yield splice(frame, mark, replacement)


def test_recorder_locates_every_kind_of_structural_read() -> None:
    case = "secp256k1/ctx/inline/25-DkgCompletedOutput"
    frame = bytes.fromhex(GOLDEN[case])
    marks = structural_reads(frame, group=GROUPS["secp256k1"])
    assert {role for *_, role, _ in marks} == {"byte", "uvarint", "element"}
    # q_set count, group tag + name length, side + 9 entries, share
    # width, public key length + the key itself.
    assert len([m for m in marks if m[3] == "element"]) == 10
    assert all(frame != splice(frame, m, b"\xff") for m in marks)


@pytest.mark.parametrize("lane", ["modp/bare", "modp/ctx", "secp256k1/ctx"])
def test_recorder_marks_every_top_level_uvarint(lane: str) -> None:
    # A UVARINT field read straight off the table, not from inside
    # another reader method, is a structural read too.
    fields = wire.SCHEMA[0x3A][2]
    counters = [attr for attr, field in fields if field is wire.UVARINT]
    assert counters == ["pool_ready", "pool_target", "served", "failed"]
    case = f"{lane}/inline/54-StatusResponse"
    _, _, kwargs = CASES[case]
    marks = structural_reads(bytes.fromhex(GOLDEN[case]), group=kwargs.get("group"))
    # After the request id and the n, t, alive counts; one byte each.
    first = wire.HEADER_BYTES + wire.REQUEST_ID_BYTES + 3 * wire.INDEX_BYTES
    uvarints = [(start, end) for _, start, end, role, _ in marks if role == "uvarint"]
    assert uvarints[:4] == [(first + k, first + k + 1) for k in range(4)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_hostile_decode_raises_only_wire_error(case: str) -> None:
    message, _, kwargs = CASES[case]
    frame = bytes.fromhex(GOLDEN[case])
    decode_kwargs = {"group": kwargs.get("group")}
    if "commitments" in kwargs:
        decode_kwargs["commitments"] = table_holding(message)
    marks = structural_reads(frame, **decode_kwargs)
    attempts = [decode_kwargs, {}]
    if "commitments" not in kwargs:
        # Also against a table that has already decoded the honest frame.
        warm = {**decode_kwargs, "commitments": wire.CommitmentTable(64, 64)}
        wire.decode(frame, **warm)
        attempts.append(warm)
    for hostile in lies(frame, marks):
        for attempt in attempts:
            try:
                decoded = wire.decode(hostile, **attempt)
            except wire.WireError:
                continue
            assert type(decoded) in REGISTERED


# -- the trust boundary: regressions -------------------------------------------


def nested_envelopes(depth: int) -> bytes:
    frame = wire.encode(HelpMsg(SessionId(1, 2)))
    for _ in range(depth):
        body = b"KG" + bytes([4, wire.ENVELOPE_KIND]) + b"\x01s" + frame
        frame = len(body).to_bytes(4, "big") + body
    return frame


class TestEnvelopesDoNotNest:
    def test_one_level_decodes(self) -> None:
        inner = HelpMsg(SessionId(1, 2))
        assert wire.decode(nested_envelopes(1)) == SessionEnvelope("s", inner)

    def test_3000_deep_frame_is_a_wire_error_not_a_recursion_error(self) -> None:
        frame = nested_envelopes(3000)
        assert len(frame) < 40_000
        started = time.perf_counter()
        with pytest.raises(wire.WireError, match="do not nest"):
            wire.decode(frame)
        assert time.perf_counter() - started < 0.1

    def test_two_levels_rejected_both_ways(self) -> None:
        with pytest.raises(wire.WireError, match="do not nest"):
            wire.decode(nested_envelopes(2))
        nested = SessionEnvelope("a", SessionEnvelope("b", HelpMsg(SessionId(1, 2))))
        with pytest.raises(wire.WireError, match="do not nest"):
            wire.encode(nested)
        assert wire.commitment_mode(nested) == "inline"


def renamed(frame: bytes, old: bytes, new: bytes) -> bytes:
    """``frame`` with a length-prefixed name swapped, re-framed."""
    assert frame.count(bytes([len(old)]) + old) == 1
    body = frame[4:].replace(bytes([len(old)]) + old, bytes([len(new)]) + new)
    return len(body).to_bytes(4, "big") + body


class TestDecodeNeverGeneratesGroups:
    SEND = bytes.fromhex(GOLDEN["modp/bare/inline/00-SendMsg"])

    @pytest.mark.parametrize("family", ["large", "medium"])
    def test_unbuilt_seeded_group_is_rejected_at_once(self, family: str) -> None:
        name = f"{family}-987654321"  # a seed nothing else builds
        assert groups.known_group(name) is None
        frame = renamed(self.SEND, b"toy-0", name.encode())
        started = time.perf_counter()
        with pytest.raises(wire.WireError, match="unknown group name"):
            wire.decode(frame)
        with pytest.raises(wire.WireError, match="unknown group name"):
            wire.decode(frame, group=toy_group())
        assert time.perf_counter() - started < 0.1
        assert groups.known_group(name) is None

    def test_status_naming_an_unbuilt_group_reads_the_key_raw(self) -> None:
        status = StatusResponse(1, 4, 1, 4, 0, 0, 0, 0, 5, "toy-0")
        frame = renamed(wire.encode(status), b"toy-0", b"large-987654321")
        started = time.perf_counter()
        decoded = wire.decode(frame)
        assert time.perf_counter() - started < 0.1
        assert decoded.group_name == "large-987654321"
        assert decoded.public_key == 5

    def test_a_name_resolves_to_the_group_context(self, monkeypatch) -> None:
        # A process that holds the deployment's group object without
        # having generated it (unpickled, say) still reads its frames.
        toy = toy_group()
        monkeypatch.setattr(groups, "_built", {})
        with pytest.raises(wire.WireError, match="unknown group name"):
            wire.decode(self.SEND)
        assert wire.decode(self.SEND, group=toy).commitment.group is toy

    def test_fixed_parameter_names_always_resolve(self, monkeypatch) -> None:
        monkeypatch.setattr(groups, "_built", {})
        for name in ("rfc5114-1024-160", "rfc5114-2048-256", "secp256k1"):
            assert groups.known_group(name) == group_by_name(name)

    def test_trusted_resolver_reads_self_reported_names(self) -> None:
        assert group_by_name("toy-3") is toy_group(3)
        assert groups.known_group("toy-3") is toy_group(3)
        for name in ("toy-", "toy-x", "toy-²", "nonesuch-1", "custom"):
            with pytest.raises(KeyError):
                group_by_name(name)


class TestValueChecksSurfaceAsWireErrors:
    def test_proposal_for_node_zero(self) -> None:
        # ModProposal refuses node < 1 with a ValueError of its own.
        frame = bytearray(wire.encode(ProposalMsg(ModProposal("add", 1))))
        frame[wire.HEADER_BYTES + 1 : wire.HEADER_BYTES + 3] = b"\x00\x00"
        with pytest.raises(wire.WireError, match="invalid ModProposal"):
            wire.decode(bytes(frame))

    @pytest.mark.parametrize("params", [(0, 0, 0), (23, 0, 2), (23, 11, 1), (9, 11, 2)])
    def test_implausible_inline_group(self, params) -> None:
        # q = 0 would reach the protocol layer as a ZeroDivisionError;
        # p = 0 makes elements zero bytes wide, a free 1024 x 1024 loop.
        custom = SchnorrGroup(23, 11, 2)
        echo = EchoMsg(SessionId(1, 2), FeldmanCommitment(((2,),), custom), 1)
        frame = wire.encode(echo)
        assert wire.decode(frame) == echo
        inline = b"".join(
            uvarint(len(raw)) + raw
            for raw in (n.to_bytes((n.bit_length() + 7) // 8, "big") for n in params)
        )
        assert frame.count(b"\x01\x17\x01\x0b\x01\x02") == 1
        body = frame[4:].replace(b"\x01\x17\x01\x0b\x01\x02", inline)
        with pytest.raises(wire.WireError, match="implausible inline group"):
            wire.decode(len(body).to_bytes(4, "big") + body)
