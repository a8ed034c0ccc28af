"""Canonical binary wire codec for every protocol payload.

Frames are length-prefixed and versioned::

    [u32 length] [b"KG"] [u8 version] [u8 kind] [body]

where ``length`` counts everything after the 4 length bytes.  The body
is a fixed-width field layout chosen to match the paper's communication
accounting: node indices are 2 bytes (:data:`INDEX_BYTES`), session
identifiers 8, views 2, taus 4, digests 32, and scalars/group elements
occupy exactly ``group.scalar_bytes`` / ``group.element_bytes``.  With
those widths, :func:`encoded_size` is value-independent given a
message's shape.  This module is the only statement of how long a
message is: the transport that sends a message meters the frame
length it encodes (or, in the simulator, :func:`encoded_size`), and
the protocol machines know nothing of sizes or codecs.

Every layout is stated once, in :data:`SCHEMA`: ``kind -> (message
type, since-version, ((attribute, field type), ...))`` over the closed
set of field types defined above it.  From a kind's row come one
straight-line reader and one writer, each compiled on its first use
from the source the field types emit; ``docs/wire.md`` and the
round-trip and hostile-decode tests are generated from the same table.
``since`` is the codec version that introduced the kind (history in
``docs/protocols.md``): :func:`encode` stamps it — or 3 when a non-modp
group shaped the frame — and :func:`decode` accepts no other version
byte for the kind.

Commitment compression (Cachin et al., the paper's §3 efficiency note)
is the one form endpoints exchange: :func:`commitment_mode` sends every
``echo``/``ready`` — enveloped or not — with the 32-byte commitment
digest in place of the matrix, and everything else inline.  Decoding a
digest needs the :class:`CommitmentTable` the receiver filled from the
dealer's ``send``; an endpoint that never got that ``send`` asks a peer
for the matrix with a :class:`MatrixRequest` and is answered with a
:class:`MatrixReply`.  The same table makes inline matrices decode
once: a frame whose matrix bytes the table has already decoded gets
that object back.  Within one matrix, each distinct entry encoding is
decoded once, so a symmetric matrix costs (t+1)(t+2)/2 element
decodes.  :func:`encode` defaults to the inline form
(``commitments="inline"``), which is what captures, transcript hashes
and the golden frames hold.

:func:`decode` takes bytes from the network, so it raises nothing but
:class:`WireError` and does no work a peer can inflate: a group named
in a frame resolves to the ``group=`` context, a fixed-parameter set or
a seeded group this process already built — never to a parameter
search — and session envelopes do not nest.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Hashable, Iterator

from repro.crypto.feldman import FeldmanCommitment, FeldmanVector
from repro.crypto.groups import SchnorrGroup, group_by_name, known_group
from repro.crypto.hashing import (
    DIGEST_BYTES,
    commitment_digest,
    encoded_matrix_digest,
)
from repro.crypto.polynomials import Polynomial
from repro.crypto.schnorr import Signature
from repro.dkg import messages as dkg
from repro.dkg.messages import TAU_BYTES, VIEW_BYTES
from repro.groupmod import messages as gm
from repro.proactive import messages as proactive
from repro.runtime.envelope import SessionEnvelope
from repro.service import protocol as svc
from repro.vss import messages as vss

MAGIC = b"KG"
VERSION = 8  # the newest ``since`` in SCHEMA
SERVICE_KIND_MIN = 0x30  # kinds from here up are client <-> gateway frames
ENVELOPE_KIND = 0x2F
HEADER_BYTES = 4 + len(MAGIC) + 1 + 1  # length + magic + version + kind
INDEX_BYTES = 2
MAX_FRAME_BYTES = 1 << 24  # 16 MiB — far above any honest frame

PHASE_BYTES = 4
REQUEST_ID_BYTES = 8  # client-chosen correlation id (service frames)
MAX_COMMITMENT_SIDE = 1024
MAX_POLYNOMIAL_COEFFS = 4096


class WireError(ValueError):
    """Raised for truncated, garbled, oversized or unknown frames."""


class UnresolvedDigest(WireError):
    """A digest-compressed frame referenced a commitment the table
    does not (yet) hold.  Receivers buffer such frames until the
    dealer's ``send``, or a :class:`MatrixReply`, supplies the matrix."""

    def __init__(self, digest: bytes):
        super().__init__("digest-compressed frame with no matching commitment")
        self.digest = digest


class CommitmentTable:
    """The commitment matrices one endpoint has decoded, by digest —
    and those of its own ``send``s, which reach it without a frame.

    :func:`decode` consults it for every inline matrix — identical
    matrix bytes under an equal group come back as the object the first
    decode built, element validation and collapse memo included — and
    resolves digest-form frames against it.  A miss takes the ordinary
    validating path and inserts, so a hit skips no check the first
    decode performed.

    One per endpoint (or replay world), never per process: nodes that
    share an interpreter must each pay for their own decoding.  At most
    ``cap`` entries, at most ``quota`` of them charged to any one owner
    — the link whose frame inserted them, see :meth:`charged_to`.  An
    owner at its quota evicts its own oldest entry; a full table evicts
    the oldest entry of whoever holds the most.  Eviction costs a later
    re-decode, nothing else.

    It also keeps the last ``quota`` matrices its endpoint sent inline
    (:meth:`record_sent`).  Decoding never consults those; they and the
    decoded entries are what :meth:`answer` serves a peer's
    :class:`MatrixRequest` from, at most once per (link, digest).
    """

    def __init__(self, cap: int, quota: int):
        self.cap = cap
        self.quota = quota
        self._entries: dict[bytes, FeldmanCommitment] = {}
        self._owned: dict[Hashable, dict[bytes, None]] = {}  # oldest first
        self._sent: dict[bytes, FeldmanCommitment] = {}  # oldest first
        self._answered: dict[bytes, set[Hashable]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: bytes) -> FeldmanCommitment | None:
        return self._entries.get(digest)

    def insert(
        self, digest: bytes, commitment: FeldmanCommitment, owner: Hashable = None
    ) -> None:
        if len(self._owned.get(owner, ())) >= self.quota:
            self._evict_oldest(owner)
        elif len(self._entries) >= self.cap:
            self._evict_oldest(max(self._owned, key=lambda o: len(self._owned[o])))
        self._entries[digest] = commitment
        self._owned.setdefault(owner, {})[digest] = None

    def _evict_oldest(self, owner: Hashable) -> None:
        owned = self._owned[owner]
        digest = next(iter(owned))
        del owned[digest], self._entries[digest]
        if not owned:
            del self._owned[owner]
        if digest not in self._sent:
            self._answered.pop(digest, None)

    def record_sent(self, commitment: FeldmanCommitment) -> None:
        """Remember a matrix this endpoint sent inline."""
        digest = commitment_digest(commitment)
        if digest in self._sent:
            return
        if len(self._sent) >= self.quota:
            oldest = next(iter(self._sent))
            del self._sent[oldest]
            if oldest not in self._entries:
                self._answered.pop(oldest, None)
        self._sent[digest] = commitment

    def answer(self, digest: bytes, link: Hashable) -> FeldmanCommitment | None:
        """The matrix behind ``digest`` for ``link``'s request: None if
        this table does not hold it, or has answered ``link`` for it."""
        commitment = self._entries.get(digest) or self._sent.get(digest)
        if commitment is None or link in self._answered.get(digest, ()):
            return None
        self._answered.setdefault(digest, set()).add(link)
        return commitment

    def charged_to(self, owner: Hashable) -> "_ChargedTable":
        """This table, with inserts charged to ``owner``'s quota."""
        return _ChargedTable(self, owner)


class _ChargedTable:
    """What :func:`decode` sees of a table while reading one link's frame."""

    __slots__ = ("_table", "_owner")

    def __init__(self, table: CommitmentTable, owner: Hashable):
        self._table = table
        self._owner = owner

    def get(self, digest: bytes) -> FeldmanCommitment | None:
        return self._table.get(digest)

    def insert(self, digest: bytes, commitment: FeldmanCommitment) -> None:
        self._table.insert(digest, commitment, self._owner)


def _trusted_group(name: str):
    """The group behind a name this process wrote itself, or None."""
    try:
        return group_by_name(name)
    except KeyError:
        return None


def _fixed(n: int, width: int) -> bytes:
    try:
        return n.to_bytes(width, "big")
    except (OverflowError, ValueError) as exc:
        raise WireError(f"value {n} does not fit in {width} bytes") from exc


def _byte_length(n: int) -> int:
    return (n.bit_length() + 7) // 8


def _scalar_width(group, *values: int) -> int:
    """Field width for scalars: the group's if known, else minimal."""
    width = group.scalar_bytes if group is not None else 1
    return max(width, *(_byte_length(v) for v in values))


# -- primitive writers ---------------------------------------------------------


class _Writer:
    def __init__(self, group, mode: str):
        self.buf = bytearray()
        # Width context for signatures and loose scalars/elements: the
        # ``group=`` argument until a commitment field replaces it.
        self.group = group
        self.mode = mode  # "inline" | "digest": how commitments travel
        # Set when a non-modp group shapes any field: such frames are
        # not decodable pre-v3 and must be stamped accordingly.
        self.needs_v3 = False

    def uvarint(self, n: int) -> None:
        """Unsigned LEB128."""
        if n < 0:
            raise WireError("uvarint cannot encode negative values")
        while n > 0x7F:
            self.buf.append(n & 0x7F | 0x80)
            n >>= 7
        self.buf.append(n)

    def lbytes(self, data: bytes) -> None:
        self.uvarint(len(data))
        self.buf += data

    def flag(self, value: bool) -> None:
        """One byte, 0 or 1."""
        self.buf.append(1 if value else 0)

    def digest(self, value: bytes) -> None:
        """32 bytes: a SHA-256 commitment digest."""
        if len(value) != DIGEST_BYTES:
            raise WireError(f"digest must be {DIGEST_BYTES} bytes")
        self.buf += value

    def point(self, n: int) -> None:
        """A share point: |q| bytes, q from the preceding commitment's group."""
        self.buf += _fixed(n, self.group.scalar_bytes)

    def scalar(self, n: int) -> None:
        """A loose scalar: uvarint width, then the value in that many
        bytes.  The width is |q| of the group in context, else minimal."""
        width = _scalar_width(self.group, n)
        self.uvarint(width)
        self.buf += _fixed(n, width)

    def element(self, e) -> None:
        """A loose group element: uvarint length, then the owning
        backend's canonical bytes (|p| bytes for modp, a 33-byte
        compressed point for secp256k1).  With no group in context, a
        modp element travels as a minimal big-endian int."""
        if self.group is not None:
            if not isinstance(self.group, SchnorrGroup):
                self.needs_v3 = True
            self.lbytes(self.group.element_to_bytes(e))
        elif isinstance(e, int):
            self.lbytes(_fixed(e, _byte_length(e) or 1))
        else:
            raise WireError(f"cannot encode element {type(e).__name__} without a group")

    def signature(self, sig: Signature | None) -> None:
        """A Schnorr signature: uvarint scalar width w (0 = absent),
        then challenge and response, w bytes each."""
        if sig is None:
            self.uvarint(0)
            return
        width = _scalar_width(self.group, sig.challenge, sig.response)
        self.uvarint(width)
        self.buf += _fixed(sig.challenge, width)
        self.buf += _fixed(sig.response, width)

    def group_ref(self, group) -> None:
        """Named registry reference when possible, inline (p, q, g) for
        custom modp groups.  Non-modp backends are always registry-named
        (the curve is fixed), so the inline form stays modp-only.  The
        group becomes the width context for the fields that follow."""
        self.group = group
        if not isinstance(group, SchnorrGroup):
            self.needs_v3 = True
        if group.name != "custom" and _trusted_group(group.name) == group:
            self.buf.append(0)
            self.lbytes(group.name.encode())
            return
        if not isinstance(group, SchnorrGroup):
            raise WireError(f"group {group.name!r} is not registry-resolvable")
        self.buf.append(1)
        for param in (group.p, group.q, group.g):
            self.lbytes(_fixed(param, _byte_length(param)))

    def _elements(self, group, entries) -> None:
        to_bytes = group.element_to_bytes
        for entry in entries:
            self.buf += to_bytes(entry)

    def matrix(self, c: FeldmanCommitment) -> None:
        """A Feldman commitment matrix: group reference (u8 tag: 0 +
        length-prefixed registry name | 1 + length-prefixed p, q, g),
        uvarint side s, then s*s fixed-width elements, row by row."""
        self.group_ref(c.group)
        self.uvarint(c.degree + 1)
        for row in c.matrix:
            self._elements(c.group, row)

    def vector(self, v: FeldmanVector) -> None:
        """A Feldman commitment vector: group reference (as in matrix),
        uvarint count, then that many fixed-width elements."""
        self.group_ref(v.group)
        self.uvarint(len(v.entries))
        self._elements(v.group, v.entries)

    def commitment(self, c: FeldmanCommitment) -> None:
        """u8 tag, then 0 = the matrix inline | 1 = its 32-byte digest
        (how echo/ready travel between endpoints; the receiver resolves
        it against the dealer's send, or fetches the matrix)."""
        if self.mode == "digest":
            self.buf.append(1)
            self.buf += commitment_digest(c)
            self.group = c.group
        else:
            self.buf.append(0)
            self.matrix(c)

    def polynomial(self, poly: Polynomial) -> None:
        """A univariate polynomial: length-prefixed modulus q, uvarint
        count, then that many coefficients of |q| bytes."""
        width = _byte_length(poly.q)
        self.lbytes(_fixed(poly.q, width))
        self.uvarint(len(poly.coeffs))
        for coeff in poly.coeffs:
            self.buf += _fixed(coeff, width)

    def group_name(self, name: str) -> None:
        """Length-prefixed utf-8 name of the service's group.  When the
        receiver was given no group of its own, the element after it
        decodes in this one — if it is known without a parameter search."""
        self.lbytes(name.encode())
        if self.group is None:
            self.group = _trusted_group(name)

    def frame(self, payload: Any) -> None:
        """One complete embedded frame, to the end of the body, in the
        commitment mode of the envelope.  Never another envelope."""
        if isinstance(payload, SessionEnvelope):
            raise WireError("session envelopes do not nest")
        self.buf += encode(payload, group=self.group, commitments=self.mode)


# -- primitive readers ---------------------------------------------------------


class _Reader:
    """One frame body being decoded: the structural reads (tags,
    counts, lengths, group elements) and composite fields."""

    def __init__(self, data: bytes, group, commitments):
        self.data = data
        self.pos = 0
        self.group = group  # element-decoding context (see _Writer.group)
        self.commitments = commitments  # CommitmentTable (or a charged view)
        # The entries of the matrix being read, by encoding: a dealt
        # matrix is symmetric, so each distinct point is decoded once.
        self._memo: dict[bytes, Any] | None = None

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise WireError("truncated frame")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def choice(self, valid, what: str) -> int:
        """A tag / enum / flag byte, which must be one of ``valid``."""
        byte = self.take(1)[0]
        if byte not in valid:
            raise WireError(f"unknown {what} {byte}")
        return byte

    def uvarint(self) -> int:
        data, pos, value, shift = self.data, self.pos, 0, 0
        while True:
            if pos >= len(data):
                raise WireError("truncated frame")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                self.pos = pos
                return value
            shift += 7
            if shift > 63:
                raise WireError("uvarint too long")

    def count(self, limit: int, what: str) -> int:
        """An element count in ``1..limit``."""
        count = self.uvarint()
        if not 1 <= count <= limit:
            raise WireError(f"implausible {what} {count}")
        return count

    def lbytes(self) -> bytes:
        return self.take(self.uvarint())

    def flag(self) -> bool:
        return bool(self.choice(range(2), "flag"))

    def element(self):
        raw = self.lbytes()
        if self.group is None:
            return int.from_bytes(raw, "big")
        return self._decode_element(self.group, raw)

    def _decode_element(self, group, raw: bytes):
        memo = self._memo
        if memo is not None and raw in memo:
            return memo[raw]  # validated when first seen in this matrix
        try:
            element = group.element_decode(raw)
        except ValueError as exc:
            raise WireError(f"garbled group element: {exc}") from exc
        if memo is not None:
            memo[raw] = element
        return element

    def sized_element(self, group):
        """A fixed-width element (commitment entries): exactly
        ``group.element_bytes`` bytes of the backend's canonical form."""
        return self._decode_element(group, self.take(group.element_bytes))

    def group_ref(self):
        """See ``_Writer.group_ref``.  A name is looked up, never
        generated: a hostile ``large-<seed>`` must not cost the receiver
        a 2048-bit parameter search."""
        if self.choice(range(2), "group tag") == 0:
            name = _utf8(self.lbytes(), "group name")
            if self.group is not None and self.group.name == name:
                return self.group
            group = known_group(name)
            if group is None:
                raise WireError(f"unknown group name {name!r}")
        else:
            p, q, g = (int.from_bytes(self.lbytes(), "big") for _ in range(3))
            if not (1 < q < p and 1 < g < p):
                raise WireError("implausible inline group parameters")
            group = SchnorrGroup(p, q, g)
        self.group = group
        return group

    def _elements(self, group, count: int) -> tuple:
        return tuple(self.sized_element(group) for _ in range(count))

    def matrix(self) -> FeldmanCommitment:
        group = self.group_ref()
        side = self.count(MAX_COMMITMENT_SIDE, "commitment side")
        table = self.commitments
        known = None
        if table is not None:
            start = self.pos
            # Both backends' encodings are canonical, so this is
            # commitment_digest of whatever the bytes decode to.
            digest = encoded_matrix_digest(self.take(side * side * group.element_bytes))
            known = table.get(digest)
            if known is not None and known.group == group:
                return known
            self.pos = start
        self._memo = {}
        rows = tuple(self._elements(group, side) for _ in range(side))
        self._memo = None
        commitment = FeldmanCommitment(rows, group)
        if table is not None and known is None:
            table.insert(digest, commitment)
        return commitment

    def vector(self) -> FeldmanVector:
        group = self.group_ref()
        count = self.count(MAX_COMMITMENT_SIDE, "vector length")
        return FeldmanVector(self._elements(group, count), group)

    def commitment(self) -> FeldmanCommitment:
        if self.choice(range(2), "commitment tag") == 0:
            return self.matrix()
        digest = self.take(DIGEST_BYTES)
        table = self.commitments
        commitment = table.get(digest) if table is not None else None
        if commitment is None:
            # The transport buffers the frame (the *outer* one, when
            # enveloped) until the referenced commitment arrives.
            raise UnresolvedDigest(digest)
        self.group = commitment.group
        return commitment

    def polynomial(self) -> Polynomial:
        q_bytes = self.lbytes()
        q = int.from_bytes(q_bytes, "big")
        if q < 2:
            raise WireError("bad polynomial modulus")
        count = self.count(MAX_POLYNOMIAL_COEFFS, "coefficient count")
        width = len(q_bytes)
        coeffs = tuple(int.from_bytes(self.take(width), "big") for _ in range(count))
        return Polynomial(coeffs, q)

    def group_name(self) -> str:
        name = _utf8(self.lbytes(), "group name")
        if self.group is None:
            self.group = known_group(name)
        return name

    def frame(self) -> Any:
        """The embedded frame, which runs to the end of the body, its
        header checked once.  Never another envelope."""
        data, body = self.data, self.pos + HEADER_BYTES  # where its body starts
        if data[body - 1 : body] == bytes([ENVELOPE_KIND]):
            raise WireError("session envelopes do not nest")
        read = _opened(data, self.pos)
        message = read(type(self)(data[body:], self.group, self.commitments))
        self.pos = len(data)
        return message


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise WireError(f"garbled {what}") from exc


# -- field types ---------------------------------------------------------------
#
# A field type emits the source of its read and of its write (see
# :func:`_compiled`).  A read keeps the position in a local ``pos`` and
# checks it before every slice; the ``_Reader`` does the structural ones.


class _Source:
    """The source of one compiled reader (``read(r)``) or writer
    (``write(w, m)``), and the constants it names."""

    def __init__(self, head: str, consts: dict[str, Any]):
        self.lines, self.consts, self.depth, self.names = [head], consts, 1, 0

    def line(self, *lines: str) -> None:
        self.lines += ["    " * self.depth + text for text in lines]

    def local(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def const(self, value: Any) -> str:
        name = f"K{len(self.consts)}"
        self.consts[name] = value
        return name

    @contextlib.contextmanager
    def block(self, head: str) -> Iterator[None]:
        self.line(head)
        self.depth += 1
        yield
        self.depth -= 1

    def call(self, method: str) -> str:
        """``r.<method>``, with the reader's position kept in step."""
        value = self.local()
        self.line("r.pos = pos", f"{value} = r.{method}", "pos = r.pos")
        return value

    def take(self, width: str, convert: str = "{}") -> str:
        """``width`` bytes, bounds-checked first, through ``convert``."""
        value, raw = self.local(), f"data[pos : (pos := pos + {width})]"
        self.line(
            f"if pos + {width} > end: raise WireError('truncated frame')",
            f"{value} = {convert.format(raw)}",
        )
        return value

    def fixed(self, width: str, bias: int = 0) -> str:
        """A big-endian unsigned int ``width`` bytes wide, less ``bias``."""
        less = f" - {bias}" if bias else ""
        return self.take(width, "int.from_bytes({}, 'big')" + less)


@dataclasses.dataclass(frozen=True)
class _Field:
    """One of the closed set of field types SCHEMA is written in.
    ``doc`` names it in docs/wire.md, ``detail`` spells its layout out
    there, ``inner`` lists the field types it is built from.  ``read``
    emits a read and returns an expression for the value, to be used
    once; ``write`` emits the write of an expression."""

    doc: str
    detail: str
    read: Callable[[_Source], str]
    write: Callable[[_Source, str], None]
    inner: tuple[_Field, ...] = ()


def _prim(name: str, read: Callable[[_Source], str] | None = None) -> _Field:
    """The field type the ``_Writer`` method called ``name`` writes; its
    docstring is the entry in docs/wire.md.  Reads call the ``_Reader``
    method of the same name unless ``read`` emits them inline."""
    detail = " ".join((getattr(_Writer, name).__doc__ or "").split())

    def write(src: _Source, value: str) -> None:
        src.line(f"w.{name}({value})")

    def call(src: _Source) -> str:
        return src.call(f"{name}()")

    return _Field(name.replace("_", " "), detail, read or call, write)


def _read_signature(src: _Source) -> str:
    width, value = src.call("uvarint()"), src.local()
    with src.block(f"if {width} == 0:"):
        src.line(f"{value} = None")
    with src.block("else:"):
        src.line(f"{value} = Signature({src.fixed(width)}, {src.fixed(width)})")
    return value


def _int(width: int, what: str, bias: int = 0) -> _Field:
    """Fixed-width big-endian unsigned int; ``bias`` shifts a small
    signed range into it."""

    def write(src: _Source, value: str) -> None:
        biased = f"({value} + {bias})" if bias else value
        src.line(f"buf += {biased}.to_bytes({width}, 'big')")

    return _Field(
        f"u{8 * width} {what}", "", lambda src: src.fixed(str(width), bias), write
    )


def _bytes(what: str, text: bool = False, limit: int | None = None) -> _Field:
    """Length-prefixed bytes; ``text`` makes them a UTF-8 string."""

    def checked(src: _Source, raw: str) -> str:
        if limit is not None:
            too_long = f"{what} too long"
            src.line(f"if len({raw}) > {limit}: raise WireError({too_long!r})")
        return raw

    def read(src: _Source) -> str:
        raw = checked(src, src.take(src.call("uvarint()")))
        if not text:
            return raw
        value = src.local()
        src.line(f"{value} = {src.const(_utf8)}({raw}, {what!r})")
        return value

    def write(src: _Source, value: str) -> None:
        raw = src.local()
        src.line(f"{raw} = {value}.encode()" if text else f"{raw} = {value}")
        src.line(f"w.lbytes({checked(src, raw)})")

    detail = f"uvarint length, then that many bytes{' of utf-8' if text else ''}"
    if limit is not None:
        detail += f"; at most {limit}"
    return _Field(what, detail, read, write)


def _enum(what: str, values) -> _Field:
    """One byte standing for one of a fixed set of values: an index
    into a tuple of names, or a code table's keys themselves."""
    if isinstance(values, dict):
        names, by_byte = values, {code: code for code in values}
    else:
        names = by_byte = dict(enumerate(values))
    by_value = {value: byte for byte, value in by_byte.items()}

    def read(src: _Source) -> str:
        table, value = src.const(by_byte), src.local()
        byte = src.call(f"choice({table}, {what + ' index'!r})")
        src.line(f"{value} = {table}[{byte}]")
        return value

    def write(src: _Source, value: str) -> None:
        byte, unknown = src.local(), repr(f"unknown {what} ")
        src.line(
            f"{byte} = {src.const(by_value)}.get({value})",
            f"if {byte} is None: raise WireError({unknown} + repr({value}))",
            f"buf.append({byte})",
        )

    listing = ", ".join(f"{byte} = {name}" for byte, name in names.items())
    return _Field(what, f"u8: {listing}", read, write)


def _required(field: _Field) -> _Field:
    """``field``, whose absent encoding decode refuses."""

    def read(src: _Source) -> str:
        value, missing = src.local(), f"missing required {field.doc}"
        src.line(f"{value} = {field.read(src)}")
        src.line(f"if {value} is None: raise WireError({missing!r})")
        return value

    return _Field(f"required {field.doc}", "", read, field.write, (field,))


def _list(field: _Field) -> _Field:
    """uvarint count, then that many items; decodes to a tuple."""

    def read(src: _Source) -> str:
        count, items = src.call("uvarint()"), src.local()
        src.line(f"{items} = []")
        with src.block(f"for _ in range({count}):"):
            src.line(f"{items}.append({field.read(src)})")
        return f"tuple({items})"

    def write(src: _Source, value: str) -> None:
        item = src.local()
        src.line(f"w.uvarint(len({value}))")
        with src.block(f"for {item} in {value}:"):
            field.write(src, item)

    return _Field(f"list of {field.doc}", "", read, write, (field,))


def _union(
    what: str, *alternatives: tuple[type, _Field | None], retired: tuple[int, ...] = ()
) -> _Field:
    """A tag byte, then the alternative it selects — chosen by Python
    type on the way out.  ``None`` for a field: no body, decodes to
    ``None``.  ``retired`` tags, past the live ones, decode as hostile
    bytes and are listed only so that nobody reuses them."""

    def read(src: _Source) -> str:
        tags, value = src.const(range(len(alternatives))), src.local()
        tag = src.call(f"choice({tags}, {what + ' tag'!r})")
        for index, (_, field) in enumerate(alternatives):
            # choice() has checked the tag, so the last test is implied.
            test = f"{'elif' if index else 'if'} {tag} == {index}:"
            with src.block("else:" if index == len(alternatives) - 1 else test):
                src.line(f"{value} = {'None' if field is None else field.read(src)}")
        return value

    def write(src: _Source, value: str) -> None:
        for index, (typ, field) in enumerate(alternatives):
            test = f"{'elif' if index else 'if'} isinstance({value}, {src.const(typ)}):"
            with src.block(test):
                src.line(f"buf.append({index})")
                if field is not None:
                    field.write(src, value)
        with src.block("else:"):
            unencodable = f"unencodable {what} "
            src.line(f"raise WireError({unencodable!r} + type({value}).__name__)")

    listing = " | ".join(
        [
            f"{tag} = {field.doc if field is not None else 'nothing'}"
            for tag, (_, field) in enumerate(alternatives)
        ]
        + [f"{tag} = retired" for tag in retired]
    )
    inner = tuple(field for _, field in alternatives if field is not None)
    return _Field(what, f"u8 tag, then {listing}", read, write, inner)


def _optional(field: _Field) -> _Field:
    """A presence flag, then the value if present (else ``None``): a
    union of nothing and ``field``."""
    union = _union("flag", (type(None), None), (object, field))
    return dataclasses.replace(union, doc=f"optional {field.doc}", detail="")


def _record(typ: type, /, **fields: _Field) -> _Field:
    """A dataclass: its fields back to back, no framing.  Its own range
    checks surface as :class:`WireError`."""
    pairs = tuple(fields.items())

    def read(src: _Source) -> str:
        args = ", ".join(f"{attr}={field.read(src)}" for attr, field in pairs)
        if not hasattr(typ, "__post_init__"):  # then its __init__ refuses nothing
            return f"{src.const(typ)}({args})"
        value, invalid = src.local(), f"invalid {typ.__name__}: "
        with src.block("try:"):
            src.line(f"{value} = {src.const(typ)}({args})")
        with src.block("except ValueError as exc:"):
            src.line(f"raise WireError({invalid!r} + str(exc)) from exc")
        return value

    def write(src: _Source, value: str) -> None:
        for attr, field in pairs:
            field.write(src, f"{value}.{attr}")

    return _Field(
        typ.__name__,
        ", ".join(f"`{attr}`: {field.doc}" for attr, field in pairs),
        read,
        write,
        tuple(fields.values()),
    )


INDEX = _int(INDEX_BYTES, "node index")
TAU = _int(TAU_BYTES, "tau")
VIEW = _int(VIEW_BYTES, "view")
PHASE = _int(PHASE_BYTES, "phase")
REQUEST_ID = _int(REQUEST_ID_BYTES, "request id")
COUNT = _int(INDEX_BYTES, "count")  # of nodes, so as wide as an index
DELTA = _int(1, "delta + 128", bias=128)  # t/f deltas are small signed ints
UVARINT = _prim("uvarint")
FLAG = _prim("flag")
BYTES = _bytes("bytes")
DIGEST = _prim("digest", lambda src: src.take(str(DIGEST_BYTES)))
SESSION = _record(vss.SessionId, dealer=_int(4, "dealer"), tau=_int(4, "tau"))
SCALAR = _prim("scalar", lambda src: src.fixed(src.call("uvarint()")))
ELEMENT = _prim("element")
SIGNATURE = _prim("signature", _read_signature)
# The four commitment fields set the width context: scalars, share
# points, signatures and elements after one are sized by its group.
MATRIX = _prim("matrix")
VECTOR = _prim("vector")
COMMITMENT = _prim("commitment")
POINT = _prim("point", lambda src: src.fixed("r.group.scalar_bytes"))
POLYNOMIAL = _prim("polynomial")
GROUP_NAME = _prim("group_name")
FRAME = _prim("frame")

SIGNED = _required(SIGNATURE)
INDEX_LIST = _list(INDEX)
WITNESS = _record(vss.ReadyWitness, signer=INDEX, signature=SIGNED)
CERT = _record(dkg.ReadyCert, dealer=INDEX, digest=DIGEST, witnesses=_list(WITNESS))
SET_VOTE = _record(
    dkg.SetVote,
    voter=INDEX,
    vote_kind=_enum("vote kind", ("echo", "ready")),
    signature=SIGNED,
)
LEAD_CH_WITNESS = _record(dkg.LeadChWitness, voter=INDEX, view=VIEW, signature=SIGNED)
PROOF = _union(
    "proof",
    (type(None), None),
    (dkg.RTypeProof, _record(dkg.RTypeProof, certs=_list(CERT))),
    (dkg.MTypeProof, _record(dkg.MTypeProof, q=INDEX_LIST, votes=_list(SET_VOTE))),
)
PROPOSAL = _record(
    gm.ModProposal,
    action=_enum("action", ("add", "remove")),
    node=INDEX,
    t_delta=DELTA,
    f_delta=DELTA,
)
# Tag 2 carried a Pedersen commitment, which no protocol emitted:
# decode rejects it, and it must never be reused.
OUTPUT_COMMITMENT = _union(
    "commitment shape",
    (FeldmanCommitment, MATRIX),
    (FeldmanVector, VECTOR),
    retired=(2,),
)


@dataclasses.dataclass(frozen=True)
class MatrixRequest:
    """Endpoint -> peer: send me the matrix behind ``digest`` — asked
    when digest-form frames have waited too long for it."""

    digest: bytes

    kind = "net.matrix_request"


@dataclasses.dataclass(frozen=True)
class MatrixReply:
    """Peer -> endpoint: the matrix a :class:`MatrixRequest` named."""

    commitment: FeldmanCommitment

    kind = "net.matrix_reply"


def _row(typ: type, since: int, /, **fields: _Field):
    return typ, since, tuple(fields.items())


_DKG_VOTE = dict(tau=TAU, view=VIEW, q=INDEX_LIST, signature=SIGNED)
_JSON_SNAPSHOT = dict(request_id=REQUEST_ID, snapshot=BYTES)

# kind -> (message type, since-version, ((attribute, field type), ...)).
# Fields travel in the order written; attributes are the dataclass's
# own.  Kind bytes and layouts are frozen (tests/net/golden_frames.json):
# a new message takes a new kind, a changed layout a new ``since``.
SCHEMA: dict[int, tuple[type, int, tuple[tuple[str, _Field], ...]]] = {
    # HybridVSS (§3); ``send`` always carries the matrix
    0x01: _row(
        vss.SendMsg, 1, session=SESSION, commitment=MATRIX, poly=_optional(POLYNOMIAL)
    ),
    0x02: _row(vss.EchoMsg, 1, session=SESSION, commitment=COMMITMENT, point=POINT),
    0x03: _row(
        vss.ReadyMsg,
        1,
        session=SESSION,
        commitment=COMMITMENT,
        point=POINT,
        signature=SIGNATURE,
    ),
    0x04: _row(vss.HelpMsg, 1, session=SESSION),
    0x05: _row(vss.SharePointMsg, 1, session=SESSION, point=SCALAR),
    0x06: _row(vss.ShareInput, 1, session=SESSION, secret=SCALAR),
    0x07: _row(vss.ReconstructInput, 1, session=SESSION),
    0x08: _row(vss.RecoverInput, 1, session=SESSION),
    0x09: _row(
        vss.SharedOutput,
        1,
        session=SESSION,
        commitment=MATRIX,
        share=SCALAR,
        ready_proof=_list(WITNESS),
    ),
    0x0A: _row(vss.ReconstructedOutput, 1, session=SESSION, value=SCALAR),
    # asynchronous DKG (§4)
    0x10: _row(
        dkg.DkgSendMsg,
        1,
        tau=TAU,
        view=VIEW,
        proof=_required(PROOF),
        election=_list(LEAD_CH_WITNESS),
    ),
    0x11: _row(dkg.DkgEchoMsg, 1, **_DKG_VOTE),
    0x12: _row(dkg.DkgReadyMsg, 1, **_DKG_VOTE),
    0x13: _row(dkg.LeadChMsg, 1, tau=TAU, view=VIEW, proof=PROOF, signature=SIGNED),
    0x14: _row(dkg.DkgSharePointMsg, 1, tau=TAU, point=SCALAR),
    0x15: _row(dkg.DkgHelpMsg, 1, tau=TAU),
    0x16: _row(dkg.DkgStartInput, 1, tau=TAU),
    0x17: _row(dkg.DkgRecoverInput, 1, tau=TAU),
    0x18: _row(dkg.DkgReconstructInput, 1, tau=TAU),
    0x19: _row(dkg.DkgReconstructedOutput, 1, tau=TAU, value=SCALAR),
    0x1A: _row(
        dkg.DkgCompletedOutput,
        1,
        tau=TAU,
        view=VIEW,
        q_set=INDEX_LIST,
        commitment=OUTPUT_COMMITMENT,
        share=SCALAR,
        public_key=ELEMENT,
    ),
    # proactive renewal (§5)
    0x20: _row(proactive.ClockTickMsg, 1, phase=PHASE),
    0x21: _row(proactive.RenewInput, 1, phase=PHASE),
    0x22: _row(
        proactive.RenewedOutput,
        1,
        phase=PHASE,
        commitment=VECTOR,
        share=SCALAR,
        q_set=INDEX_LIST,
    ),
    # group modification (§6)
    0x23: _row(gm.ProposalMsg, 4, proposal=PROPOSAL),
    0x24: _row(gm.ProposalEchoMsg, 4, proposal=PROPOSAL),
    0x25: _row(gm.ProposalReadyMsg, 4, proposal=PROPOSAL),
    0x26: _row(gm.ProposeInput, 4, proposal=PROPOSAL),
    0x27: _row(gm.ProposalDeliveredOutput, 4, proposal=PROPOSAL),
    0x28: _row(gm.NodeAddRequestMsg, 4, new_node=INDEX, tau=TAU),
    0x29: _row(gm.NodeAddInput, 4, new_node=INDEX, tau=TAU),
    0x2A: _row(gm.SubshareMsg, 4, tau=TAU, vector=VECTOR, subshare=SCALAR),
    0x2B: _row(gm.JoinedOutput, 4, tau=TAU, vector=VECTOR, share=SCALAR),
    # endpoint <-> endpoint: the matrix behind a digest that found none
    0x2C: _row(MatrixRequest, 7, digest=DIGEST),
    0x2D: _row(MatrixReply, 7, commitment=MATRIX),
    # session multiplexing: the payload's commitment mode and digest
    # resolution pass straight through the envelope
    ENVELOPE_KIND: _row(
        SessionEnvelope,
        4,
        session=_bytes("session id", text=True, limit=255),
        payload=FRAME,
    ),
    # client <-> gateway service frames
    0x30: _row(svc.SignRequest, 2, request_id=REQUEST_ID, message=BYTES),
    0x31: _row(
        svc.SignResponse,
        2,
        request_id=REQUEST_ID,
        challenge=SCALAR,
        response=SCALAR,
        presig_used=FLAG,
    ),
    # 0x32-0x38: retired (RETIRED_KINDS)
    0x39: _row(svc.StatusRequest, 2, request_id=REQUEST_ID),
    # since 8, when the layout last changed: the beacon height left
    # (since 3 the name had moved ahead of the key)
    0x3A: _row(
        svc.StatusResponse,
        8,
        request_id=REQUEST_ID,
        n=COUNT,
        t=COUNT,
        alive=COUNT,
        pool_ready=UVARINT,
        pool_target=UVARINT,
        served=UVARINT,
        failed=UVARINT,
        group_name=GROUP_NAME,
        public_key=ELEMENT,
    ),
    0x3B: _row(
        svc.ErrorResponse,
        2,
        request_id=REQUEST_ID,
        code=_enum("service error code", svc.ERROR_NAMES),
        detail=_bytes("error detail", text=True),
    ),
    # observability: the metrics registry as one JSON document
    0x3C: _row(svc.OpsRequest, 5, request_id=REQUEST_ID),
    0x3D: _row(svc.OpsResponse, 5, **_JSON_SNAPSHOT),
    # 0x3E-0x43: retired (RETIRED_KINDS)
}

# Kinds that once had a layout: (first, last, the codec version that
# introduced them, what they carried).  Decode rejects them as unknown,
# and no message may take one again.
RETIRED_KINDS = (
    (0x32, 0x38, 2, "the beacon, DPRF and threshold-decryption verbs"),
    (0x3E, 0x43, 6, "a multi-committee router's frames"),
)

_KIND_BY_TYPE: dict[type, int] = {typ: kind for kind, (typ, _, _) in SCHEMA.items()}


_READERS: dict[int, Callable[[_Reader], Any]] = {}
_WRITERS: dict[int, Callable[[_Writer, Any], None]] = {}


def _compiled(kind: int, part: str) -> Callable:
    """``kind``'s ``part``, compiled from its SCHEMA row on first use:
    ``"read"``, a reader of a frame body to its last byte, or
    ``"write"``, a writer of one."""
    typ, _, fields = SCHEMA[kind]
    record = _record(typ, **dict(fields))
    consts = {"WireError": WireError, "Signature": Signature}
    if part == "read":
        src = _Source("def read(r):", consts)
        src.line("data, pos, end = r.data, r.pos, len(r.data)")
        message = record.read(src)
        trailing = "f'{end - pos} trailing bytes after payload'"
        src.line(f"if pos != end: raise WireError({trailing})", f"return {message}")
    else:
        src = _Source("def write(w, m):", consts)
        src.line("buf = w.buf")
        record.write(src, "m")
    exec(compile("\n".join(src.lines), f"<wire {part} 0x{kind:02x}>", "exec"), consts)
    compiled = (_READERS if part == "read" else _WRITERS)[kind] = consts[part]
    return compiled


# -- public API ----------------------------------------------------------------


def encode(message: Any, *, group=None, commitments: str = "inline") -> bytes:
    """Serialize ``message`` into one length-prefixed frame.

    ``group`` pins scalar field widths (signatures, loose scalars) so
    frame sizes are value-independent; without it minimal widths are
    used.  ``commitments="digest"`` emits the Cachin-style compressed
    form for ``echo``/``ready`` frames, as endpoints send them (see
    :func:`commitment_mode`; decoding then needs the receiver's
    :class:`CommitmentTable`).
    """
    if commitments not in ("inline", "digest"):
        raise WireError(f"unknown commitment mode {commitments!r}")
    kind = _KIND_BY_TYPE.get(type(message))
    if kind is None:
        raise WireError(f"no wire codec for {type(message).__name__}")
    write = _WRITERS.get(kind) or _compiled(kind, "write")
    w = _Writer(group, commitments)
    try:
        write(w, message)
    except OverflowError as exc:  # a fixed-width int out of its range
        raise WireError(f"unencodable {type(message).__name__}: {exc}") from exc
    # The version that introduced the kind, so frames stay byte-stable
    # as the codec grows; a frame shaped by a non-modp group (EC
    # commitments, compressed-point elements) only reads under v3 rules.
    since = SCHEMA[kind][1]
    version = max(since, 3) if w.needs_v3 else since
    head = (len(w.buf) + HEADER_BYTES - 4).to_bytes(4, "big") + MAGIC
    return head + bytes((version, kind)) + w.buf


def _opened(data: bytes, start: int) -> Callable[[_Reader], Any]:
    """The compiled reader for the frame at ``data[start:]``, which runs
    to the end of ``data``, once its header has been checked."""
    if len(data) - start < HEADER_BYTES:
        raise WireError("frame shorter than header")
    length = int.from_bytes(data[start : start + 4], "big")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds cap")
    if length != len(data) - start - 4:
        raise WireError("frame length mismatch")
    if data[start + 4 : start + 6] != MAGIC:
        raise WireError("bad magic")
    version, kind = data[start + 6], data[start + 7]
    if kind not in SCHEMA:
        raise WireError(f"unknown frame kind 0x{kind:02x}")
    since = SCHEMA[kind][1]
    if version < since:
        raise WireError(f"frame kind 0x{kind:02x} requires codec version >= {since}")
    if version != since and version != max(since, 3):
        raise WireError(f"frame kind 0x{kind:02x} is never stamped version {version}")
    return _READERS.get(kind) or _compiled(kind, "read")


def decode(data: bytes, *, commitments=None, group=None) -> Any:
    """Parse exactly one frame produced by :func:`encode`.

    ``commitments`` is the receiver's :class:`CommitmentTable` (or its
    :meth:`~CommitmentTable.charged_to` view): matrices already in it
    are not decoded again, new ones are added, and digest-form frames
    resolve against it — :class:`UnresolvedDigest` when it has no match
    or none was given.

    ``group`` is the deployment's group: what a frame naming it resolves
    to, and the context for loose elements with no group reference
    before them (service frames; without it they fall back to raw ints
    — correct for modp, opaque for EC backends).  Raises
    :class:`WireError`, and nothing else, on truncation, garbage,
    unknown kinds or trailing bytes.
    """
    read = _opened(data, 0)
    # bytes, not a mutable buffer: element encodings key the matrix memo.
    return read(_Reader(bytes(data[HEADER_BYTES:]), group, commitments))


_DIGEST_KINDS = frozenset({"vss.echo", "vss.ready"})


def commitment_mode(message: Any) -> str:
    """Which commitment form ``message`` travels as between endpoints.

    The single source of truth shared by the simulator's pricing and
    the real transport's encoder, decided by the message kind alone:
    ``echo``/``ready`` frames carry the 32-byte digest — the dealer's
    ``send`` has the matrix — and everything else is inline.  Session
    envelopes compress by what they *carry*.
    """
    if isinstance(message, SessionEnvelope):
        message = message.payload
    return "digest" if getattr(message, "kind", "") in _DIGEST_KINDS else "inline"


def encoded_size(message: Any, group=None) -> int:
    """Length of the frame an endpoint sends for ``message``: echo/ready
    in digest form — the paper's O(kappa n^3) accounting — and
    everything else inline."""
    return len(encode(message, group=group, commitments=commitment_mode(message)))


def payload_length(frame: bytes) -> int:
    """Length of the protocol frame in ``frame``: the inner frame when
    ``frame`` is a session envelope (whose session id is transport
    framing), else the whole frame."""
    if frame[HEADER_BYTES - 1] != ENVELOPE_KIND:
        return len(frame)
    reader = _Reader(frame, None, None)
    reader.pos = HEADER_BYTES
    length = reader.uvarint()  # the session id's
    return len(frame) - reader.pos - length
