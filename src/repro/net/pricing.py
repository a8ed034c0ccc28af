"""What the simulated network charges for a message: its frame length.

:class:`~repro.net.transport.AsyncioTransport` meters the frame it
encodes.  The discrete-event simulator encodes nothing, so it asks
:func:`repro.net.wire.encoded_size` for the same length — echo/ready in
digest form, as endpoints send them — through a :class:`FramePricer`.
Encoding every message would be a visible share of a simulated DKG's
time, so the pricer encodes once per broadcast and once per VSS frame
shape instead.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.feldman import FeldmanCommitment
from repro.net import wire

_WIRE_TYPES = frozenset(typ for typ, _, _ in wire.SCHEMA.values())
# A VSS send/echo/ready is fixed-width given its shape, and a shape
# prices the same in every run: the commitment sets the width context
# of every field after it.
_SIZE_BY_SHAPE: dict[tuple, int] = {}


class FramePricer:
    """Prices the messages of one run under the run's group."""

    def __init__(self, group: Any = None):
        self.group = group
        self._last: Any = None
        self._last_size = 0

    def __call__(self, message: Any) -> int:
        # A broadcast hands one object to every recipient.
        if message is self._last:
            return self._last_size
        if type(message) in _WIRE_TYPES:
            size = self._wire_size(message)
        else:
            size = message.byte_size()  # a payload with no wire schema
        self._last, self._last_size = message, size
        return size

    def _wire_size(self, message: Any) -> int:
        commitment = getattr(message, "commitment", None)
        if not isinstance(commitment, FeldmanCommitment):
            return wire.encoded_size(message, group=self.group)
        poly = getattr(message, "poly", None)
        key = (
            type(message),
            commitment.degree,
            commitment.group,
            None if poly is None else len(poly.coeffs),
            getattr(message, "signature", None) is None,
        )
        size = _SIZE_BY_SHAPE.get(key)
        if size is None:
            size = wire.encoded_size(message, group=self.group)
            _SIZE_BY_SHAPE[key] = size
        return size
