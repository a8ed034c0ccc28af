"""Share containers and secret reconstruction helpers.

A :class:`Share` is what a node holds after a VSS/DKG completes: its
index, the share value ``s_i = f(i, 0)`` (or the summed/interpolated
value for DKG/renewal), and the commitment that makes it publicly
verifiable.  :func:`reconstruct_secret` is the client-side core of the
Rec protocol: filter shares against the commitment, then Lagrange-
interpolate at 0.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.crypto.feldman import (
    FeldmanCommitment,
    FeldmanVector,
    share_verifier,
)
from repro.crypto.polynomials import interpolate_at


@dataclass(frozen=True)
class Share:
    """A verifiable secret share held by node ``index``."""

    index: int
    value: int
    commitment: FeldmanCommitment | FeldmanVector

    def verify(self) -> bool:
        """Check this share against its own commitment."""
        return self.commitment.verify_share(self.index, self.value)

    @property
    def public_key(self) -> int:
        """g^s for the secret this share belongs to."""
        return self.commitment.public_key()


class ReconstructionError(Exception):
    """Raised when too few valid shares are available to reconstruct."""


def reconstruct_secret(
    shares: Iterable[Share],
    threshold: int,
    q: int,
    rng: random.Random | None = None,
) -> int:
    """Reconstruct the secret from at least ``threshold + 1`` valid shares.

    Shares failing their commitment check are discarded (Byzantine nodes
    may submit garbage during Rec); the first *valid* share per index
    wins, so a garbage duplicate cannot shadow a later honest one.
    Claims under one commitment are filtered in randomized-linear-
    combination batch checks (per-share fallback identifies the bad
    ones); only indices whose current candidate failed retry with their
    next candidate, so the honest path is a single batch.  ``rng`` salts
    the batch weights for deterministic runs.  Raises
    :class:`ReconstructionError` if fewer than ``threshold + 1``
    distinct valid shares remain.
    """
    candidates: dict[int, list[Share]] = {}
    order: list[int] = []  # first-seen index order
    for share in shares:
        if share.index not in candidates:
            candidates[share.index] = []
            order.append(share.index)
        candidates[share.index].append(share)
    seen: dict[int, int] = {}
    cursor = {i: 0 for i in order}
    while True:
        round_items: dict[
            FeldmanCommitment | FeldmanVector, list[tuple[int, int]]
        ] = {}
        for i in order:
            if i in seen or cursor[i] >= len(candidates[i]):
                continue
            share = candidates[i][cursor[i]]
            cursor[i] += 1
            round_items.setdefault(share.commitment, []).append(
                (share.index, share.value)
            )
        if not round_items:
            break
        for commitment, items in round_items.items():
            good, _bad = share_verifier(commitment).batch_verify(
                items, rng=rng
            )
            seen.update(good)
    if len(seen) < threshold + 1:
        raise ReconstructionError(
            f"need {threshold + 1} valid shares, have {len(seen)}"
        )
    points = [(i, seen[i]) for i in order if i in seen][: threshold + 1]
    return interpolate_at(points, 0, q)


class PointCollector:
    """Buffer ``(sender, point)`` claims for the Rec protocol and batch-
    verify them when the interpolation threshold is reachable.

    Shared by :class:`repro.vss.session.VssSession` and
    :class:`repro.dkg.node.DkgNode`: both collect ``t + 1`` share
    points verified against a :class:`FeldmanVector` before
    interpolating at 0.
    """

    def __init__(self, verifier: FeldmanVector, needed: int):
        self.verifier = verifier
        self.needed = needed
        self.points: dict[int, int] = {}
        self._pending: dict[int, int] = {}
        self._rejected: set[int] = set()

    def seen(self, sender: int) -> bool:
        return (
            sender in self.points
            or sender in self._pending
            or sender in self._rejected
        )

    def add(
        self, sender: int, point: int, rng: random.Random | None = None
    ) -> bool:
        """Buffer one claim; returns True once ``needed`` points are
        verified.  Verification runs in one batch per threshold
        crossing; bad points are dropped and their senders rejected
        for good (one point per sender, as in the seed's first-time
        dispatch)."""
        self._pending[sender] = point
        if len(self.points) + len(self._pending) < self.needed:
            return False
        items = list(self._pending.items())
        self._pending.clear()
        good, bad = self.verifier.batch_verify(items, rng=rng)
        self.points.update(good)
        self._rejected.update(bad)
        return len(self.points) >= self.needed

    def first_points(self) -> list[tuple[int, int]]:
        """The first ``needed`` verified points, for interpolation."""
        return list(self.points.items())[: self.needed]


def reconstruct_raw(
    points: Iterable[tuple[int, int]],
    q: int,
) -> int:
    """Interpolate (index, value) pairs at 0 without verification.

    For internal use where shares were already verified (e.g. inside a
    node that validated ready messages via verify-point).
    """
    return interpolate_at(list(points), 0, q)


def lowest_valid(
    partials: Iterable[Any], q: int, need: int, is_valid: Callable[[Any], bool]
) -> dict[int, Any]:
    """The ``need`` lowest-index valid partials, as ``{index mod q: partial}``
    in index order -- fewer if the input runs out.

    Anything with an ``index`` attribute is walked in index order and put
    to ``is_valid`` only until ``need`` have passed: a threshold combine
    interpolates that many and the rest could not change its output.
    Signers are told apart by ``index mod q`` -- where a commitment
    evaluates -- so a partial relabelled ``i + q`` is signer ``i`` again
    (the first valid one is kept), and an index that is 0 mod q names no
    signer: that "share" would be the secret itself.
    """
    chosen: dict[int, Any] = {}
    for partial in sorted(partials, key=lambda p: p.index % q):
        x = partial.index % q
        if x == 0 or x in chosen:
            continue
        if is_valid(partial):
            chosen[x] = partial
            if len(chosen) == need:
                break
    return chosen
