"""The pluggable group-backend interface.

The paper's protocols are defined over *any* prime-order group in which
discrete log is hard; everything the VSS/DKG/proactive/service stack
actually needs from that group is the small operation set captured by
:class:`AbstractGroup`.  Two backends implement it:

* :class:`repro.crypto.groups.SchnorrGroup` — multiplicative subgroups
  of Z_p^* with plain-int elements (the original representation, kept
  bit-for-bit compatible);
* :class:`repro.crypto.ec.EcGroup` — secp256k1 with
  :class:`~repro.crypto.ec.EcPoint` elements, ~an order of magnitude
  cheaper per exponentiation and 8x smaller wire elements at the same
  ~128-bit security level.

Protocol code never touches element internals: elements are opaque
hashable values produced and consumed by group methods, the
multiplicative vocabulary (``power``/``mul``/``commit``) is shared by
both backends, and the multiexp engines are reached through
``group.multiexp`` / ``group.fixed_base`` / ``group.shared_bases`` /
``group.comb_pair`` / ``group.batch_verifier`` instead of the int-typed
module functions.

:class:`BatchedClaimVerifier` is the backend-generic realization of the
randomized-linear-combination batch check (it replaces the int-typed
``BatchVerifier`` that used to live in :mod:`repro.crypto.multiexp`);
for the modp backend it reproduces that original's Fiat--Shamir weights
bit for bit, so seeded simulations are unchanged by the refactor.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence
from typing import Any, Protocol, runtime_checkable

from repro.crypto import metering
from repro.obs import metrics as obs_metrics


@runtime_checkable
class AbstractGroup(Protocol):
    """The operations the protocols require from a group backend.

    Elements are opaque, immutable, hashable values (``int`` for modp,
    :class:`~repro.crypto.ec.EcPoint` for secp256k1); scalars are plain
    ints in ``[0, q)``.  ``power``/``mul``/``commit`` use multiplicative
    vocabulary regardless of the backend's native notation.
    """

    name: str

    # scalar field Z_q
    @property
    def q(self) -> int: ...
    def scalar(self, x: int) -> int: ...
    def scalar_add(self, a: int, b: int) -> int: ...
    def scalar_sub(self, a: int, b: int) -> int: ...
    def scalar_mul(self, a: int, b: int) -> int: ...
    def scalar_neg(self, a: int) -> int: ...
    def scalar_inv(self, a: int) -> int: ...
    def random_scalar(self, rng: random.Random) -> int: ...
    def random_nonzero_scalar(self, rng: random.Random) -> int: ...

    # group operations
    @property
    def g(self) -> Any: ...
    @property
    def identity(self) -> Any: ...
    def power(self, base: Any, exponent: int) -> Any: ...
    def commit(self, exponent: int) -> Any: ...
    def mul(self, a: Any, b: Any) -> Any: ...
    def inv(self, a: Any) -> Any: ...
    def is_element(self, a: Any) -> bool: ...

    # multiexp engines
    def multiexp(self, pairs: Any) -> Any: ...
    def fixed_base(self, base: Any) -> Any: ...
    def shared_bases(self, bases: Any) -> Any: ...
    def comb_pair(self, base: Any) -> Any: ...
    def batch_verifier(self, entries: Any, base: Any = None) -> Any: ...

    # serialization with stable sizes (communication metering)
    @property
    def element_bytes(self) -> int: ...
    @property
    def scalar_bytes(self) -> int: ...
    @property
    def security_bits(self) -> int: ...
    def element_to_bytes(self, a: Any) -> bytes: ...
    def element_from_bytes(self, raw: bytes) -> Any: ...
    def element_decode(self, raw: bytes) -> Any: ...
    def scalar_to_bytes(self, x: int) -> bytes: ...
    def scalar_from_bytes(self, raw: bytes) -> int: ...

    # hashing into the group / scalar field
    def hash_to_scalar(self, *parts: bytes) -> int: ...
    def hash_to_element(self, *parts: bytes) -> Any: ...
    def second_generator(self, label: bytes = ...) -> Any: ...

    def validate(self) -> None: ...


def element_hex(group: AbstractGroup, element: Any) -> str:
    """Canonical hex display of a group element (CLI / JSON output)."""
    return group.element_to_bytes(element).hex()


class BatchedClaimVerifier:
    """Backend-generic randomized-linear-combination verification of
    many claims ``base^{v_i} == prod_l E_l^{i^l}`` against one entry
    vector ``E``.

    With nonzero Fiat--Shamir weights ``gamma_i`` the combined check

        base^{sum_i gamma_i v_i} == prod_l E_l^{sum_i gamma_i i^l}

    costs one fixed-base exponentiation plus one ``len(E)``-term
    multiexp regardless of batch size.  The weights are hashed from the
    entry vector and the claims themselves, so a corrupted claim
    re-randomizes every gamma and errors cannot be chosen to cancel —
    soundness (~1/q per item) does not rest on the salt being
    unpredictable, and seeded simulations stay deterministic.  A failed
    batch falls back to per-item checks that pinpoint the bad indices.
    """

    def __init__(
        self,
        group: AbstractGroup,
        entries: Sequence[Any],
        base: Any = None,
        rng: random.Random | None = None,
    ):
        self.group = group
        self.entries = tuple(entries)
        self.base = base if base is not None else group.g
        self.rng = rng or random.Random()
        self._shared: Any = None

    def _shared_bases(self) -> Any:
        if self._shared is None:
            self._shared = self.group.shared_bases(self.entries)
        return self._shared

    def check_one(self, index: int, value: int) -> bool:
        """Single-claim check via the shared tables (the fallback path)."""
        lhs = self.group.fixed_base(self.base).pow(value)
        return lhs == self._shared_bases().power_row(index)

    def _weights(self, batch: list[tuple[int, int]], salt: int) -> list[int]:
        """Fiat--Shamir weights hashed from the entries and the claims
        themselves — errors cannot be chosen to cancel, so soundness
        does not rest on the salt being unpredictable."""
        group = self.group
        q = group.q
        h = hashlib.sha256()
        h.update(b"rlc-weights|" + salt.to_bytes(16, "big"))
        for entry in self.entries:
            h.update(group.element_to_bytes(entry))
        for index, value in batch:
            h.update(group.scalar_to_bytes(index))
            h.update(group.scalar_to_bytes(value))
        seed = h.digest()
        weights = []
        for i in range(len(batch)):
            digest = hashlib.sha256(seed + i.to_bytes(4, "big")).digest()
            weights.append(int.from_bytes(digest, "big") % (q - 1) + 1)
        return weights

    def verify(
        self,
        items: Sequence[tuple[int, int]],
        rng: random.Random | None = None,
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Verify ``(index, value)`` claims; returns ``(good, bad_indices)``.

        Duplicate indices keep only the first occurrence; ``rng``
        overrides the weight-salt source for deterministic protocol runs.
        """
        rng = rng if rng is not None else self.rng
        unique: dict[int, int] = {}
        for index, value in items:
            unique.setdefault(index, value)
        batch = list(unique.items())
        if not batch:
            return [], []
        if len(batch) == 1:
            index, value = batch[0]
            if self.check_one(index, value):
                return batch, []
            return [], [index]
        # Exactly one salt draw per multi-claim batch: seeded transcripts
        # (and the pinned capture digests) depend on this rng stream.
        salt = rng.getrandbits(128)
        group = self.group
        q = group.q
        lhs_exp = 0
        agg = [0] * len(self.entries)
        weights = self._weights(batch, salt=salt)
        for gamma, (index, value) in zip(weights, batch):
            lhs_exp = (lhs_exp + gamma * value) % q
            ip = gamma % q
            for ell in range(len(self.entries)):
                agg[ell] = (agg[ell] + ip) % q
                ip = ip * index % q
        lhs = group.fixed_base(self.base).pow(lhs_exp)
        rhs = group.multiexp(zip(self.entries, agg))
        backend = "secp256k1" if group.name == "secp256k1" else "modp"
        if lhs == rhs:
            obs_metrics.counter_inc(
                metering.BATCH_VERIFY,
                help="batch-verify outcomes",
                backend=backend,
                outcome="batch_ok",
            )
            return batch, []
        obs_metrics.counter_inc(
            metering.BATCH_VERIFY,
            help="batch-verify outcomes",
            backend=backend,
            outcome="fallback",
        )
        good: list[tuple[int, int]] = []
        bad: list[int] = []
        for index, value in batch:
            if self.check_one(index, value):
                good.append((index, value))
            else:
                bad.append(index)
        return good, bad
