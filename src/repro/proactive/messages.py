"""Messages and outputs for the proactive protocols (§5)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.feldman import FeldmanVector


@dataclass(frozen=True)
class ClockTickMsg:
    """A node announcing its local clock tick for ``phase`` (§5.1).

    Nodes wait for t+1 identical ticks before proceeding with the
    renewal Sh instances, which synchronizes phases without a common
    clock."""

    phase: int

    kind = "proactive.tick"


@dataclass(frozen=True)
class RenewInput:
    """Operator: your local clock ticked for ``phase`` — start renewal."""

    phase: int

    kind = "proactive.in.renew"


@dataclass(frozen=True)
class RenewedOutput:
    """A node's result of share renewal for ``phase``.

    ``commitment`` is the degree-t univariate Feldman vector
    V_l = prod_d ((C_d)_l0)^(lambda_d) of §5.2; ``share`` the renewed
    share.  ``commitment.public_key()`` equals g^s for the *original*
    secret s — renewal never changes the secret."""

    phase: int
    commitment: FeldmanVector
    share: int
    q_set: tuple[int, ...]

    kind = "proactive.out.renewed"
