"""Client-facing request/response frames for the serving layer.

These are the messages that cross the *northbound* wire: an external
client speaks them to the :class:`~repro.service.frontend.ServiceFrontend`
gateway over the same length-prefixed binary framing as the protocol
traffic (:mod:`repro.net.wire`, codec version 2).  SIGN asks for a
threshold Schnorr signature, the one threshold application of §1 this
repository serves; STATUS and OPS are service introspection.

Every request carries a client-chosen ``request_id`` echoed in the
response, so a client may pipeline many requests on one connection and
correlate out-of-order completions.  The gateway answers every request
with exactly one frame: the matching ``*Response`` on success, or an
:class:`ErrorResponse` carrying one of the ``ERR_*`` codes (``ERR_BUSY``
is the backpressure signal — the bounded queue or the per-client
in-flight cap was hit).
"""

from __future__ import annotations

from dataclasses import dataclass

# Error codes carried by ErrorResponse.
ERR_BUSY = 1  # backpressure: request queue or per-client cap full
ERR_BAD_REQUEST = 2  # malformed/unsupported operation parameters
ERR_UNAVAILABLE = 3  # too few live signers to reach the threshold
ERR_FAILED = 4  # operation ran but could not produce a valid result

ERROR_NAMES = {
    ERR_BUSY: "busy",
    ERR_BAD_REQUEST: "bad-request",
    ERR_UNAVAILABLE: "unavailable",
    ERR_FAILED: "failed",
}


# -- requests ------------------------------------------------------------------


@dataclass(frozen=True)
class SignRequest:
    """Produce a threshold Schnorr signature over ``message``."""

    request_id: int
    message: bytes

    kind = "svc.sign"


@dataclass(frozen=True)
class StatusRequest:
    """Service introspection: thresholds, pool level, counters."""

    request_id: int

    kind = "svc.status"


@dataclass(frozen=True)
class OpsRequest:
    """Observability introspection: the cluster's metrics snapshot."""

    request_id: int

    kind = "svc.ops"


# -- responses -----------------------------------------------------------------


@dataclass(frozen=True)
class SignResponse:
    """A standard Schnorr signature (c, z) under the group key.

    ``presig_used`` reports whether the nonce came from the
    presignature pool (amortized) or an on-demand nonce DKG.
    """

    request_id: int
    challenge: int
    response: int
    presig_used: bool

    kind = "svc.sign.ok"


@dataclass(frozen=True)
class StatusResponse:
    """Service health snapshot.

    ``public_key`` is the DKG group key, letting clients verify
    signatures locally with plain :func:`repro.crypto.schnorr.verify`
    (threshold signatures are indistinguishable from single-signer
    ones); ``group_name`` resolves the parameters via
    :func:`repro.crypto.groups.group_by_name`.
    """

    request_id: int
    n: int
    t: int
    alive: int
    pool_ready: int
    pool_target: int
    served: int
    failed: int
    public_key: int
    group_name: str

    kind = "svc.status.ok"


@dataclass(frozen=True)
class OpsResponse:
    """The metrics registry snapshot, JSON-encoded.

    ``snapshot`` is a UTF-8 JSON document ``{"schema": 1, "status":
    {...}, "metrics": {...}}`` — the same registry schema the
    ``/metrics.json`` HTTP endpoint serves, carried opaquely so new
    metric families never need a codec change.
    """

    request_id: int
    snapshot: bytes

    kind = "svc.ops.ok"


@dataclass(frozen=True)
class ErrorResponse:
    """Request-level failure; ``code`` is one of the ``ERR_*`` values."""

    request_id: int
    code: int
    detail: str

    kind = "svc.err"


REQUEST_TYPES = (
    SignRequest,
    StatusRequest,
    OpsRequest,
)

RESPONSE_TYPES = (
    SignResponse,
    StatusResponse,
    OpsResponse,
    ErrorResponse,
)
