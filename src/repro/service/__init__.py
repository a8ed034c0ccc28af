"""repro.service — a client-facing threshold-crypto serving layer.

The paper's opening claim (§1) is that a practical *dealerless* DKG is
the missing building block for Internet-scale distributed services:
threshold signatures, threshold encryption, distributed PRFs, random
oracles and coin tossing all start from a shared key that no dealer
ever held.  :mod:`repro.dkg` produces that key and :mod:`repro.net`
runs the protocol over real sockets; this package puts the first of
those on top — a long-running threshold-signing service that external
clients can actually send requests to:

* :mod:`repro.service.protocol` — the client wire frames (SIGN,
  STATUS, OPS) on the :mod:`repro.net.wire` framing;
* :mod:`repro.service.workers` — per-node request handlers holding the
  key/nonce shares, threshold fan-out with batch partial verification,
  and :class:`ThresholdService`, the assembled service (bootstrap DKG,
  workers, pool);
* :mod:`repro.service.presig` — the presignature pool: signing needs a
  *fresh shared nonce, which is another DKG* (§1's "building block"
  observation cuts both ways) — the pool keeps K nonce DKGs
  precomputed off the request path, refills at a low watermark and
  invalidates entries a crashed node contributed to;
* :mod:`repro.service.frontend` — the asyncio TCP gateway with
  per-client backpressure, a bounded request queue and request
  batching;
* :mod:`repro.service.loadgen` — a concurrent client load generator
  with latency percentiles (``repro loadgen``).

Exports are lazy (PEP 562) so :mod:`repro.net.wire` can register the
protocol frame codecs without importing the server machinery.
"""

from __future__ import annotations

_EXPORTS = {
    "ERR_BAD_REQUEST": "protocol",
    "ERR_BUSY": "protocol",
    "ERR_FAILED": "protocol",
    "ERR_UNAVAILABLE": "protocol",
    "LoadGenerator": "loadgen",
    "LoadReport": "loadgen",
    "PresigPool": "presig",
    "Presignature": "presig",
    "ServiceClient": "loadgen",
    "ServiceConfig": "workers",
    "ServiceFrontend": "frontend",
    "ServiceUnavailable": "workers",
    "SignerWorker": "workers",
    "ThresholdService": "workers",
    "WorkerCrashed": "workers",
    "run_loadgen": "loadgen",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
