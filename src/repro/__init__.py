"""repro — a reproduction of "Distributed Key Generation for the Internet"
(Aniket Kate & Ian Goldberg, ICDCS 2009).

The package implements, from scratch:

* the paper's cryptographic substrate (Schnorr groups, symmetric
  bivariate polynomials, Feldman commitments, Schnorr signatures, DLEQ
  proofs) — :mod:`repro.crypto`;
* a deterministic discrete-event network simulator with the paper's
  hybrid fault model (t Byzantine + f crash/link failures, weak
  synchrony for liveness) — :mod:`repro.sim`;
* **HybridVSS** (§3) — :mod:`repro.vss`;
* the asynchronous **DKG** with leader-based agreement (§4) —
  :mod:`repro.dkg`;
* proactive share renewal and recovery (§5) — :mod:`repro.proactive`;
* group modification protocols (§6) — :mod:`repro.groupmod`;
* threshold applications driven by DKG output (ElGamal, Schnorr
  signatures, DDH-based distributed PRF / coin flipping, a randomness
  beacon), each served by a request verb of :mod:`repro.service` —
  :mod:`repro.apps`;
* the sans-I/O execution core — protocols as pure
  ``step(event, env) -> [Effect]`` machines, a session-multiplexing
  :class:`~repro.runtime.runtime.ProtocolRuntime`, and the one effect
  interpreter every backend shares — :mod:`repro.runtime`;
* a real network runtime — wire codec, transport abstraction, and a
  localhost asyncio cluster running the same protocol machines (any
  number of sessions per endpoint) over actual TCP sockets —
  :mod:`repro.net`;
* a client-facing serving layer — request frames, an asyncio gateway
  with backpressure and batching, a presignature pool and a load
  generator — :mod:`repro.service`.

Quickstart::

    from repro.dkg import run_dkg, DkgConfig
    result = run_dkg(DkgConfig(n=7, t=2, f=0, seed=1))
    assert result.succeeded
    print(hex(result.public_key))

Same session over real sockets::

    from repro.net import run_local_cluster
    result = run_local_cluster(DkgConfig(n=7, t=2, f=0), seed=1)

Serve threshold-crypto requests from the DKG'd cluster (or from a
shell: ``repro serve`` / ``repro loadgen``)::

    from repro import ServiceConfig, ServiceFrontend, ThresholdService

The service entry points are re-exported lazily at package top level so
``import repro`` stays light.
"""

from __future__ import annotations

__version__ = "1.1.0"

# Service-layer entry points, resolved on first use (PEP 562).
_SERVICE_EXPORTS = (
    "LoadGenerator",
    "LoadReport",
    "PresigPool",
    "Presignature",
    "ServiceClient",
    "ServiceConfig",
    "ServiceFrontend",
    "SignerWorker",
    "ThresholdService",
    "run_loadgen",
)

__all__ = sorted((*_SERVICE_EXPORTS, "__version__"))


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        import importlib

        value = getattr(importlib.import_module("repro.service"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
