"""Which entry points the traced pass wraps, and the per-layer metrics
read off the spans and the ``repro.obs`` registry.

Layer names are the repository's modules.  Every count and time is
reported *per completed operation* (one DKG, one signature) so that
runs which fit a different number of operations into their window
compare.
"""

from __future__ import annotations

import importlib
import statistics
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs import metrics as obs_metrics

from bench import stats
from bench.tracing import Totals, Tracer
from bench.workloads import Recorder

# Owner ("module" or "module:Class") -> {attribute: span name}.  The
# owner is where callers look the attribute up: ``dkg.node`` imports
# ``verify_proof`` by name, so that module's binding is the one replaced.
ENTRY_POINTS: dict[str, dict[str, str]] = {
    "repro.sim.pki:CertificateAuthority": {"verify": "crypto.sig_verify"},
    "repro.sim.pki:KeyStore": {"sign": "crypto.sig_sign"},
    "repro.crypto.feldman:FeldmanCommitment": {
        "verify_poly": "crypto.commit_verify",
        "verify_point": "crypto.commit_verify",
        "batch_verify_points": "crypto.commit_verify",
        "commit": "crypto.commit_build",
    },
    "repro.crypto.feldman:FeldmanVector": {
        "batch_verify": "crypto.commit_verify",
        "commit": "crypto.commit_build",
    },
    "repro.crypto.bivariate:BivariatePolynomial": {
        "random_symmetric": "crypto.commit_build",
    },
    "repro.dkg.node": {"verify_proof": "dkg.proof_verify"},
    # A runtime steps its session's machine; the inner step is absorbed.
    "repro.runtime.runtime:ProtocolRuntime": {"step": "dkg.step"},
    "repro.sim.node:ProtocolNode": {"step": "dkg.step"},
    "repro.runtime.driver:MachineDriver": {"dispatch": "runtime.dispatch"},
    "repro.sim.runner:Simulation": {"run": "sim.runner"},
    "repro.net.wire": {
        "encode": "net.wire.encode",
        "decode": "net.wire.decode",
        "encoded_size": "net.wire.size",
    },
    "repro.net.transport:AsyncioTransport": {
        "_dispatch_frame": "net.transport",
        "enqueue_message": "net.transport",
    },
    "repro.service.workers": {"run_dkg_sessions": "service.presig.forge"},
    "repro.apps.threshold_schnorr": {
        "partial_sign": "service.workers.partial_sign",
        "combine": "service.workers.combine",
    },
    "repro.crypto.schnorr": {"verify": "service.workers.final_verify"},
}

# Size stamping encodes to measure; that is size time, not encode time.
ABSORBED_BY = {"net.wire.encode": ("net.wire.size",)}

SIGN_HIT = "service.workers.sign_hit"
SIGN_MISS = "service.workers.sign_miss"

# Longest prefix wins; a span name belongs to exactly one layer.
LAYERS = (
    "crypto",
    "dkg",
    "runtime",
    "sim",
    "net.wire",
    "net.transport",
    "service.presig",
    "service.workers",
)


def layer_of(span_name: str) -> str:
    return max(
        (
            layer
            for layer in LAYERS
            if span_name == layer or span_name.startswith(layer + ".")
        ),
        key=len,
    )


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    resolved = importlib.import_module(module)
    return getattr(resolved, cls) if cls else resolved


def install(tracer: Tracer) -> None:
    """Interpose ``tracer`` on every entry point."""
    for owner, attributes in ENTRY_POINTS.items():
        for attr, name in attributes.items():
            tracer.patch(_resolve(owner), attr, name, ABSORBED_BY.get(name, ()))
    # An awaited wall time, split by where the nonce came from.
    tracer.patch(
        _resolve("repro.service.workers:ThresholdService"),
        "sign",
        lambda result: SIGN_HIT if result[1] else SIGN_MISS,
    )


@dataclass
class Trace:
    """One traced section: its spans and the registry counting it."""

    tracer: Tracer
    registry: obs_metrics.MetricsRegistry

    def counters(self) -> dict[str, float]:
        return read_counters(self.registry)


@contextmanager
def traced() -> Iterator[Trace]:
    """A traced section: wrappers on, a fresh ``repro.obs`` registry in
    place to read exact counts from; both undone on exit."""
    trace = Trace(Tracer(), obs_metrics.MetricsRegistry())
    previous = obs_metrics.set_registry(trace.registry)
    install(trace.tracer)
    try:
        yield trace
    finally:
        trace.tracer.restore()
        obs_metrics.set_registry(previous)


def _sum(snapshot: dict, family: str, field: str = "value", **labels: str) -> float:
    return sum(
        sample[field]
        for sample in snapshot.get(family, {}).get("samples", ())
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


def read_counters(registry: obs_metrics.MetricsRegistry) -> dict[str, float]:
    """The running totals the per-layer counts are differenced from."""
    snap = registry.snapshot()
    return {
        "group_ops": _sum(snap, "repro_crypto_group_ops_total"),
        "batch_verify": _sum(snap, "repro_crypto_batch_verify_total"),
        "fixed_base_hit": _sum(
            snap, "repro_crypto_fixed_base_cache_total", outcome="hit"
        ),
        "fixed_base_miss": _sum(
            snap, "repro_crypto_fixed_base_cache_total", outcome="miss"
        ),
        "frames": _sum(snap, "repro_net_frames_sent_total"),
        "bytes_sent": _sum(snap, "repro_net_bytes_sent_total"),
        "refill_s": _sum(snap, "repro_service_pool_refill_seconds", "sum"),
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def metrics(
    trace: Trace, rec: Recorder, untraced: Recorder
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` for the traced
    section ``rec`` (``bench/README.md`` has the table), and the
    layer budget ``{thread class: {layer: self seconds}}`` behind it.
    ``untraced`` is the same workload measured just before, wrappers
    off."""
    tracer = trace.tracer
    ops = len(rec.op_s)
    main, other = tracer.totals(rec.windows)

    def total(name: str) -> Totals:
        a, b = main.get(name, Totals()), other.get(name, Totals())
        return Totals(a.calls + b.calls, a.busy_s + b.busy_s, a.self_s + b.self_s)

    budget: dict[str, dict[str, float]] = {"loop": {}, "threads": {}}
    for where, totals in (("loop", main), ("threads", other)):
        for name, entry in totals.items():
            layer = layer_of(name)
            budget[where][layer] = budget[where].get(layer, 0.0) + entry.self_s
    wall = rec.window_s
    budget["loop"]["unattributed"] = wall - sum(budget["loop"].values())

    out: dict[str, float] = {}
    for name in (
        "crypto.sig_verify",
        "crypto.sig_sign",
        "crypto.commit_verify",
        "dkg.proof_verify",
        "net.wire.encode",
        "net.wire.decode",
    ):
        out[f"{name}.calls"] = total(name).calls / ops
        out[f"{name}.busy_s"] = total(name).busy_s / ops
    for name in (
        "crypto.commit_build",
        "net.wire.size",
        "service.presig.forge",
        "service.workers.partial_sign",
        "service.workers.combine",
        "service.workers.final_verify",
    ):
        out[f"{name}.busy_s"] = total(name).busy_s / ops
    for name in ("dkg.step", "runtime.dispatch"):
        out[f"{name}.calls"] = total(name).calls / ops
        out[f"{name}.self_s"] = total(name).self_s / ops
    out["sim.runner.self_s"] = total("sim.runner").self_s / ops
    out["net.transport.self_s"] = total("net.transport").self_s / ops
    out["crypto.self_s"] = (
        budget["loop"].get("crypto", 0.0) + budget["threads"].get("crypto", 0.0)
    ) / ops

    counts = rec.counts
    out["crypto.group_ops"] = counts["group_ops"] / ops
    out["crypto.batch_verify.calls"] = counts["batch_verify"] / ops
    out["crypto.fixed_base_hit_ratio"] = _ratio(
        counts["fixed_base_hit"], counts["fixed_base_miss"]
    )
    out["net.transport.frames"] = counts["frames"] / ops
    out["net.transport.bytes_sent"] = counts["bytes_sent"] / ops
    out["service.presig.refill_s"] = counts["refill_s"] / ops
    # A quantile cannot be differenced; the registry is fresh, so this
    # is the median over the traced section.
    out["service.frontend.batch_size_p50"] = _sum(
        trace.registry.snapshot(), "repro_service_batch_size", "p50"
    )

    extra = rec.extra
    out["service.presig.forge.calls"] = extra.get("presigs_forged", 0.0) / ops
    out["service.presig.wasted"] = extra.get("presigs_wasted", 0.0)
    out["service.presig.hit_ratio"] = _ratio(
        extra.get("sign_hits", 0.0), extra.get("sign_misses", 0.0)
    )
    for label, key in ((SIGN_HIT, "sign_hit_ms"), (SIGN_MISS, "sign_miss_ms")):
        waits = tracer.awaited_in(label, rec.windows)
        out[f"service.workers.{key}"] = (
            statistics.median(waits) * 1000 if waits else 0.0
        )
    out["service.frontend.status_rtt_ms"] = extra.get("status_rtt_ms", 0.0)
    out["service.frontend.busy_rejections"] = extra.get("busy_rejections", 0.0)
    tail = stats.tail(rec.op_s) if "sign_hits" in extra else None
    out["service.frontend.sign_tail_ms"] = tail[1] * 1000 if tail else 0.0

    out["trace.wall_s"] = wall / ops
    out["trace.unattributed_s"] = budget["loop"]["unattributed"] / ops
    out["trace.worker_threads_s"] = sum(budget["threads"].values()) / ops
    out["obs.trace_overhead_ratio"] = (
        statistics.median(rec.op_s) / statistics.median(untraced.op_s) - 1.0
    )
    return out, budget
