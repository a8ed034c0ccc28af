"""Unified observability: metrics registry, structured tracing, ops surface.

``repro.obs`` is the one place every layer of the stack reports into:

* :mod:`repro.obs.metrics` — a thread-safe process-wide registry of
  labelled counters, gauges and log-bucketed latency histograms, with a
  JSON snapshot and Prometheus-style text exposition;
* :mod:`repro.obs.trace` — driver-agnostic structured tracing of every
  ``step(event) -> [Effect]`` transition at the
  :class:`~repro.runtime.driver.MachineDriver` seam, including the
  full-payload flight-recorder capture format;
* :mod:`repro.obs.replay` — deterministic re-execution of payload
  captures through the sim driver with transcript-hash verification
  (``repro replay``);
* :mod:`repro.obs.analysis` — offline capture analytics: phase
  latencies, flow matrices, critical paths, step-duration percentiles
  (``repro trace``);
* :mod:`repro.obs.http` — a dependency-free HTTP endpoint serving the
  text and JSON expositions (``repro serve --metrics-port``);
* :mod:`repro.obs.logging` — named structured loggers carrying
  node/session context.

The package deliberately imports nothing from the rest of ``repro`` at
module scope (except the low-level runtime event/effect vocabulary in
``trace``), so any layer — crypto, sim, net, service — can import it
without cycles; the replay/analysis names below resolve lazily for the
same reason (they pull in the driver and protocol layers).
"""

from typing import Any

from repro.obs.metrics import (
    CardinalityError,
    MetricsRegistry,
    counter_inc,
    gauge_set,
    observe,
    register_collector,
    registry,
    set_registry,
)
from repro.obs.trace import (
    JsonlTraceSink,
    MemoryTraceSink,
    PayloadCodec,
    TraceSpan,
    set_trace_sink,
    trace_sink,
)

_LAZY = {
    "Capture": "repro.obs.replay",
    "ReplayError": "repro.obs.replay",
    "ReplayResult": "repro.obs.replay",
    "capture_meta": "repro.obs.replay",
    "load_capture": "repro.obs.replay",
    "replay_capture": "repro.obs.replay",
    "replay_file": "repro.obs.replay",
    "resolve_group_name": "repro.obs.replay",
    "TraceReport": "repro.obs.analysis",
    "analyze_capture": "repro.obs.analysis",
    "analyze_file": "repro.obs.analysis",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "CardinalityError",
    "MetricsRegistry",
    "counter_inc",
    "gauge_set",
    "observe",
    "register_collector",
    "registry",
    "set_registry",
    "JsonlTraceSink",
    "MemoryTraceSink",
    "PayloadCodec",
    "TraceSpan",
    "set_trace_sink",
    "trace_sink",
    *sorted(_LAZY),
]
