"""A thread-safe process-wide metrics registry.

Three metric kinds, all labelled:

* **counter** — monotone totals (``repro_net_frames_sent_total{kind}``);
* **gauge** — point-in-time levels (``repro_service_pool_depth``);
* **histogram** — latency/size distributions in log-spaced buckets.
  Only bucket counts are retained (no samples), and p50/p90/p99 are
  interpolated from the cumulative bucket counts, so memory stays O(1)
  per metric regardless of traffic.

The registry exports two views of the same data: :meth:`snapshot`, a
JSON-serializable dict (the OPS wire frame and ``/metrics.json``), and
:meth:`render_text`, Prometheus text exposition (``/metrics``).

Hot paths use the module-level helpers (:func:`counter_inc`,
:func:`gauge_set`, :func:`observe`), or a :class:`Bound` family, against
the *active* registry; when :func:`set_registry` has installed ``None``
they are no-ops, which is how the overhead benchmark measures the
instrumented stack against the bare one.  Subsystems that cannot
afford even a dict lookup per event (the crypto engines) keep plain
counters and publish them lazily via :func:`register_collector` —
collectors run at snapshot/render time.

Label cardinality is bounded: a family that accumulates more than
``label_limit`` distinct label sets raises :class:`CardinalityError`
instead of silently eating memory.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable

DEFAULT_LABEL_LIMIT = 512

#: Log-spaced latency buckets: three per decade from 100us to ~4600s,
#: plus the implicit +Inf bucket.  Wide enough for toy-group microtests
#: and multi-second realistic-group DKGs alike.
DEFAULT_BUCKETS = tuple(round(1e-4 * 10 ** (i / 3), 10) for i in range(24))


class CardinalityError(ValueError):
    """A metric family exceeded its distinct-label-set budget."""


class Counter:
    """A monotone counter child (one label set of a family)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def set_total(self, value: int) -> None:
        """Overwrite the total (collector-backed counters only)."""
        with self._lock:
            self.value = value


class Gauge:
    """A point-in-time level child."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Bucket-count histogram; quantiles interpolated from buckets.

    ``bounds`` are ascending upper bucket edges; observations equal to
    an edge land in that edge's bucket (``le`` semantics).  Values above
    the last edge land in the implicit +Inf bucket, and quantiles that
    fall there clamp to the last finite edge.
    """

    __slots__ = ("_lock", "bounds", "counts", "total", "sum")

    def __init__(self, lock: threading.Lock, bounds: tuple[float, ...]):
        self._lock = lock
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.total += 1
            self.sum += value

    def quantile(self, fraction: float) -> float:
        """Estimate the ``fraction`` quantile by linear interpolation
        within the bucket where the cumulative count crosses it.
        Returns 0.0 for an empty histogram."""
        with self._lock:
            total = self.total
            counts = list(self.counts)
        if total == 0:
            return 0.0
        rank = fraction * total
        cumulative = 0.0
        for idx, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank or idx == len(counts) - 1:
                if idx >= len(self.bounds):
                    # +Inf bucket: clamp to the last finite edge.
                    return self.bounds[-1] if self.bounds else 0.0
                lo = self.bounds[idx - 1] if idx > 0 else 0.0
                hi = self.bounds[idx]
                inner = min(max((rank - cumulative) / count, 0.0), 1.0)
                return lo + (hi - lo) * inner
            cumulative += count
        return self.bounds[-1] if self.bounds else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All children (label sets) of one metric name."""

    __slots__ = (
        "kind",
        "name",
        "help",
        "buckets",
        "label_limit",
        "_children",
        "_by_call",
        "_lock",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        label_limit: int,
    ):
        self.kind = kind
        self.name = name
        self.help = help_text
        self.buckets = buckets
        self.label_limit = label_limit
        self._children: dict[tuple, Any] = {}  # by normalised label set
        # The same children by label items as a caller spelled them, so a
        # hot path that repeats its call skips the sort and the str().
        # Only all-str spellings: 1 == True, but str(1) != str(True).
        self._by_call: dict[tuple, Any] = {}
        self._lock = threading.Lock()

    def child(self, labels: dict[str, Any]) -> Any:
        call = tuple(labels.items())
        try:
            return self._by_call[call]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            pass
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        child = self._children.get(key)
        if child is None:
            child = self._new_child(key)
        if len(self._by_call) < 4 * self.label_limit and all(
            type(v) is str for v in labels.values()
        ):
            self._by_call[call] = child
        return child

    def _new_child(self, key: tuple) -> Any:
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self.label_limit:
                    raise CardinalityError(
                        f"metric {self.name!r} exceeded {self.label_limit} "
                        "distinct label sets"
                    )
                if self.kind == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = _KINDS[self.kind](self._lock)
                self._children[key] = child
        return child

    def items(self) -> list[tuple[tuple, Any]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A process-wide (or scoped) collection of metric families."""

    def __init__(self, label_limit: int = DEFAULT_LABEL_LIMIT):
        self.label_limit = label_limit
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- metric accessors (create-on-first-use) --------------------------------

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._metric("counter", name, help, DEFAULT_BUCKETS, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._metric("gauge", name, help, DEFAULT_BUCKETS, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        return self._metric(
            "histogram", name, help, tuple(buckets or DEFAULT_BUCKETS), labels
        )

    def _metric(
        self,
        kind: str,
        name: str,
        help_text: str,
        buckets: tuple[float, ...],
        labels: dict[str, Any],
    ) -> Any:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = _Family(kind, name, help_text, buckets, self.label_limit)
                    self._families[name] = family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        return family.child(labels)

    # -- exposition ------------------------------------------------------------

    def snapshot(self, *, collect: bool = True) -> dict[str, Any]:
        """A JSON-serializable dict of every family and child."""
        if collect:
            run_collectors(self)
        out: dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key, child in family.items():
                labels = dict(key)
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.total,
                            "sum": child.sum,
                            "p50": child.quantile(0.50),
                            "p90": child.quantile(0.90),
                            "p99": child.quantile(0.99),
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[name] = {"type": family.kind, "help": family.help, "samples": samples}
        return out

    def render_text(self, *, collect: bool = True) -> str:
        """Prometheus text exposition (histograms as cumulative buckets)."""
        if collect:
            run_collectors(self)
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in family.items():
                labels = dict(key)
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(family.buckets, child.counts):
                        cumulative += count
                        lines.append(
                            f"{name}_bucket"
                            f"{_label_str({**labels, 'le': _fmt(bound)})} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f'{name}_bucket{_label_str({**labels, "le": "+Inf"})} '
                        f"{child.total}"
                    )
                    lines.append(f"{name}_sum{_label_str(labels)} {_fmt(child.sum)}")
                    lines.append(f"{name}_count{_label_str(labels)} {child.total}")
                else:
                    lines.append(f"{name}{_label_str(labels)} {_fmt(child.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


# -- the active registry and hot-path helpers ----------------------------------

_active: MetricsRegistry | None = MetricsRegistry()
_collectors: list[Callable[[MetricsRegistry], None]] = []


def registry() -> MetricsRegistry | None:
    """The active registry, or ``None`` when metering is disabled."""
    return _active


def set_registry(reg: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``reg`` as the active registry; returns the previous one.

    Passing ``None`` disables all hot-path helpers (the benchmark's
    baseline mode); passing a fresh :class:`MetricsRegistry` scopes
    subsequent measurements (test isolation).
    """
    global _active
    previous = _active
    _active = reg
    return previous


def register_collector(fn: Callable[[MetricsRegistry], None]):
    """Register a snapshot-time collector (see :mod:`repro.crypto.metering`)."""
    _collectors.append(fn)
    return fn


def run_collectors(reg: MetricsRegistry) -> None:
    for fn in list(_collectors):
        try:
            fn(reg)
        except Exception:  # pragma: no cover - collectors are best-effort
            pass


class Bound:
    """One metric family of the active registry, held by a hot path:
    each label value's child is looked up once, and again after
    :func:`set_registry` swaps the registry (a no-op while none is)."""

    __slots__ = ("name", "help", "label", "kind", "_state")

    def __init__(self, name: str, help: str, label: str = "", kind: str = "counter"):
        self.name, self.help, self.label, self.kind = name, help, label, kind
        # (registry, label value -> child), swapped whole: no thread
        # pairs one registry with another's children.
        self._state: tuple[MetricsRegistry | None, dict] = (None, {})

    def child(self, value: str = "") -> Any:
        reg, children = self._state
        if reg is not _active:
            reg, children = self._state = (_active, {})
        child = children.get(value)
        if child is None and reg is not None:
            labels = {self.label: value} if self.label else {}
            child = children[value] = reg._metric(
                self.kind, self.name, self.help, DEFAULT_BUCKETS, labels
            )
        return child

    def inc(self, value: str = "", amount: int = 1) -> None:
        if (child := self.child(value)) is not None:
            child.inc(amount)

    def observe(self, amount: float) -> None:
        if (child := self.child()) is not None:
            child.observe(amount)


def counter_inc(name: str, amount: int = 1, help: str = "", **labels: Any) -> None:
    reg = _active
    if reg is not None:
        reg.counter(name, help, **labels).inc(amount)


def gauge_set(name: str, value: float, help: str = "", **labels: Any) -> None:
    reg = _active
    if reg is not None:
        reg.gauge(name, help, **labels).set(value)


def observe(
    name: str,
    value: float,
    help: str = "",
    buckets: tuple[float, ...] | None = None,
    **labels: Any,
) -> None:
    reg = _active
    if reg is not None:
        reg.histogram(name, help, buckets, **labels).observe(value)


def snapshot() -> dict[str, Any]:
    """Snapshot of the active registry ({} when metering is disabled)."""
    reg = _active
    return reg.snapshot() if reg is not None else {}


def render_text() -> str:
    reg = _active
    return reg.render_text() if reg is not None else ""
