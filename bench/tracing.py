"""In-memory spans recorded from outside the program.

The traced pass interposes timing wrappers on each layer's entry points
(:meth:`Tracer.patch` replaces the attribute where callers look it up
and :meth:`Tracer.restore` puts the original object back).  A span is
``[name, start, end, parent]``; every thread keeps its own span list
and parent stack, so spans of the forge threads nest among themselves
and never under a span of the event-loop thread.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

Window = tuple[float, float]


@dataclass
class Totals:
    """What one span name added up to on one thread class."""

    calls: int = 0
    busy_s: float = 0.0  # inclusive: the span and everything under it
    self_s: float = 0.0  # the span minus its direct children


class _ThreadState:
    __slots__ = ("spans", "stack", "names")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []  # indices into spans of the open spans
        self.names: list[str] = []  # their names, for the absorb test


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.main_thread = threading.get_ident()
        # label -> (start, end) of each awaited call of an async entry
        # point.  These are waits, not work, and take no part in the
        # self-time arithmetic.
        self.awaited: dict[str, list[Window]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, _ThreadState] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads[threading.get_ident()] = state
        return state

    def wrap(
        self, fn: Callable, name: str, absorbed_by: Iterable[str] = ()
    ) -> Callable:
        """``fn`` recording one span per call.  A call made while a span
        of the same name, or of a name in ``absorbed_by``, is open on
        this thread runs unrecorded: its time stays in that span."""
        absorbed = frozenset((name, *absorbed_by))
        get_state = self._state
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = get_state()
            if not absorbed.isdisjoint(state.names):
                return fn(*args, **kwargs)
            stack = state.stack
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(state.spans))
            state.spans.append(span)
            state.names.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                state.names.pop()

        return traced

    def wrap_async(
        self, fn: Callable, label: str | Callable[[Any], str]
    ) -> Callable:
        """An async ``fn`` recording the wall time of each awaited call
        under ``label`` (or ``label(result)``).  A call that raises is
        not recorded."""
        clock = self.clock
        awaited = self.awaited

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = clock()
            result = await fn(*args, **kwargs)
            name = label(result) if callable(label) else label
            awaited.setdefault(name, []).append((start, clock()))
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[Any], str],
        absorbed_by: Iterable[str] = (),
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with its
        traced form until :meth:`restore`."""
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                self.wrap(original.__func__, name, absorbed_by)
            )
        elif inspect.iscoroutinefunction(original):
            wrapped = self.wrap_async(original, name)
        else:
            wrapped = self.wrap(original, name, absorbed_by)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def totals(
        self, windows: list[Window]
    ) -> tuple[dict[str, Totals], dict[str, Totals]]:
        """Totals per span name over the finished spans that started
        inside one of ``windows``, as ``(event-loop thread, other
        threads)``."""
        with self._lock:
            threads = dict(self._threads)
        main: dict[str, Totals] = {}
        other: dict[str, Totals] = {}
        for ident, state in threads.items():
            into = main if ident == self.main_thread else other
            # A forge thread may still be appending; work on a copy.
            spans = list(state.spans)
            children = [0.0] * len(spans)
            for span in spans:
                if span[2] and span[3] >= 0:
                    children[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                if not span[2]:
                    continue  # still open
                if not any(lo <= span[1] < hi for lo, hi in windows):
                    continue
                entry = into.setdefault(span[0], Totals())
                duration = span[2] - span[1]
                entry.calls += 1
                entry.busy_s += duration
                entry.self_s += duration - children[index]
        return main, other

    def awaited_in(self, label: str, windows: list[Window]) -> list[float]:
        """Durations of the awaited calls under ``label`` that started
        inside one of ``windows``."""
        return [
            end - start
            for start, end in self.awaited.get(label, ())
            if any(lo <= start < hi for lo, hi in windows)
        ]
