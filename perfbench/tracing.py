"""In-memory span recorder that wraps public calls of the program.

Spans are recorded from the benchmark's side only: :meth:`Tracer.patch`
replaces one attribute (a method on an *instance*, or a function on a
module or class) with a timing wrapper and restores the original on
exit.  Instances keep their class, so ``isinstance`` dispatch inside the
program (the batch executor picks its mode that way) takes the same
path traced and untraced.

Each span carries a name, start, end, parent span and request id.  A
layer's self time is its span's duration minus the time its child spans
cover; children run on the parent's thread, so their durations add up
without overlap.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotals:
    """Aggregate of every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans in memory; :meth:`layers` folds them per name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Free-form counters filled by ``on_result`` hooks.
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ----------------------------------------------------
    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        function: Callable,
        *,
        request: bool = False,
        on_result: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """A timing wrapper around ``function``.

        ``request=True`` starts a new request id for the span and its
        subtree; other spans inherit the enclosing request's id.
        ``on_result(result, args, kwargs)`` runs after the call, outside
        the timed interval.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            parent, parent_request = stack[-1] if stack else (None, None)
            span_id = next(self._ids)
            request_id = span_id if request else parent_request
            stack.append((span_id, request_id))
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, request_id)
                )
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        *,
        request: bool = False,
        on_result: Callable[[Any, tuple, dict], None] | None = None,
    ) -> Iterator[None]:
        """Replace ``owner.attribute`` by a traced wrapper for the block."""
        own = attribute in getattr(owner, "__dict__", {})
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            # Class attribute: wrap the plain function so the wrapper is
            # bound like the method it replaces.
            original = owner.__dict__[attribute]
        setattr(
            owner,
            attribute,
            self.wrap(name, original, request=request, on_result=on_result),
        )
        try:
            yield
        finally:
            if own or isinstance(owner, type):
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- analysis -----------------------------------------------------
    def layers(self) -> dict[str, LayerTotals]:
        """Calls, total and self seconds per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span in self.spans:
            entry = totals[span.name]
            entry.calls += 1
            entry.total_s += span.duration
            entry.self_s += max(0.0, span.duration - child_time[span.span_id])
        return dict(totals)

    def covered_seconds(self, begin: float, end: float) -> float:
        """Wall time in ``[begin, end]`` covered by at least one root span."""
        intervals = sorted(
            (max(span.start, begin), min(span.end, end))
            for span in self.spans
            if span.parent is None and span.end > begin and span.start < end
        )
        covered = 0.0
        cursor = begin
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered


def patch_all(tracer: Tracer, specs: list[tuple]) -> ExitStack:
    """Enter :meth:`Tracer.patch` for every ``(owner, attribute, name,
    options)`` spec; closing the returned stack restores them all."""
    stack = ExitStack()
    for owner, attribute, name, options in specs:
        stack.enter_context(tracer.patch(owner, attribute, name, **options))
    return stack
