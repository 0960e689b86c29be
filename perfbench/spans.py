"""The benchmark's own span recorder.

Spans are kept in memory -- name, start, end, parent, thread and an
optional request id shared by every span of one analyst request -- and
written out as JSONL when the run ends.  The recorder lives here, not
in ``repro.obs``, so a change to the program's tracer cannot move the
ruler.

:func:`wrap` replaces a bound method on one object with a recording
shim (an instance attribute shadowing the class method), which is how
the traced runs time ``kg.crawl``, ``kg.store`` and the other calls
``run_once`` makes without touching the program.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: str = ""
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "request": self.request,
            "attrs": self.attrs,
        }


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_request(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent else None,
            thread=threading.current_thread().name,
            request=request,
            attrs=dict(attrs),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's
        intervals (children always run on the parent's thread here)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(
                children.get(span.span_id, []), key=lambda s: s.start
            ):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = max(0.0, span.duration - covered)
        return result

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        with path.open("w", encoding="utf-8") as handle:
            for span in ordered:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


class NullRecorder:
    """Stand-in for untraced rounds: spans cost one allocation and are
    dropped."""

    enabled = False

    def span(self, name: str, request: int | None = None, **attrs):
        return contextlib.nullcontext(Span(0, name, 0.0, attrs=dict(attrs)))

    def new_request(self) -> None:
        return None


NULL = NullRecorder()


def wrap(recorder: Recorder, owner, method: str, span_name: str, before=None, after=None):
    """Shadow ``owner.method`` with a span-recording shim.

    ``before(args, kwargs)`` runs just before the span opens and its
    return value is handed to ``after(span, result, state, args)``,
    which runs just after the span closes -- so the bookkeeping is
    never charged to the layer.  Returns an undo callable.
    """
    original = getattr(owner, method)

    def shim(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        with recorder.span(span_name) as span:
            result = original(*args, **kwargs)
        if after is not None:
            after(span, result, state, args)
        return result

    setattr(owner, method, shim)
    return lambda: owner.__dict__.pop(method, None)
