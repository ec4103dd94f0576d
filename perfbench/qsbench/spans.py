"""In-memory span recording and the wrappers that produce spans.

A span is ``(id, name, start, end, parent, request)``.  Spans nest per
thread: a span opened while another is open on the same thread becomes its
child and inherits its request id; a root span takes the request id it is
given (the batch id the load generator sent) or a fresh one.  Nothing is
written until :meth:`SpanRecorder.dump` runs at the end of the benchmark.

The wrappers patch an attribute on a module or class and return an undo
callable.  A module-level function is also re-bound in every loaded
``repro`` module that imported it by name, so call sites that did
``from x import f`` are traced too.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("id", "request")

    def __init__(self, span_id: int, request: object) -> None:
        self.id = span_id
        self.request = request


class SpanRecorder:
    """Collects spans and named counters from any thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, request: object = None) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent.request if parent else f"r{next(self._requests)}"
        frame = _Open(next(self._ids), request)
        stack.append(frame)
        return frame, parent, self.clock()

    def end(self, name: str, token: tuple) -> None:
        frame, parent, start = token
        end = self.clock()
        stack = self._stack()
        stack.pop()
        self.spans.append(
            Span(
                frame.id,
                name,
                start,
                end,
                parent.id if parent else None,
                frame.request,
            )
        )

    def cancel(self, token: tuple) -> None:
        """Close ``token`` without recording a span."""
        self._stack().pop()

    def span(self, name: str, request: object = None) -> "_SpanContext":
        return _SpanContext(self, name, request)

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("recorder", "name", "request", "token")

    def __init__(self, recorder: SpanRecorder, name: str, request: object) -> None:
        self.recorder = recorder
        self.name = name
        self.request = request

    def __enter__(self) -> None:
        self.token = self.recorder.begin(self.request)

    def __exit__(self, *_exc: object) -> None:
        self.recorder.end(self.name, self.token)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


# -- wrappers ------------------------------------------------------------------


def rebind_imports(original: object, replacement: object, prefix: str = "repro") -> List[tuple]:
    """Re-bind ``original`` to ``replacement`` wherever a module imported it."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith(prefix):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _undo(entries: List[tuple]) -> Callable[[], None]:
    def restore() -> None:
        for owner, attr, value in reversed(entries):
            setattr(owner, attr, value)

    return restore


def wrap_function(
    owner: object,
    attr: str,
    name: str,
    recorder: SpanRecorder,
    *,
    request_of: Optional[Callable[..., object]] = None,
    rebind: bool = False,
) -> Callable[[], None]:
    """Record a span around every call of ``owner.attr``.

    ``request_of(*args, **kwargs)`` picks the request id for a root span
    (for instance the batch id of a request).  With ``rebind``, also
    replace the function wherever a ``repro`` module imported it by name.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        request = request_of(*args, **kwargs) if request_of else None
        token = recorder.begin(request)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.end(name, token)

    entries = [(owner, attr, original)]
    setattr(owner, attr, wrapper)
    if rebind:
        entries += rebind_imports(original, wrapper)
    return _undo(entries)


def wrap_enter(
    owner: object, attr: str, name: str, recorder: SpanRecorder
) -> Callable[[], None]:
    """Record a span around ``__enter__`` of the context manager returned
    by ``owner.attr(...)`` (the acquisition, not the body)."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _TimedEnter(original(*args, **kwargs), name, recorder)

    setattr(owner, attr, wrapper)
    return _undo([(owner, attr, original)])


class _TimedEnter:
    def __init__(self, inner, name: str, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.name = name
        self.recorder = recorder

    def __enter__(self):
        with self.recorder.span(self.name):
            return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


def wrap_generator(
    owner: object, attr: str, name: str, recorder: SpanRecorder
) -> Callable[[], None]:
    """Record a span around each item a generator function produces."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _timed_items(original(*args, **kwargs), name, recorder)

    setattr(owner, attr, wrapper)
    return _undo([(owner, attr, original)])


def _timed_items(items, name: str, recorder: SpanRecorder) -> Iterator[object]:
    iterator = iter(items)
    while True:
        token = recorder.begin()
        try:
            item = next(iterator)
        except StopIteration:
            recorder.cancel(token)
            return
        except BaseException:
            recorder.end(name, token)
            raise
        recorder.end(name, token)
        yield item
