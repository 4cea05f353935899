"""Span recording around calls into the package's layers, and self-time aggregation.

A span is one call into a layer's public function: its name, start, end, the
span that was open when it began (its parent), the request it belongs to, an
optional tag (such as the degree d) and whether it raised.  Spans stay in
memory and are written out once, when the run ends.

Spans are recorded only from the benchmark's side: ``Instrumentation``
replaces the named functions and methods with wrappers for the duration of
the traced run and puts the originals back afterwards.  A name the package no
longer has is skipped and listed in ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable

# Span record layout (a list, for compactness).
ID, NAME, START, END, PARENT, REQUEST, TAG, ERROR = range(8)


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.request = "-"
        self.paused_now = False
        self._stack: list[int] = []
        self._clock = clock

    def begin(self, name: str, tag: str | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, self._clock(), None, parent, self.request, tag, False]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def end(self, span: list, error: bool = False) -> None:
        if not self._stack or self._stack[-1] != span[ID]:
            raise RuntimeError(f"span {span[NAME]!r} is not the innermost open span")
        self._stack.pop()
        span[END] = self._clock()
        span[ERROR] = error

    @contextmanager
    def paused(self):
        """Record no spans inside the block (for the benchmark's own checks)."""
        self.paused_now = True
        try:
            yield
        finally:
            self.paused_now = False

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def absorb(self, spans: list[list], counters: dict[str, float], request: str) -> None:
        """Append spans and counters recorded elsewhere (a worker process) under
        one request id."""
        for key, amount in counters.items():
            self.count(key, amount)
        offset = len(self.spans)
        for span in spans:
            parent = span[PARENT]
            self.spans.append([span[ID] + offset, span[NAME], span[START], span[END],
                               None if parent is None else parent + offset,
                               request, span[TAG], span[ERROR]])

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, errors, total duration and self time.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (the union of the children's intervals, clipped to the
    parent), so overlapping or out-of-bounds children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span[ID], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        keys = [span[NAME]]
        if span[TAG] is not None:
            keys.append(f"{span[NAME]}.{span[TAG]}")
        for key in keys:
            entry = out.setdefault(key, {"calls": 0, "errors": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            entry["calls"] += 1
            entry["errors"] += int(span[ERROR])
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
    return out


def _wrap(tracer: Tracer, name: str, fn: Callable, tagger, on_result) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused_now:
            return fn(*args, **kwargs)
        record = tracer.begin(name, tagger(args, kwargs) if tagger else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(record, error=True)
            raise
        tracer.end(record)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Install span wrappers on named functions and methods of dbarn, and
    remove them.

    ``names`` are span names of the form ``module.function`` or
    ``module.Class.method``.  ``tags`` maps a span name to a function of the
    call's (args, kwargs) giving the span's tag; ``on_result`` maps a span
    name to a hook called with (tracer, args, kwargs, result) after each
    successful call, for counters that need the returned value.
    """

    def __init__(self, tracer: Tracer, names,
                 tags: dict[str, Callable] | None = None,
                 on_result: dict[str, Callable] | None = None) -> None:
        self.tracer = tracer
        self.names = tuple(names)
        self.tags = tags or {}
        self.on_result = on_result or {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for span_name in self.names:
            layer, dotted = span_name.split(".", 1)
            module = importlib.import_module(f"dbarn.{layer}")
            wrap = functools.partial(_wrap, self.tracer, span_name,
                                     tagger=self.tags.get(span_name),
                                     on_result=self.on_result.get(span_name))
            if "." in dotted:
                self._wrap_method(module, dotted, span_name, wrap)
            else:
                self._wrap_function(module, dotted, span_name, wrap)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, module, attr: str, span_name: str, wrap) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(span_name)
            return
        wrapper = wrap(original)
        # Replace every binding of the function inside the package, so that
        # calls through a ``from .module import name`` are seen too.
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "dbarn" or mod_name.startswith("dbarn.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapper)

    def _wrap_method(self, module, dotted: str, span_name: str, wrap) -> None:
        cls_name, attr = dotted.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = cls.__dict__.get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(span_name)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrap(raw.__func__))
        elif callable(raw):
            wrapped = wrap(raw)
        else:
            self.missing.append(span_name)
            return
        self._set(cls, attr, wrapped)
