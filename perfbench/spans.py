"""In-memory spans for the traced run.

A span is (id, name, start, end, parent, key, items): ``name`` is
``<module>.<function>`` of the layer call it covers, ``parent`` the id of
the span that caused it, ``key`` the request or unit it belongs to and
``items`` how many results the call produced (paths enumerated, draws
taken; 1 for a plain call).  Spans are kept in a list and written out once,
when the run ends.

Request workloads are traced by swapping the layer functions that the
``cli`` module calls for timing wrappers, for the duration of the traced
pass only; nothing under ``src`` is edited.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from itertools import starmap
from pathlib import Path
from typing import Any, Callable, Iterator

PACKAGE = "delannoy_kit"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str | None, int]] = []
        self.parent: int | None = None
        self.key: str | None = None

    def record(self, name: str, start: float, end: float, items: int = 1) -> None:
        self.spans.append((len(self.spans), name, start, end, self.parent, self.key, items))

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None) -> Iterator[None]:
        """Time the body as one span; spans recorded inside it become its children."""
        outer = (self.parent, self.key)
        span_id = len(self.spans)
        self.spans.append((span_id, name, 0.0, 0.0, self.parent, self.key, 1))
        self.parent = span_id
        if key is not None:
            self.key = key
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.parent, self.key = outer
            self.spans[span_id] = (span_id, name, start, end, self.parent, key or self.key, 1)

    def timed_pass(self, name: str, fn: Callable, inputs: list, star: bool = False) -> list:
        """Apply one layer function to every input (unpacked if ``star``) as one span."""
        start = time.perf_counter()
        out = list(starmap(fn, inputs)) if star else [fn(x) for x in inputs]
        self.record(name, start, time.perf_counter(), len(inputs))
        return out

    def total(self, names) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] in names)

    def items(self, names) -> int:
        return sum(s[6] for s in self.spans if s[1] in names)

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "key", "items")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(fields, s)) for s in self.spans], handle)


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):

        def traced_gen(*args: Any, **kwargs: Any):
            it = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                tracer.record(name, start, time.perf_counter())
                yield item

        return traced_gen

    def traced(*args: Any, **kwargs: Any):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.record(name, start, time.perf_counter())

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, module) -> Iterator[None]:
    """Wrap every package function ``module`` calls from another module, plus its
    ``build_parser``, in a span named ``<layer>.<function>``; restore on exit."""
    originals = {}
    for attr, fn in list(vars(module).items()):
        if not inspect.isfunction(fn) or not fn.__module__.startswith(PACKAGE + "."):
            continue
        if fn.__module__ == module.__name__ and attr != "build_parser":
            continue
        layer = fn.__module__.rsplit(".", 1)[1]
        originals[attr] = fn
        setattr(module, attr, _wrap(tracer, f"{layer}.{fn.__name__}", fn))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(module, attr, fn)
