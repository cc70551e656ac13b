"""In-memory spans around pipescope's public functions, for the traced run.

Only the traced run installs the wrappers. Each one replaces a function
under the name its caller looks it up by (``pipescope.cli.measure_irm``,
``pipescope.irm.median_smooth``, ...) and records a span: name, start,
end, parent span, and the id of the pipeline it ran in. Spans stay in
memory until the run ends; totals and self times come from them then.
The span stack is not thread-safe, which holds because the CLI runs its
default ``--jobs 1``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[tuple[int, str], list[float]] = {}  # (run, key) -> recorded values
        self.run = 0
        self._stack: list[int] = []

    def record(self, key: str, value: float) -> None:
        self.values.setdefault((self.run, key), []).append(value)

    def recorded(self, run: int, key: str) -> list[float]:
        return self.values.get((run, key), [])

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording a span per call; ``on_result(tracer, result, args)`` runs after it."""

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace ``(module, attr, name, on_result)`` targets by traced wrappers, then restore.

        A target the module no longer has is skipped, so its metrics read 0.
        """
        saved = []
        try:
            for module, attr, name, on_result in targets:
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, name, on_result))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self) -> dict[int, dict[str, list]]:
        """Per run and span name: [total seconds, self seconds, calls].

        Self time is a span's duration minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        runs: dict[int, dict[str, list]] = {}
        for s, covered in zip(self.spans, child):
            stats = runs.setdefault(s.run, {}).setdefault(s.name, [0.0, 0.0, 0])
            stats[0] += s.end - s.start
            stats[1] += s.end - s.start - covered
            stats[2] += 1
        return runs
