"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the library: public functions are wrapped
and every module-level name bound to the original function is rebound to
the wrapper, so a call made inside the library (``distribution_equivalence``
calling ``trial_states``, say) opens a child span of the caller's span.
Each span keeps its name, start, end, parent and a few attributes describing
the call; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), None, parent, attrs))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, fn: Callable, name: str, describe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(
        self,
        targets: Iterable[tuple[Callable, str, Callable | None]],
        modules: Iterable[ModuleType],
    ) -> Iterator[None]:
        """Rebind every name in ``modules`` bound to a target function to its wrapper."""
        modules = list(modules)
        patches = []
        for fn, name, describe in targets:
            wrapper = self.wrap(fn, name, describe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, fn in reversed(patches):
                setattr(mod, attr, fn)

    def self_time_of(self) -> list[float]:
        """Per span: its duration minus the part covered by its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_time_of()):
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def roots(self) -> list[int]:
        return [k for k, s in enumerate(self.spans) if s.parent is None]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """Throughput lost to tracing, as a percentage of the untraced throughput."""
    return 100.0 * (untraced_rate - traced_rate) / untraced_rate
