"""In-memory spans recorded around calls into the program's public functions.

A span has a name ("<layer>.<operation>"), a start, an end, the index of the
span that was open when it began, and a few counts taken from the call's
arguments or result. Spans stay in a list until the run ends. Wrapping
happens where a name is bound: a function imported by name into another
module is wrapped in that module, a function reached as a module attribute
is wrapped on its module.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    phase: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while enabled; a disabled tracer passes calls straight through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.phase = ""
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._open[-1] if self._open else -1, phase=self.phase)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        if not self.enabled:
            yield None
            return
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, name: str, fn, count=None):
        """Wrap fn so each call records a span; count(args, kwargs, result) -> dict.

        A call made while a span of the same name is open (a function that
        re-enters itself, e.g. a path overload delegating to a stream
        overload) records no second span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (self._open and self.spans[self._open[-1]].name == name):
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper


class Patches:
    """Replace attributes with traced wrappers; restore the originals on exit."""

    def __init__(self, tracer: Tracer, points):
        # points: iterable of (owner, attribute, span name, count function or None)
        self.tracer = tracer
        self.points = list(points)
        self._saved = []

    def __enter__(self):
        for owner, attr, name, count in self.points:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
