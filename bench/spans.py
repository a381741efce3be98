"""Span tracing from outside the program.

The tracer replaces module attributes such as `rescomp.optim.residual_jacobian`
with wrappers that record one span per call: name, start, end and the span
that was open when the call began.  A function imported by name into several
modules is patched in each of them, so the call is seen whichever module makes
it.  Spans stay in memory; `summary` turns them into calls, total time and
self time (total minus the time covered by child spans) per span name.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        return traced

    def patch(self, module, attr: str, name: str, package: str | None = "rescomp") -> None:
        """Wrap `module.attr` and every binding of the same function in the
        modules of `package` (names imported with `from x import f`)."""
        original = getattr(module, attr)
        traced = self.wrap(original, name)
        holders = [module] + [
            m for key, m in sorted(sys.modules.items())
            if package and (key == package or key.startswith(package + "."))
            and m is not module and m is not None
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, value))
                    setattr(holder, key, traced)

    def unpatch(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """{name: {"calls", "s", "self_s"}} over every closed span."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[i]
        return out

    def last_end(self, name: str) -> float | None:
        """End of the last closed span named `name`, or None if there is none."""
        for i in range(len(self.names) - 1, -1, -1):
            if self.names[i] == name and self.ends[i]:
                return self.ends[i]
        return None

    def count_children(self, child: str, parent_names: set[str]) -> int:
        """Spans named `child` whose direct parent is named in `parent_names`."""
        return sum(
            1 for i, name in enumerate(self.names)
            if name == child and self.parents[i] >= 0
            and self.names[self.parents[i]] in parent_names
        )
