"""Per-layer timing by wrapping the program's public functions from outside.

A `Tracer` replaces module attributes (and `Encoder.encode` on the class)
with wrappers that keep a stack of open spans.  Each wrapped call adds its
duration to its metric's total, counts one call, and adds the same duration
to its caller's child time, so self time is total minus the time of traced
callees.  Functions call each other through their module's globals, so a
wrapper installed on the module also sees calls made inside the module.

Several functions may share one metric name (e.g. the three corpus readers
count as `corpus.read`).  A target may also name a counter and a function
that turns each result into a count (sentences read, for instance).
`install` and `uninstall` must bracket every use.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, targets):
        """`targets`: (owner, attribute, metric, counter) tuples to wrap;
        `counter` is None or (name, result -> int)."""
        self.targets = list(targets)
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _wrap(self, fn, metric: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.total[metric] += elapsed
                tracer.self_time[metric] += elapsed - frame[0]
                tracer.calls[metric] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, metric, counter in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, metric, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
