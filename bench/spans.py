"""In-memory spans around calls into the program's layers.

A `Tracer` replaces a module attribute (the name a caller resolves at call
time) with a wrapper that records (name, start, end, parent) for each call.
Start and end are process CPU time, like the benchmark's end-to-end timings.
Spans stay in memory until `summary()` reads them. Nothing inside the
program changes; a function its callers import under another name, or that
no longer exists, is simply not traced.
"""

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class LayerStats:
    """Calls, summed duration and summed self time of one span name."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._patched: list = []

    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        # A call made on a pool thread has no span of its own thread above it;
        # it belongs to the command span that is running on the main thread.
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.process_time(), None, parent])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._local.stack.pop()

    @contextmanager
    def root(self, name: str):
        """A top-level span; spans opened on other threads meanwhile hang under it."""
        idx = self._open(name)
        self._root = idx
        try:
            yield
        finally:
            self._root = None
            self._close(idx)

    def patch(self, owner, attr: str, name: str) -> None:
        """Record a span `name` for every call made through `owner.attr`."""
        fn = owner.__dict__.get(attr)
        if not callable(fn):
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def summary(self) -> Dict[str, LayerStats]:
        """Per span name: calls, total time, and self time (duration minus the
        part of it that child spans cover)."""
        children = defaultdict(list)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(idx)
        out: Dict[str, LayerStats] = defaultdict(LayerStats)
        for idx, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            covered, reach = 0.0, start
            for c in sorted(children[idx], key=lambda i: self.spans[i][1]):
                c_start, c_end = self.spans[c][1], self.spans[c][2] or end
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            stats = out[name]
            stats.calls += 1
            stats.total += end - start
            stats.self_time += end - start - covered
        return out

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Summed duration of `child_name` spans whose parent is a `parent_name` span."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name == child_name and parent is not None and end is not None:
                if self.spans[parent][0] == parent_name:
                    total += end - start
        return total
