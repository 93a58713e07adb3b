"""In-memory span recorder for the traced benchmark run.

Spans are kept as ``[name, start, end, parent, run, info]`` lists and written
out once, when the run ends.  ``run`` is the pass number, so the spans of one
pass share it.  Library functions are wrapped by replacing module attributes,
so nothing inside the library changes; the untraced run installs no wrapper.
Scalar hot calls are counted (and, where asked, their time summed) instead of
spanned, because a span per call would cost more than the call itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))   # run -> key -> value
        self.run = 0
        self._stack: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[self.run][key] += value

    # ---------------------------------------------------------------- wrapping

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def wrap_span(self, module, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``module.attr``; ``on_result(rec,
        args, result)`` may attach the result to the span's info slot."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, args, out)
                return out

        self._patch(module, attr, wrapper)

    def wrap_count(self, module, attr: str, key: str, time_key: str | None = None,
                   weight=None) -> None:
        """Count calls of ``module.attr`` under ``key`` (``weight(args)`` replaces
        the count 1); with ``time_key`` also sum their time under that key."""
        orig = getattr(module, attr)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts = self.counts[self.run]
            counts[key] += 1 if weight is None else weight(args)
            if time_key is None:
                return orig(*args, **kwargs)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                counts[time_key] += clock() - t0

        self._patch(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # ---------------------------------------------------------------- analysis

    def layer_totals(self, run: int) -> dict:
        """Per span name in one run: [calls, self time, total time], where self
        time is a span's duration minus that of its direct children."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[RUN] == run and rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, rec in enumerate(self.spans):
            if rec[RUN] == run:
                dur = rec[END] - rec[START]
                tot = out[rec[NAME]]
                tot[0] += 1
                tot[1] += dur - child[i]
                tot[2] += dur
        return out

    def children(self, run: int, parent_name: str, child_name: str) -> list:
        """For each ``parent_name`` span of a run, the info slots of its direct
        ``child_name`` children, in call order."""
        groups = {i: [] for i, rec in enumerate(self.spans)
                  if rec[RUN] == run and rec[NAME] == parent_name}
        for rec in self.spans:
            if rec[PARENT] in groups and rec[NAME] == child_name:
                groups[rec[PARENT]].append(rec[INFO])
        return list(groups.values())

    def dump(self, path) -> None:
        data = {"fields": ["name", "start", "end", "parent", "run", "info"],
                "spans": self.spans,
                "counts": {str(r): dict(c) for r, c in self.counts.items()}}
        path.write_text(json.dumps(data), encoding="utf-8")
