"""In-memory tracing for the benchmark's traced run.

Spans are recorded around every call the benchmark makes into a causalpath
layer (name, request, parent, start, end). Calls that happen hundreds of
thousands of times per run -- CI tests and local scores -- are not spans;
their wrappers add up a call count and busy time instead, and the span that
owns a wrapper subtracts that busy time to get its self time. Nothing is
written until `Tracer.write` is called at the end of the run.
"""
from __future__ import annotations

import json
import logging
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from causalpath.score import BicScorer


class LogCounter(logging.Handler):
    """Counts `causalpath.*` log records by logger name instead of printing them."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = Counter()
        self.near_singular = 0

    def emit(self, record):
        self.counts[record.name] += 1
        if record.name == "causalpath.independence" and "near-singular" in record.msg:
            self.near_singular += 1

    def snapshot(self):
        """Record counts by logger name, plus near-singular Fisher-z notes."""
        return dict(self.counts, **{"near-singular": self.near_singular})

    def install(self):
        log = logging.getLogger("causalpath")
        log.addHandler(self)
        log.setLevel(logging.WARNING)
        log.propagate = False
        return self


class CountingTester:
    """Pass-through CI tester that counts calls, busy time and query sizes.

    With `levels` (observed categories per variable) it also adds up the
    number of strata each query asks for: the product of the Z levels.
    """

    def __init__(self, kind, tester, levels=None):
        self.kind = kind
        self.inner = tester
        self.nodes = tester.nodes
        self.alpha = tester.alpha
        self.levels = levels
        self.calls = 0
        self.busy = 0.0
        self.condsize_sum = 0
        self.condsize_max = 0
        self.strata = 0

    def __call__(self, x, y, z=()):
        t = perf_counter()
        res = self.inner(x, y, z)
        self.busy += perf_counter() - t
        self.calls += 1
        k = len(z)
        self.condsize_sum += k
        if k > self.condsize_max:
            self.condsize_max = k
        if self.levels is not None:
            self.strata += math.prod(self.levels[v] for v in z)
        return res


class TracedScorer(BicScorer):
    """BicScorer that counts every local-score call (cache hits included)."""

    kind = "score"

    def __init__(self, corr, penalty_discount=1.0):
        super().__init__(corr, penalty_discount)
        self.calls = 0
        self.busy = 0.0

    def local_score(self, node, parents=()):
        t = perf_counter()
        s = super().local_score(node, parents)
        self.busy += perf_counter() - t
        self.calls += 1
        return s


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "probes")

    def __init__(self, name, request, parent, start):
        self.name = name
        self.request = request
        self.parent = parent
        self.start = start
        self.end = None
        self.probes = []  # wrappers whose busy time lies inside this span

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - sum(p.busy for p in self.probes)

    def to_json_dict(self, index):
        d = {"id": index, "name": self.name, "request": self.request,
             "parent": self.parent, "start": self.start, "end": self.end,
             "self": self.self_time}
        for p in self.probes:
            d[f"{p.kind}.calls"] = p.calls
            d[f"{p.kind}.busy"] = p.busy
        return d


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.request = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        sp = Span(name, self.request, parent, perf_counter())
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def probe(self, span, wrapper):
        span.probes.append(wrapper)
        return wrapper

    def count(self, name, value):
        self.counts[name] += value

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name):
        return sum(s.duration for s in self.named(name))

    def probes(self, kind):
        return [p for s in self.spans for p in s.probes if p.kind == kind]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.to_json_dict(i) for i, s in enumerate(self.spans)],
                       "counts": dict(self.counts)}, fh)
