"""Spans and counts at the boundaries of domrat's layers, recorded from outside.

The tracer replaces public functions at the module attribute through which
they are looked up, so calls made inside domrat (``domination_ratio`` calling
``build_state_graph``, ``oracle_scan`` calling ``domination_number``) pass
through the wrapper as well as calls made by the benchmark.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    instance: int  # spans of one instance share this identifier


def _graph_counts(counts, args, result):
    counts["stategraph.n_states"] += result.n_states
    counts["stategraph.build_state_graph.bytes"] += (
        result.uncovered.nbytes + result.covers.nbytes + result.weights.nbytes)


def _cycle_counts(counts, args, result):
    counts["stategraph.cycle_len_sum"] += len(result[1])


def _eds_counts(counts, args, result):
    counts["stategraph.eds_exists.found"] += int(result[0])


def _verify_counts(counts, args, result):
    counts["core.verify_dominating.positions"] += args[0].period


def _circulant_counts(counts, args, result):
    counts["circulant.domination_number.n_sum"] += args[0].n


def layer_targets():
    """(module, attribute, layer name, count hook) for every traced function.

    A function imported by name into another module is wrapped there, at
    the attribute its callers read; the layer name is that of the module
    defining it.
    """
    from domrat import blockdsl, circulant, core, stategraph

    return [
        (stategraph, "domination_ratio", "stategraph.domination_ratio", None),
        (stategraph, "build_state_graph", "stategraph.build_state_graph", _graph_counts),
        (stategraph, "min_mean_cycle", "stategraph.min_mean_cycle", _cycle_counts),
        (stategraph, "eds_exists", "stategraph.eds_exists", _eds_counts),
        (stategraph, "verify_dominating", "core.verify_dominating", _verify_counts),
        (stategraph, "coverage_counts", "core.coverage_counts", None),
        (core, "periodic_to_blocks", "core.periodic_to_blocks", None),
        (circulant, "oracle_scan", "circulant.oracle_scan", None),
        (circulant, "domination_number", "circulant.domination_number", _circulant_counts),
        (blockdsl, "render", "blockdsl.render", None),
        (blockdsl, "parse", "blockdsl.parse", None),
        (blockdsl, "flatten", "blockdsl.flatten", None),
    ]


class Tracer:
    """Records a span per wrapped call and per benchmark instance."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._instance = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for module, attr, name, hook in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self._instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, hook):
        counts_key = name + ".calls"

        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self.counts[counts_key] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def run_instance(self, index: int, fn, *args):
        """Run fn(*args) under the root span of one benchmark instance."""
        self._instance = index
        span = self._open("bench.instance")
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans come from one thread and children nest inside their parent, so
    the covered part is the sum of the children's durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_times(spans: list[Span]) -> dict[str, float]:
    """``<layer>.busy_s`` (inclusive) and ``<layer>.self_s`` per span name."""
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s.name + ".busy_s"] += s.end - s.start
        out[s.name + ".self_s"] += own
    return dict(out)
