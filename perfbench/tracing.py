"""Spans recorded from outside kgen: a tracer plus wrapper objects that sit
at the public boundaries the benchmark hands to kgen (sinks, inner
generators, generator factories and the generators they return).

Spans stay in memory as small lists [name, start_ns, end_ns, parent, run_id]
and are written out once the run ends.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class Tracer:
    """Nested spans for one synchronous caller; the parent of a span is the
    span open when it began."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = _now()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, total self time in s); a span's self time is
        its duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += end - start - child_ns[i]
        return {k: (n, ns / 1e9) for k, (n, ns) in out.items()}

    def total_s(self, name: str) -> float:
        return sum(e - s for n, s, e, _, _ in self.spans if n == name) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def dump(self, path, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "names": names,
                "columns": ["name", "start_ns", "end_ns", "parent", "run_id"],
                "spans": [[index[n], s, e, p, r] for n, s, e, p, r in self.spans],
            }, fh, separators=(",", ":"))


class TracedSink:
    """Byte sink handed to write_stream; one span per write."""

    def __init__(self, sink, tracer: Tracer):
        self._sink = sink
        self._tracer = tracer

    def write(self, data: bytes):
        idx = self._tracer.begin("sink.write")
        try:
            return self._sink.write(data)
        finally:
            self._tracer.end(idx)


class TracedGenerator:
    """Forwards to a kgen generator; spans around emit, emit_batch and fork.

    `prefix` names the role: "inner" for the table source of an expander,
    "generator" for what a factory returned.
    """

    def __init__(self, gen, tracer: Tracer, prefix: str):
        self._gen = gen
        self._tracer = tracer
        self._prefix = prefix

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def emit(self):
        return self._tracer.call(self._prefix + ".emit", self._gen.emit)

    def emit_batch(self, count: int):
        return self._tracer.call(self._prefix + ".emit_batch", self._gen.emit_batch, count)

    def fork(self, seed):
        gen = self._tracer.call(self._prefix + ".fork", self._gen.fork, seed)
        return TracedGenerator(gen, self._tracer, self._prefix)


def traced_factory(make, tracer: Tracer):
    """Wrap a make_generator(seed) factory: a span per call, and the returned
    generator traced as "generator"."""

    def factory(seed):
        return TracedGenerator(tracer.call("factory", make, seed), tracer, "generator")

    return factory
