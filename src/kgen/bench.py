"""Timing harness: medians of repeated runs, after one warmup run.

Absolute numbers are hardware- and interpreter-dependent and never feed
acceptance decisions; only ratios and trends do.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError
from .generator import stream_chunks


def measure_ns_per_value(make_gen: Callable[[], object], values: int,
                         repetitions: int = 5) -> float:
    """Median ns per emitted value over fresh generator instances, the
    first (warmup) instance not counted.

    The values are taken through `stream_chunks`, as `kgen gen` takes them,
    so what is timed is the generator and not a conversion to Python ints.
    `values` should cover whole refill cycles of batch kinds so the
    amortized cost is what gets measured.
    """
    if values < 1 or repetitions < 1:
        raise ConfigError(f"values={values} and repetitions={repetitions} must be >= 1")
    samples = []
    for rep in range(1 + repetitions):
        gen = make_gen()
        t0 = time.perf_counter_ns()
        taken = sum(len(chunk) for chunk in stream_chunks(gen, values))
        dt = time.perf_counter_ns() - t0
        if rep:
            samples.append(dt / taken)
    return statistics.median(samples)


@dataclass(frozen=True)
class ExpanderCostSplit:
    """Per-value times of an expander stream: the whole stream, the inner
    stream's share (the batch refill cost over imbalance c), and the gather
    (d table lookups plus d-1 additions per value), each measured in its
    own runs."""

    total_ns: float
    inner_ns: float
    lookup_ns: float


def measure_expander_split(make_gen: Callable[[], object], values: int,
                           repetitions: int = 3) -> ExpanderCostSplit:
    """Total per-value time, the share spent producing inner values, and
    the gather: `graph.row_sums` timed on the uint64 array one refill
    gathers (the inner stream's `fill(m)`), its median over `repetitions`
    calls after one warmup call."""
    total = measure_ns_per_value(make_gen, values, repetitions)
    probe = make_gen()
    graph = probe.graph
    m, block = graph.m, graph.n_left
    inner_values = (values + block - 1) // block * m
    inner_values = min(inner_values, probe.inner.descriptor.period)

    def make_inner():
        return probe.inner.fork(probe.inner.seed)

    inner_total = measure_ns_per_value(make_inner, inner_values, repetitions)
    inner_share = inner_total * inner_values / values
    right = make_inner().fill(m)
    samples = []
    for rep in range(1 + repetitions):
        t0 = time.perf_counter_ns()
        graph.row_sums(probe.field, right)
        dt = time.perf_counter_ns() - t0
        if rep:
            samples.append(dt / graph.n_left)
    return ExpanderCostSplit(total_ns=total, inner_ns=inner_share,
                             lookup_ns=statistics.median(samples))
