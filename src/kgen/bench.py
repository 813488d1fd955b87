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
    """Per-value decomposition T = inner_share + lookup_share (the batch
    refill cost over imbalance c, plus d random accesses)."""

    total_ns: float
    inner_ns: float

    @property
    def lookup_ns(self) -> float:
        return max(0.0, self.total_ns - self.inner_ns)


def measure_expander_split(make_gen: Callable[[], object], values: int,
                           repetitions: int = 3) -> ExpanderCostSplit:
    """Total per-value time plus the share spent producing inner values."""
    total = measure_ns_per_value(make_gen, values, repetitions)
    probe = make_gen()
    m = probe.graph.m
    inner_values = (values + probe._block_size - 1) // probe._block_size * m
    inner_values = min(inner_values, probe.inner.descriptor.period)

    def make_inner():
        return probe.inner.fork(probe.inner.seed)

    inner_total = measure_ns_per_value(make_inner, inner_values, repetitions)
    inner_share = inner_total * inner_values / values
    return ExpanderCostSplit(total_ns=total, inner_ns=inner_share)
