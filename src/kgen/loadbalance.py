"""Interval tasks onto m machines via a generator stream: peak-load
measurement against the Chernoff/union bound, and the repetition harness
that compares generator-driven assignment with full randomness."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigError


@dataclass(frozen=True)
class Task:
    """Half-open interval [start, end)."""

    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ConfigError(f"task needs start < end, got [{self.start}, {self.end})")


@dataclass(frozen=True)
class SimulationResult:
    per_machine_peak: tuple[int, ...]
    global_peak: int
    overflowed: bool  # global_peak > capacity b


def assign(tasks: Sequence[Task], m: int, gen) -> list[int]:
    """machine(i) = emit() mod m, in task order, blind to task contents.

    Exactly uniform because m must divide the field size.
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    if gen.field.order % m != 0:
        raise ConfigError(
            f"m={m} must divide the field size {gen.field.order} for mod-m "
            "assignment to be uniform"
        )
    return [gen.emit() % m for _ in tasks]


def peak_loads(tasks: Sequence[Task], assignment: Sequence[int], m: int,
               b: int) -> SimulationResult:
    """Sweep the <= 2t interval endpoints; per machine, the maximum number of
    simultaneously active tasks, and whether one exceeds capacity b.  Half-open
    intervals: an end and a start at the same time never overlap (ends first)."""
    return _simulate(_endpoint_order(tasks), assignment, m, b)


def _endpoint_order(tasks: Sequence[Task]) -> list[tuple[float, int, int]]:
    """The (time, kind, task index) of every endpoint in sweep order: by
    time, ends (kind 0) before starts (kind 1), otherwise in task order."""
    events = []
    for i, task in enumerate(tasks):
        events.append((task.start, 1, i))
        events.append((task.end, 0, i))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def _simulate(events, assignment: Sequence[int], m: int, b: int) -> SimulationResult:
    """peak_loads over endpoints already in sweep order (_endpoint_order)."""
    if 2 * len(assignment) != len(events):
        raise ConfigError("one machine index per task required")
    active = [0] * m
    peaks = [0] * m
    for _, kind, i in events:
        q = assignment[i]
        if kind == 1:
            active[q] += 1
            if active[q] > peaks[q]:
                peaks[q] = active[q]
        else:
            active[q] -= 1
    global_peak = max(peaks) if peaks else 0
    return SimulationResult(
        per_machine_peak=tuple(peaks),
        global_peak=global_peak,
        overflowed=global_peak > b,
    )


def total_load_peak(tasks: Sequence[Task]) -> tuple[int, float]:
    """Peak of |L(x)| over time and a timestamp attaining it."""
    return _load_peak(_endpoint_order(tasks))


def _load_peak(events) -> tuple[int, float]:
    """total_load_peak over endpoints already in sweep order."""
    active = peak = 0
    at = 0.0
    for x, kind, _ in events:
        if kind == 1:
            active += 1
            if active > peak:
                peak = active
                at = x
        else:
            active -= 1
    return peak, at


def overflow_bound(m: int, b: int, eps: float, t: int) -> float:
    """2 t m exp(-eps^2 b / 3): union bound over machines and the <= 2t
    endpoint workloads on Pr[sup_x max_q load > b], valid whenever
    |L(x)|(1+eps) < m b throughout."""
    if eps <= 0:
        raise ConfigError("eps must be positive")
    return 2.0 * t * m * math.exp(-eps * eps * b / 3.0)


@dataclass(frozen=True)
class ExperimentResult:
    runs: int
    overflows: int
    frequency: float
    bound: float
    results: tuple[SimulationResult, ...]
    seeds: tuple[int, ...] = ()


def run_experiment(
    tasks: Sequence[Task],
    m: int,
    b: int,
    eps: float,
    make_generator: Callable[[int], object],
    repetitions: int,
    rng: random.Random,
    keep_results: bool = False,
) -> ExperimentResult:
    """Repeat assignment with fresh seeds; fraction of runs where any machine
    exceeds capacity b, alongside the analytic bound.

    Rejects workloads violating |L(x)|(1+eps) < m*b, reporting the violating
    timestamp.  The endpoints are sorted once per call; each repetition
    sweeps its assignment in that order.
    """
    if repetitions < 1:
        raise ConfigError(f"need at least one repetition, got {repetitions}")
    events = _endpoint_order(tasks)
    peak, at = _load_peak(events)
    if peak * (1.0 + eps) >= m * b:
        raise ConfigError(
            f"workload violates |L(x)|(1+eps) < m*b at x={at}: "
            f"{peak}*(1+{eps}) >= {m * b}"
        )
    bound = overflow_bound(m, b, eps, len(tasks))
    overflows = 0
    kept = []
    seeds = []
    for _ in range(repetitions):
        seed = rng.getrandbits(63)
        gen = make_generator(seed)
        result = _simulate(events, assign(tasks, m, gen), m, b)
        overflows += result.overflowed
        if keep_results:
            kept.append(result)
            seeds.append(seed)
    return ExperimentResult(
        runs=repetitions,
        overflows=overflows,
        frequency=overflows / repetitions,
        bound=bound,
        results=tuple(kept),
        seeds=tuple(seeds),
    )


def wilson_interval(successes: int, n: int, z: float = 2.5758293035489004
                    ) -> tuple[float, float]:
    """Wilson score interval; default z is the two-sided 99% quantile."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _check_task_count(t: int):
    if t < 1:
        raise ConfigError(f"a workload needs at least one task, got t={t}")


def burst_workload(t: int) -> list[Task]:
    """t copies of the task [0, 1): the adversarial same-interval burst."""
    _check_task_count(t)
    return [Task(0.0, 1.0)] * t


def poisson_workload(t: int, rate: float, duration: float,
                     rng: random.Random) -> list[Task]:
    """t tasks with exponential inter-arrival gaps and fixed duration."""
    _check_task_count(t)
    if not rate > 0:
        raise ConfigError(f"poisson workload needs rate > 0, got {rate}")
    tasks = []
    x = 0.0
    for _ in range(t):
        x += rng.expovariate(rate)
        tasks.append(Task(x, x + duration))
    return tasks
