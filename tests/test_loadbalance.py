import math
import random

import pytest

from kgen.errors import ConfigError
from kgen.field import Gf2w, Gfp
from kgen.generator import HornerGenerator
from kgen.loadbalance import (
    ExperimentResult,
    Task,
    assign,
    burst_workload,
    overflow_bound,
    peak_loads,
    poisson_workload,
    run_experiment,
    total_load_peak,
    wilson_interval,
)


def test_task_validation():
    Task(0.0, 1.0)
    with pytest.raises(ConfigError):
        Task(1.0, 1.0)
    with pytest.raises(ConfigError):
        Task(2.0, 1.0)


def test_assign_definitional():
    f = Gf2w(4)
    g = HornerGenerator(f, 2, [7, 3])
    stream = HornerGenerator(f, 2, [7, 3]).emit_batch(6)
    tasks = [Task(i, i + 1) for i in range(6)]
    assert assign(tasks, 4, g) == [v % 4 for v in stream]


def test_assign_m1_all_to_zero():
    f = Gfp(5)
    g = HornerGenerator(f, 2, [1, 1])
    assert assign([Task(0, 1)] * 4, 1, g) == [0] * 4


def test_assign_requires_m_divides_field():
    f = Gfp(5)
    g = HornerGenerator(f, 2, [1, 1])
    with pytest.raises(ConfigError):
        assign([Task(0, 1)], 2, g)


def test_assign_full_period_bijective_polynomial_balances_exactly():
    # degree-1 h with nonzero slope is a bijection of GF(5): with m = 5 each
    # machine receives exactly |F|/m = 1 task per period
    f = Gfp(5)
    g = HornerGenerator(f, 2, [3, 2])
    tasks = [Task(i, i + 0.5) for i in range(5)]
    counts = [0] * 5
    for q in assign(tasks, 5, g):
        counts[q] += 1
    assert counts == [1] * 5


def test_peak_loads_trivia():
    disjoint = [Task(0, 1), Task(2, 3), Task(4, 5)]
    r = peak_loads(disjoint, [0, 0, 0], 2, b=1)
    assert r.global_peak == 1 and r.per_machine_peak == (1, 0)
    assert r.overflowed is False
    burst = burst_workload(7)
    r = peak_loads(burst, [1] * 7, 3, b=6)
    assert r.per_machine_peak == (0, 7, 0)
    assert r.overflowed is True
    r = peak_loads(burst, [1] * 7, 3, b=7)
    assert r.overflowed is False


def test_peak_loads_half_open_touching():
    r = peak_loads([Task(0, 1), Task(1, 2)], [0, 0], 1, b=1)
    assert r.global_peak == 1 and r.overflowed is False


def test_peak_loads_matches_dense_grid_oracle():
    rng = random.Random(10)
    for _ in range(40):
        t = rng.randrange(2, 14)
        tasks = [Task(s, s + rng.uniform(0.1, 3.0))
                 for s in (rng.uniform(0, 10) for _ in range(t))]
        m = rng.randrange(1, 5)
        asg = [rng.randrange(m) for _ in range(t)]
        got = peak_loads(tasks, asg, m, b=t)
        # oracle: sample densely between all endpoints
        marks = sorted({x for tk in tasks for x in (tk.start, tk.end)})
        xs = list(marks)
        for a, b in zip(marks, marks[1:]):
            xs.extend(a + (b - a) * f for f in (0.25, 0.5, 0.75))
        oracle = [0] * m
        for x in xs:
            counts = [0] * m
            for tk, q in zip(tasks, asg):
                if tk.start <= x < tk.end:
                    counts[q] += 1
            oracle = [max(o, c) for o, c in zip(oracle, counts)]
        assert tuple(oracle) == got.per_machine_peak


def test_total_load_peak_reports_timestamp():
    peak, at = total_load_peak([Task(0, 2), Task(1, 3), Task(5, 6)])
    assert peak == 2 and at == 1


def test_overflow_bound_examples():
    assert overflow_bound(10, 0, 1.0, 100) == 2 * 100 * 10
    v = overflow_bound(10, 60, 1.0, 100)
    assert math.isclose(v, 2000 * math.exp(-20))
    assert overflow_bound(10, 61, 1.0, 100) < v
    with pytest.raises(ConfigError):
        overflow_bound(10, 60, 0.0, 100)


def test_run_experiment_rejects_overloaded_workload():
    f = Gf2w(4)
    mk = lambda s: HornerGenerator(
        f, 2, [s & 15, (s >> 4) & 15])
    with pytest.raises(ConfigError) as err:
        run_experiment([Task(3.5, 4.5)] * 100, 2, 3, 0.5, mk, 2,
                       random.Random(0))
    assert "x=3.5" in str(err.value)


def test_run_experiment_zero_overflow_when_capacity_ample():
    f = Gf2w(4)
    mk = lambda s: HornerGenerator(f, 2, [s & 15, (s >> 4) & 15])
    res = run_experiment(burst_workload(4), 1, 8, 0.5, mk, 30, random.Random(1),
                         keep_results=True)
    assert res.overflows == 0 and res.frequency == 0.0
    assert len(res.results) == 30 and len(res.seeds) == 30


def test_empty_experiments_refused():
    # no repetition or no task gives no frequency to report
    f = Gf2w(4)
    mk = lambda s: HornerGenerator(f, 2, [s & 15, (s >> 4) & 15])
    for reps in (0, -1):
        with pytest.raises(ConfigError, match="repetition"):
            run_experiment(burst_workload(4), 1, 8, 0.5, mk, reps, random.Random(1))
    for t in (0, -3):
        with pytest.raises(ConfigError, match="task"):
            burst_workload(t)
        with pytest.raises(ConfigError, match="task"):
            poisson_workload(t, 1.0, 1.0, random.Random(0))


def test_run_experiment_frequency_below_vacuous_bound():
    f = Gf2w(4)
    mk = lambda s: HornerGenerator(f, 2, [s & 15, (s >> 4) & 15])
    res = run_experiment(burst_workload(8), 4, 4, 0.5, mk, 200, random.Random(2))
    assert res.frequency <= res.bound  # bound is vacuous here, sanity only


def test_wilson_interval():
    lo, hi = wilson_interval(10, 100)
    assert 0.0 < lo < 0.1 < hi < 0.25
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo99, hi99 = wilson_interval(500, 1000)
    lo95, hi95 = wilson_interval(500, 1000, z=1.96)
    assert lo99 < lo95 < hi95 < hi99


def test_concurrent_assignments_exactly_uniform_at_tiny_scale():
    # k >= m*b and |L(x)| < m*b: the joint assignment of concurrently active
    # tasks is exactly uniform-independent, by exhaustive seed enumeration
    f = Gf2w(2)
    m, b = 2, 2
    k = m * b  # 4 = |F|: 256 enumerable seeds
    tasks = [Task(0, 1), Task(0, 1), Task(0, 1)]  # |L| = 3 < m*b
    from itertools import product as iproduct
    counts = {}
    for seed in iproduct(range(4), repeat=4):
        gen = HornerGenerator(f, k, seed)
        key = tuple(assign(tasks, m, gen))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == m ** len(tasks)
    assert set(counts.values()) == {4 ** k // m ** len(tasks)}


def test_workload_generators():
    b = burst_workload(5)
    assert b == [Task(0.0, 1.0)] * 5
    p = poisson_workload(20, 2.0, 1.5, random.Random(3))
    assert len(p) == 20
    assert all(math.isclose(t.end - t.start, 1.5) for t in p)
    starts = [t.start for t in p]
    assert starts == sorted(starts)
