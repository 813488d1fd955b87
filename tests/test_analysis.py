import random
import tracemalloc
from itertools import combinations, islice, product

import numpy as np
import pytest

from kgen import analysis
from kgen.analysis import (
    POSITION_SUBSET_CAP,
    RANK_GUARD,
    IndependenceReport,
    exhaustive_independence_check,
    rank_independence_check,
)
from kgen.errors import ConfigError, GuardExceeded
from kgen.expander import (
    BipartiteGraph,
    all_small_row_subsets_independent,
    sample_graph,
)
from kgen.field import Gf2w, Gfp
from kgen.generator import (
    GeneratorSpec,
    HornerGenerator,
    build,
    build_expander_generator,
)


TINY_FIELDS = [Gfp(2), Gfp(3), Gfp(5), Gfp(7), Gf2w(2), Gf2w(3)]


def horner_factory(field, k):
    return lambda seed: HornerGenerator(field, k, seed)


def _reference_check(make_generator, field, seed_len, k, n,
                     max_position_subsets=POSITION_SUBSET_CAP):
    """Oracle for exhaustive_independence_check: a tuple-keyed dict of
    counts per position subset, after the range rule (a value outside
    [0, |F|) fails before any subset is counted)."""
    order = field.order
    streams = [make_generator(seed).emit_batch(n)
               for seed in product(range(order), repeat=seed_len)]
    for s, stream in enumerate(streams):
        for i, v in enumerate(stream):
            if not 0 <= v < order:
                return IndependenceReport(
                    "exact-fail", k, 0, 0.0,
                    detail=f"value={v} not in [0, {order}) seed_index={s}"
                           f" position={i}",
                )
    n_seeds = len(streams)
    examined = 0
    worst = 0.0
    tuple_count = order ** k
    for subset in islice(combinations(range(n), k), max_position_subsets):
        examined += 1
        counts: dict[tuple, int] = {}
        for stream in streams:
            key = tuple(stream[i] for i in subset)
            counts[key] = counts.get(key, 0) + 1
        expected = n_seeds / tuple_count
        dev = max(
            (abs(c - expected) for c in counts.values()), default=expected
        )
        if len(counts) < tuple_count:
            dev = max(dev, expected)  # some tuple never occurred
        worst = max(worst, dev)
        if any(c * tuple_count != n_seeds for c in counts.values()) or (
            len(counts) != tuple_count
        ):
            return IndependenceReport(
                "exact-fail", k, examined, worst,
                detail=f"subset={subset} tuples={len(counts)}/{tuple_count}",
            )
    return IndependenceReport("exact-pass", k, examined, worst)


def test_horner_gf3_k2_exact_pass_all_pairs():
    f = Gfp(3)
    r = exhaustive_independence_check(horner_factory(f, 2), f, 2, 2, 3)
    assert r.verdict == "exact-pass"
    assert r.positions_examined == 3  # all C(3,2) pairs
    assert r.worst_stat == 0


def test_horner_gf3_underseeded_k3_fails():
    f = Gfp(3)
    r = exhaustive_independence_check(horner_factory(f, 2), f, 2, 3, 3)
    assert r.verdict == "exact-fail"


def test_horner_gf5_k3_exact_pass():
    f = Gfp(5)
    r = exhaustive_independence_check(horner_factory(f, 3), f, 3, 3, 5)
    assert r.verdict == "exact-pass"
    assert r.positions_examined == 10


@pytest.mark.parametrize("field", TINY_FIELDS)
def test_horner_exact_pass_every_tiny_field(field):
    for k in (1, 2, 3):
        if k > field.order:
            continue
        r = exhaustive_independence_check(horner_factory(field, k), field,
                                          k, k, field.order)
        assert r.verdict == "exact-pass", (field, k)


class Const:
    def __init__(self, values):
        self.values = values

    def emit_batch(self, n):
        return list(self.values[:n])


def test_constant_generator_fails_k1():
    f = Gfp(3)
    r = exhaustive_independence_check(lambda seed: Const([2] * 3), f, 1, 1, 3)
    assert r.verdict == "exact-fail"


def test_guard_rejection_reports_scale():
    f = Gfp(101)
    with pytest.raises(GuardExceeded) as err:
        exhaustive_independence_check(horner_factory(f, 5), f, 5, 2, 4)
    assert "101^5" in str(err.value)


def test_position_subset_cap_is_deterministic_prefix():
    f = Gfp(5)
    r = exhaustive_independence_check(horner_factory(f, 2), f, 2, 2, 5,
                                      max_position_subsets=3)
    assert r.positions_examined == 3


def test_exact_pass_invariant_across_position_choices():
    # full sweep at tiny scale: every pair agrees
    f = Gf2w(2)
    r = exhaustive_independence_check(horner_factory(f, 2), f, 2, 2, 4,
                                      max_position_subsets=6)
    assert r.verdict == "exact-pass"
    assert r.positions_examined == 6


def sampled_passing_graph(c, m, d, k, seed=0):
    rng = random.Random(seed)
    while True:
        g = sample_graph(c, m, d, rng)
        if all_small_row_subsets_independent(g, k):
            return g


def expander_check_args(duplicate_row: bool):
    """Arguments of an exhaustive check of a (2, 4, 2) expander over GF(16),
    on a graph that passes the row-subset check or on one whose first two
    rows are the same (the pair XORs to zero)."""
    f = Gf2w(4)
    g = sampled_passing_graph(2, 4, 2, 2)
    if duplicate_row:
        edges = g.edges.copy()
        edges[1] = edges[0]
        g = BipartiteGraph(2, 4, 2, edges)
    gen = build_expander_generator(f, 2, 2, 4, 2, inner_kind="horner",
                                   rng=random.Random(1), graph=g)
    return (gen.fork, f, gen.descriptor.seed_len, 2, 8), g


def test_expander_generator_exact_pass_and_fail_directions():
    args, _ = expander_check_args(duplicate_row=False)
    r = exhaustive_independence_check(*args, max_position_subsets=28)
    assert r.verdict == "exact-pass"

    args, bad = expander_check_args(duplicate_row=True)
    assert not all_small_row_subsets_independent(bad, 2)
    r = exhaustive_independence_check(*args, max_position_subsets=28)
    assert r.verdict == "exact-fail"


def _corrupt_one_value(value):
    """Horner k=2 over GF(5) with position 3 of seed (2, 1) set to value."""
    f = Gfp(5)

    def make(seed):
        gen = HornerGenerator(f, 2, seed)
        if seed != (2, 1):
            return gen
        values = gen.emit_batch(5)
        values[3] = value
        return Const(values)

    return make, f, 2, 2, 5


def _late_failing_subset():
    """Horner k=2 over GF(5) with position 4 a copy of position 3: the
    pair (3, 4), the last of the ten, is the only one that fails."""
    f = Gfp(5)

    def make(seed):
        values = HornerGenerator(f, 2, seed).emit_batch(5)
        values[4] = values[3]
        return Const(values)

    return make, f, 2, 2, 5


def _worse_subset_after_the_first_failure():
    """Horner k=2 over GF(5) with positions 3 and 4 held at 0: the third
    pair, (0, 3), fails first; the last, (3, 4), one tuple 25 times, lies
    further from uniform but is never examined."""
    f = Gfp(5)

    def make(seed):
        values = HornerGenerator(f, 2, seed).emit_batch(5)
        values[3] = values[4] = 0
        return Const(values)

    return make, f, 2, 2, 5


def _gfp13_copied_position():
    """Horner k=3 over GF(13), 2197 seeds, with position 5 a copy of 4."""
    f = Gfp(13)

    def make(seed):
        values = HornerGenerator(f, 3, seed).emit_batch(13)
        values[5] = values[4]
        return Const(values)

    return make, f, 3, 3, 13


def _two_bad_values():
    """Gfp(5), k=2: seed (1, 0) gives 5 at position 2 and the later seed
    (3, 3) gives 2^64, which numpy refuses; the first one is named."""
    f = Gfp(5)

    def make(seed):
        values = HornerGenerator(f, 2, seed).emit_batch(5)
        if seed == (1, 0):
            values[2] = 5
        if seed == (3, 3):
            values[0] = 2**64
        return Const(values)

    return make, f, 2, 2, 5


ORACLE_CASES = [
    *(pytest.param((horner_factory(f, k), f, k, k, f.order), {},
                   id=f"horner-order{f.order}-{type(f).__name__}-k{k}")
      for f in TINY_FIELDS for k in (1, 2, 3) if k <= f.order),
    pytest.param((horner_factory(Gfp(3), 2), Gfp(3), 2, 3, 3), {},
                 id="underseeded-k3"),
    pytest.param((lambda seed: Const([2] * 3), Gfp(3), 1, 1, 3), {},
                 id="constant"),
    pytest.param(lambda: expander_check_args(True)[0],
                 {"max_position_subsets": 28}, id="expander-duplicated-row"),
    pytest.param((horner_factory(Gfp(5), 2), Gfp(5), 2, 2, 5),
                 {"max_position_subsets": 3}, id="subset-prefix"),
    pytest.param(_late_failing_subset, {}, id="late-failing-subset"),
    pytest.param(_worse_subset_after_the_first_failure, {}, id="worse-subset-after-failure"),
    # value 4 never occurs: its count, 0, lies further from 5 than the top count, 7
    pytest.param((lambda seed: Const([(seed[0] + seed[1]) % 4]), Gfp(5), 2, 1, 1),
                 {}, id="missing-value"),
    pytest.param((lambda seed: Const([2**64 - 1, 0, 2**64 - 1]), Gf2w(64), 0, 2, 3),
                 {}, id="seedless-gf2w64"),
    *(pytest.param(lambda v=v: _corrupt_one_value(v), {}, id=f"out-of-range-{v}")
      for v in (5, -1, 2**64, 2**63, 2**64 - 1, -2**64)),
    pytest.param(_two_bad_values, {}, id="first-of-two-bad-values"),
    pytest.param((lambda seed: Const([1, 2**64, 3]), Gf2w(64), 0, 2, 3),
                 {}, id="seedless-gf2w64-above-2^64"),
]


@pytest.mark.parametrize("args,kwargs", ORACLE_CASES)
def test_check_equals_dict_counting_reference(args, kwargs):
    if callable(args):
        args = args()
    assert exhaustive_independence_check(*args, **kwargs) == \
        _reference_check(*args, **kwargs)


@pytest.mark.parametrize("words", [1, 60])
@pytest.mark.parametrize("args,kwargs", ORACLE_CASES)
def test_chunked_counting_equals_reference(args, kwargs, words, monkeypatch):
    # words=1 counts one subset a chunk; 60 puts 2 to 6 subsets in a chunk
    # of 9 to 25 seeds, so chunks end before, at and after a failing subset
    if callable(args):
        args = args()
    monkeypatch.setattr(analysis, "_COUNT_CHUNK_WORDS", words)
    assert exhaustive_independence_check(*args, **kwargs) == \
        _reference_check(*args, **kwargs)


def test_first_failing_subset_past_the_first_chunk():
    args = _gfp13_copied_position()
    chunk = analysis._COUNT_CHUNK_WORDS // 13 ** 3
    r = exhaustive_independence_check(*args)
    assert r == _reference_check(*args)
    # (0, 4, 5) is the 31st subset, after the 11 + 10 + 9 of (0, 1|2|3, _)
    assert r.positions_examined == 31 > 2 * chunk
    assert r.detail == "subset=(0, 4, 5) tuples=169/2197"


def test_counting_temporaries_stay_bounded():
    # tracemalloc peak of a 200-subset check against a 1-subset one over the
    # same 2197 streams: the chunked counting adds less than 256 KiB
    f = Gfp(13)
    streams = {seed: HornerGenerator(f, 3, seed).emit_batch(13)
               for seed in product(range(13), repeat=3)}

    def peak(cap):
        tracemalloc.start()
        try:
            report = exhaustive_independence_check(lambda seed: Const(streams[seed]),
                                                   f, 3, 3, 13, max_position_subsets=cap)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, base = peak(1)
    full, top = peak(POSITION_SUBSET_CAP)
    assert one.passed and full == IndependenceReport("exact-pass", 3, 200, 0.0)
    assert top - base < 256 << 10, (base, top)


def test_check_reports_what_fails():
    late = exhaustive_independence_check(*_late_failing_subset())
    assert late == IndependenceReport("exact-fail", 2, 10, 4.0,
                                      detail="subset=(3, 4) tuples=5/25")
    seedless = exhaustive_independence_check(
        lambda seed: Const([7, 7, 7]), Gf2w(64), 0, 3, 3)
    assert seedless.verdict == "exact-fail"
    assert seedless.positions_examined == 1
    assert seedless.detail == f"subset=(0, 1, 2) tuples=1/{2**192}"
    bad = exhaustive_independence_check(*_corrupt_one_value(5))
    assert bad == IndependenceReport(
        "exact-fail", 2, 0, 0.0,
        detail="value=5 not in [0, 5) seed_index=11 position=3")


@pytest.mark.parametrize("k,n,cap", [(3, 2, POSITION_SUBSET_CAP), (2, 5, 0),
                                     (0, 5, POSITION_SUBSET_CAP)])
def test_vacuous_check_refused(k, n, cap):
    f = Gfp(5)
    for check in (exhaustive_independence_check, rank_independence_check):
        with pytest.raises(ConfigError, match="would examine no"):
            check(horner_factory(f, 2), f, 2, k, n, max_position_subsets=cap)


def test_report_line_format():
    r = IndependenceReport("exact-pass", 3, 10, 0.0)
    line = r.to_line()
    assert line == "verdict=exact-pass k=3 positions=10 worst=0"
    assert r.passed
    assert not IndependenceReport("exact-fail", 1, 1, 9.9).passed


# -- rank check ----------------------------------------------------------------------

def _tiny_prototype(field, kind):
    """A small prototype of `kind` over `field`: independence 2 where the
    kind and field allow it, else 1; graphs of degree 2 over horner."""
    shape = {"expander": dict(c=2, m=field.order, d=2),
             "cascade": dict(c=2, d=2, t=1)}.get(kind, {})
    for k in (2, 1):
        try:
            return build(GeneratorSpec(kind, field, k, **shape, inner="horner"))
        except ConfigError:
            continue
    raise AssertionError(f"no {kind} prototype over {field}")


@pytest.mark.parametrize("kind", ["horner", "fft-batch", "expander", "cascade"])
@pytest.mark.parametrize("field", TINY_FIELDS, ids=repr)
def test_rank_check_equals_enumeration(field, kind):
    proto = _tiny_prototype(field, kind)
    s = proto.descriptor.seed_len
    n = min(proto.descriptor.period, 6)
    verdicts = set()
    for k in sorted({1, 2, 3, s + 1} & set(range(1, n + 1))):
        for cap in (2, POSITION_SUBSET_CAP):
            args = (proto.fork, field, s, k, n)
            report = rank_independence_check(*args, max_position_subsets=cap)
            assert report == exhaustive_independence_check(
                *args, max_position_subsets=cap), (k, cap)
            verdicts.add(report.verdict)
    # k=1 passes; k=s+1 exceeds the seed's s elements and fails
    assert verdicts == ({"exact-pass", "exact-fail"} if s < n else {"exact-pass"})


def test_rank_check_equals_enumeration_on_duplicated_row():
    # a pair of equal outputs fails although k <= s
    args, _ = expander_check_args(duplicate_row=True)
    report = rank_independence_check(*args, max_position_subsets=28)
    assert report == exhaustive_independence_check(*args, max_position_subsets=28)
    assert report.verdict == "exact-fail"


def test_rank_check_field_correct_where_parity_is_not():
    # rows {0,1}, {1,2}, {0,2} are dependent over F_2 but independent over GF(5)
    g = BipartiteGraph(1, 5, 2, np.array([[0, 1], [1, 2], [0, 2], [3, 4], [0, 4]], np.uint32))
    assert not all_small_row_subsets_independent(g, 3)
    f = Gfp(5)
    gen = build_expander_generator(f, 3, 1, 5, 2, inner_kind="horner",
                                   rng=random.Random(0), graph=g)
    args = (gen.fork, f, gen.descriptor.seed_len, 3, 3)
    report = rank_independence_check(*args)
    assert report == exhaustive_independence_check(*args)
    assert report.verdict == "exact-pass"


def test_rank_check_large_fields():
    for field in (Gf2w(64), Gfp(2013265921)):
        r = rank_independence_check(horner_factory(field, 8), field, 8, 8, 20)
        assert r == IndependenceReport("exact-pass", 8, 200, 0.0)
        # seed_len 7 < k: |F|^7 image tuples, each once, against e = 1/|F|
        r = rank_independence_check(horner_factory(field, 7), field, 7, 8, 20)
        assert r == IndependenceReport(
            "exact-fail", 8, 1, 1 - field.order ** 7 / field.order ** 8,
            detail=f"subset={tuple(range(8))} tuples={field.order ** 7}"
                   f"/{field.order ** 8}")


def test_rank_check_reports_inf_beyond_a_float():
    # |F|^(s-k) = 2^(64*20) does not fit a float; a failing subset reports inf
    f = Gf2w(64)

    def make(seed):
        values = HornerGenerator(f, 22, seed).emit_batch(3)
        return Const([values[0], values[1], values[0]])

    r = rank_independence_check(make, f, 22, 2, 3)
    assert (r.verdict, r.positions_examined, r.worst_stat) == ("exact-fail", 2, float("inf"))
    assert r.detail == f"subset=(0, 2) tuples={2**64}/{2**128}"


def test_rank_check_catches_nonlinear_generator():
    f = Gfp(5)

    def squares(seed):
        return Const([f.mul(v, v) for v in HornerGenerator(f, 2, seed).emit_batch(5)])

    r = rank_independence_check(squares, f, 2, 2, 5)
    assert r.verdict == "exact-fail" and r.positions_examined == 0
    assert r.detail.startswith("not linear in the seed at position=")
    assert exhaustive_independence_check(squares, f, 2, 2, 5).verdict == "exact-fail"


@pytest.mark.parametrize("value", [5, -1, 2**64])
def test_rank_check_out_of_range_value(value):
    # seed (0, 1) is a unit seed and the first seed enumeration sees fail
    f = Gfp(5)

    def make(seed):
        values = HornerGenerator(f, 2, seed).emit_batch(5)
        if seed == (0, 1):
            values[3] = value
        return Const(values)

    args = (make, f, 2, 2, 5)
    r = rank_independence_check(*args)
    assert r == IndependenceReport(
        "exact-fail", 2, 0, 0.0,
        detail=f"value={value} not in [0, 5) seed_index=1 position=3")
    assert r == exhaustive_independence_check(*args)


def test_rank_guard_refuses_before_materializing():
    f = Gf2w(64)

    def never(seed):
        raise AssertionError("materialized above the guard")

    with pytest.raises(GuardExceeded, match=f"guard is {RANK_GUARD}"):
        rank_independence_check(never, f, 64, 64, 256, max_position_subsets=10_000)
