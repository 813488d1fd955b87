import random
from itertools import combinations, islice, product

import pytest

from kgen.analysis import (
    POSITION_SUBSET_CAP,
    IndependenceReport,
    chi_square_screen,
    exhaustive_independence_check,
)
from kgen.errors import ConfigError, GuardExceeded
from kgen.expander import (
    BipartiteGraph,
    all_small_row_subsets_independent,
    sample_graph,
)
from kgen.field import Gf2w, Gfp
from kgen.generator import HornerGenerator, build_expander_generator


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
        rows = list(g.adjacency)
        rows[1] = rows[0]
        g = BipartiteGraph(2, 4, 2, tuple(rows))
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
    # value 4 never occurs: its count, 0, lies further from 5 than the top count, 7
    pytest.param((lambda seed: Const([(seed[0] + seed[1]) % 4]), Gfp(5), 2, 1, 1),
                 {}, id="missing-value"),
    pytest.param((lambda seed: Const([2**64 - 1, 0, 2**64 - 1]), Gf2w(64), 0, 2, 3),
                 {}, id="seedless-gf2w64"),
    *(pytest.param(lambda v=v: _corrupt_one_value(v), {}, id=f"out-of-range-{v}")
      for v in (5, -1, 2**64)),
]


@pytest.mark.parametrize("args,kwargs", ORACLE_CASES)
def test_check_equals_dict_counting_reference(args, kwargs):
    if callable(args):
        args = args()
    assert exhaustive_independence_check(*args, **kwargs) == \
        _reference_check(*args, **kwargs)


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
    with pytest.raises(ConfigError, match="would examine no"):
        exhaustive_independence_check(horner_factory(f, 2), f, 2, k, n,
                                      max_position_subsets=cap)


def test_report_line_format():
    r = IndependenceReport("exact-pass", 3, 10, 0.0)
    line = r.to_line()
    assert line == "verdict=exact-pass k=3 positions=10 worst=0"
    assert r.passed
    assert not IndependenceReport("screen-fail", 1, 1, 9.9).passed


# -- chi-square screen ---------------------------------------------------------------

def test_screen_true_entropy_passes():
    f = Gf2w(16)

    def source(seed):
        r = random.Random(seed)
        return [r.getrandbits(16) for _ in range(32)]

    report = chi_square_screen(source, f, 2, 32, 3000, random.Random(0))
    assert report.verdict == "screen-pass"


def test_screen_all_zeros_fails():
    f = Gf2w(16)
    report = chi_square_screen(lambda s: [0] * 32, f, 2, 32, 1000,
                               random.Random(0))
    assert report.verdict == "screen-fail"


def test_screen_handles_non_pow4_field():
    f = Gfp(13)  # 13 mod 4 = 1: lopsided low-bit cells, exact probabilities used

    def source(seed):
        r = random.Random(seed)
        return [r.randrange(13) for _ in range(16)]

    report = chi_square_screen(source, f, 2, 16, 4000, random.Random(1))
    assert report.verdict == "screen-pass"


def test_screen_k_guard():
    f = Gf2w(16)
    with pytest.raises(GuardExceeded):
        chi_square_screen(lambda s: [0] * 8, f, 5, 8, 10, random.Random(0))


def test_screen_on_generator_stream():
    f = Gf2w(16)

    def source(seed_int):
        rng = random.Random(seed_int)
        seed = [f.random_element(rng) for _ in range(8)]
        return HornerGenerator(f, 8, seed).emit_batch(32)

    report = chi_square_screen(source, f, 3, 32, 2000, random.Random(2))
    assert report.verdict == "screen-pass"


def test_screen_expander_generator_at_scale():
    f = Gf2w(16)
    proto = build_expander_generator(f, 32, c=16, m=2048, d=4,
                                     inner_kind="fft-batch",
                                     rng=random.Random(6))

    def source(seed_int):
        rng = random.Random(seed_int)
        seed = tuple(f.random_element(rng)
                     for _ in range(proto.descriptor.seed_len))
        return proto.fork(seed).emit_batch(64)

    report = chi_square_screen(source, f, 2, 64, 1200, random.Random(3))
    assert report.verdict == "screen-pass"


def test_exhaustive_check_threads_deterministic():
    f = Gfp(5)
    mk = horner_factory(f, 2)
    a = exhaustive_independence_check(mk, f, 2, 2, 5)
    b = exhaustive_independence_check(mk, f, 2, 2, 5, threads=3)
    assert a == b
