import math
import mmap
import random
import tracemalloc
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from kgen import expander
from kgen.errors import ConfigError, GuardExceeded
from kgen.expander import (
    MAX_GRAPH_ENTRIES,
    BipartiteGraph,
    TimeModel,
    all_small_row_subsets_independent,
    beta_pair,
    beta_poisson,
    cascade_failure_bound,
    rank_failure_bound,
    sample_graph,
    search_parameters,
    stack,
)
from kgen.field import Gf2w, Gfp
from kgen.generator import build_expander_generator


# -- independent second oracle for k-uniqueness ---------------------------------

def unique_oracle(g, k):
    """Subset sweep coded independently: multiset of neighbors per subset."""
    n = g.n_left
    for size in range(1, min(k, n) + 1):
        for subset in combinations(range(n), size):
            seen = []
            for x in subset:
                seen.extend(g.adjacency[x])
            if not any(seen.count(y) == 1 for y in set(seen)):
                return False
    return True


def gf2_rank(rows):
    """Rank over F_2 of rows given as int bitsets."""
    basis = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def subset_rank_oracle(g, k):
    """Row-subset independence via per-subset Gaussian elimination."""
    rows = g.row_bitsets()
    n = len(rows)
    for size in range(1, min(k, n) + 1):
        for subset in combinations(range(n), size):
            if gf2_rank([rows[i] for i in subset]) < size:
                return False
    return True


# -- graphs ----------------------------------------------------------------------

def test_sample_graph_shapes():
    rng = random.Random(0)
    g = sample_graph(2, 8, 4, rng)
    assert g.n_left == 16
    for row in g.adjacency:
        assert 1 <= len(row) <= 4
        assert list(row) == sorted(set(row))
    g1 = sample_graph(3, 5, 1, rng)
    assert all(len(r) == 1 for r in g1.adjacency)
    gm1 = sample_graph(2, 1, 3, rng)
    assert all(r == (0,) for r in gm1.adjacency)
    with pytest.raises(ValueError):
        sample_graph(0, 4, 2, rng)


def test_sample_graph_deterministic():
    a = sample_graph(2, 8, 3, random.Random(42))
    b = sample_graph(2, 8, 3, random.Random(42))
    assert a == b


def test_sample_graph_neighbor_uniformity():
    # chi-square over first-draw frequencies, 3 sigma per cell
    rng = random.Random(7)
    m, samples = 8, 10_000
    counts = [0] * m
    for _ in range(samples):
        g = sample_graph(1, m, 1, rng)
        counts[g.adjacency[0][0]] += 1
    expected = samples * m / m / m  # samples/m per cell... one draw per sample
    expected = samples / m
    sigma = math.sqrt(samples * (1 / m) * (1 - 1 / m))
    for c in counts:
        assert abs(c - expected) <= 3.5 * sigma


def padded(rows, m, d):
    """The (len(rows), d) uint32 array of rows of neighbor indices, each
    padded with the pad index m."""
    return np.array([row + (m,) * (d - len(row)) for row in rows], dtype=np.uint32)


def tuple_sampler(c, m, d, rng):
    """The row-tuple sampler the array sampler replaced: d draws per row."""
    return tuple(tuple(sorted({rng.randrange(m) for _ in range(d)}))
                 for _ in range(c * m))


def _assert_tuple_samplers_draws(c, m, d):
    rng, ref = random.Random(c * m * d), random.Random(c * m * d)
    g = sample_graph(c, m, d, rng)
    rows = tuple_sampler(c, m, d, ref)
    assert len(g.adjacency) == len(rows)
    assert tuple(g.adjacency) == rows
    assert g.adjacency[len(rows) - 1] == g.adjacency[-1] == rows[-1]
    assert g == BipartiteGraph(c, m, d, padded(rows, m, d))
    # what the caller draws next (an inner seed, the next level) is the same
    assert rng.getstate() == ref.getstate()


def test_sample_graph_makes_the_tuple_samplers_draws():
    # m = 1, powers of two and 2^13 + 1 reject about half their words;
    # (2, 2^13, 8) takes two full bulk rounds, then shorter ones
    for c, m, d in ((1, 1, 3), (2, 8, 3), (4, 64, 4), (3, 5, 8), (2, 300, 1),
                    (3, 2, 2), (1, 1 << 13, 2), (1, (1 << 13) + 1, 2),
                    (1, 3 << 12, 2), (2, 1 << 13, 8)):
        _assert_tuple_samplers_draws(c, m, d)


def test_sample_graph_draws_across_small_rounds(monkeypatch):
    # rounds of at most 5 words: every graph takes many rounds, most of
    # them after a rejection
    monkeypatch.setattr(expander, "_DRAW_WORDS", 5)
    for c, m, d in ((1, 1, 3), (3, 5, 8), (2, 300, 1), (1, (1 << 13) + 1, 2)):
        _assert_tuple_samplers_draws(c, m, d)


@pytest.mark.parametrize("rows", [16, 15, 5, 4],
                         ids=["below-slab", "one-slab", "whole-slabs", "slabs-plus-remainder"])
def test_sample_graph_draws_across_slabs(monkeypatch, rows):
    # 15 left vertices, drawn, sorted and padded `rows` at a time in rounds
    # of at most 5 words, then stored column-major
    monkeypatch.setattr(expander, "_SAMPLE_ROWS", rows)
    monkeypatch.setattr(expander, "_DRAW_WORDS", 5)
    for c, m, d in ((3, 5, 1), (3, 5, 3), (3, 5, 8), (1, 15, 4)):
        _assert_tuple_samplers_draws(c, m, d)


def draw_below(rng, m, out):
    """`_draw_below` on a generator loaded from rng, whose advanced state
    goes back into rng, as `sample_graph` makes one for a whole graph."""
    gen, save = expander._mersenne_generator(rng)
    expander._draw_below(gen, m, out)
    save()


@pytest.mark.parametrize("words", [5, 1 << 16])
def test_draw_below_makes_randranges_draws_for_32_bit_m(monkeypatch, words):
    # no graph: these m are beyond the size guard
    monkeypatch.setattr(expander, "_DRAW_WORDS", words)
    for m in ((1 << 31) + 5, (1 << 32) - 2, (1 << 32) - 1):
        rng, ref = random.Random(m), random.Random(m)
        out = np.empty(999, dtype=np.uint32)  # not a whole number of rounds
        draw_below(rng, m, out)
        assert out.tolist() == [ref.randrange(m) for _ in range(999)]
        assert rng.getstate() == ref.getstate()
    for m in (0, 1 << 32):  # 2^32 takes two words per randrange attempt
        with pytest.raises(ValueError):
            draw_below(random.Random(0), m, out)


def _advanced(seed, words, gauss=False):
    """A seeded rng past `words` 32-bit words, and, with `gauss`, holding
    the second normal of a gauss() pair in gauss_next."""
    rng = random.Random(seed)
    for _ in range(words):
        rng.getrandbits(32)
    if gauss:
        rng.gauss(0.0, 1.0)
    return rng


@pytest.mark.parametrize("words,gauss", [(0, False), (1, False), (300, False),
                                         (623, False), (624, False), (300, True)],
                         ids=["fresh", "one-in", "mid-block", "block-end",
                              "next-block", "gauss-next"])
def test_draw_below_continues_the_rngs_own_state(words, gauss):
    # part-way through the 624-word block, and with gauss_next set: the
    # draws are randrange's, and the rng goes on as randrange leaves it
    for m in (1, 5, 1 << 13, (1 << 13) + 1, (1 << 32) - 1):
        rng, ref = _advanced(m, words, gauss), _advanced(m, words, gauss)
        assert (rng.getstate()[2] is not None) == gauss
        out = np.empty(1500, dtype=np.uint32)  # crosses a block boundary
        draw_below(rng, m, out)
        assert out.tolist() == [ref.randrange(m) for _ in range(1500)]
        assert rng.getstate() == ref.getstate()
        assert rng.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)
        assert rng.getrandbits(64) == ref.getrandbits(64)


def test_draw_rounds_ask_for_at_most_draw_words(monkeypatch):
    # each round's uint32 words stay within _DRAW_WORDS * 4 bytes <= 512 KiB
    import numpy.random

    requests = []

    class Generator(numpy.random.Generator):
        def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
            requests.append((size, np.dtype(dtype).itemsize))
            return super().integers(low, high, size, dtype, endpoint)

    monkeypatch.setattr(numpy.random, "Generator", Generator)
    _assert_tuple_samplers_draws(2, 1 << 13, 8)  # 2^17 draws a slab
    rng = random.Random(1)
    draw_below(rng, 5, np.empty(3 * expander._DRAW_WORDS + 7, dtype=np.uint32))
    sizes = [size for size, _ in requests]
    assert max(size * width for size, width in requests) <= 512 * 1024
    assert sizes and max(sizes) <= expander._DRAW_WORDS
    assert sizes[-1] < expander._DRAW_WORDS  # the last rounds ask for what is missing


def test_sample_graph_loads_one_bit_generator_per_graph(monkeypatch):
    # one MT19937 per graph, not one per slab: 15 rows in slabs of 4
    import numpy.random

    constructed = []

    # named as numpy's class, since the state setter checks the name
    class MT19937(numpy.random.MT19937):
        def __init__(self, *args, **kwargs):
            constructed.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(numpy.random, "MT19937", MT19937)
    monkeypatch.setattr(expander, "_SAMPLE_ROWS", 4)
    _assert_tuple_samplers_draws(3, 5, 8)
    assert len(constructed) == 1
    sample_graph(3, 5, 8, random.Random(2))
    assert len(constructed) == 2


@pytest.mark.parametrize("d", range(1, 19))
def test_sorting_network_sorts_every_zero_one_row(d):
    # the 0-1 principle: a comparator network that sorts every row of 0s
    # and 1s sorts every row; bit j of row r is column j, as uint8
    r = np.arange(1 << d, dtype=np.uint32)
    columns = [((r >> j) & 1).astype(np.uint8) for j in range(d)]
    ones = sum(columns)
    network = expander._sorting_network(d)
    assert all(0 <= i < j < d for i, j in network)
    expander._sort_columns(columns, network, np.empty(1 << d, dtype=np.uint8))
    assert (np.stack(columns, axis=1) == (np.arange(d) >= d - ones[:, None])).all()


@pytest.mark.parametrize("d", [24, 32, 33, 64, 256])
def test_sorting_network_sorts_random_rows_with_ties(d):
    # draws from [0, d/2), so most rows repeat values
    rows = np.random.default_rng(d).integers(0, d // 2, size=(256, d), dtype=np.uint32)
    columns = [rows[:, j].copy() for j in range(d)]
    expander._sort_columns(columns, expander._sorting_network(d),
                           np.empty(len(rows), dtype=np.uint32))
    assert (np.stack(columns, axis=1) == np.sort(rows, axis=1)).all()


@pytest.mark.parametrize("d", [5, 7, 16, 17, 32, 33])
def test_sample_graph_sorts_rows_on_both_sides_of_the_network_crossover(monkeypatch, d):
    # the network sorts the stored columns at every d: odd wire counts, and
    # powers of two with the wire counts just above them; slabs of 4 rows in
    # rounds of at most 5 words.  From d = 32 on, a network of 191 or more
    # comparators runs per slab, so those graphs are 16 times smaller.
    monkeypatch.setattr(expander, "_SAMPLE_ROWS", 4)
    monkeypatch.setattr(expander, "_DRAW_WORDS", 5)
    _assert_tuple_samplers_draws(1, (1 << (13 if d < 32 else 9)) + 1, d)


@pytest.mark.parametrize("rng", [random.SystemRandom(), np.random.default_rng(0)],
                         ids=["SystemRandom", "numpy-Generator"])
def test_sample_graph_refuses_an_rng_without_mersenne_state(monkeypatch, rng):
    def no_mmap(*args):
        raise AssertionError("the graph was allocated before the rng was checked")

    monkeypatch.setattr(expander.mmap, "mmap", no_mmap)
    with pytest.raises(ConfigError, match="Mersenne-Twister state"):
        sample_graph(2, 8, 3, rng)
    with pytest.raises(ConfigError, match="Mersenne-Twister state"):
        build_expander_generator(Gfp(2013265921), 4, 4, 64, 4, rng=rng)
    with pytest.raises(ConfigError, match="Mersenne-Twister state"):
        draw_below(rng, 8, np.empty(4, dtype=np.uint32))


def test_sampled_graph_is_mmap_backed_and_shared_by_forks():
    field = Gfp(2013265921)
    gen = build_expander_generator(field, 4, 4, 64, 4, rng=random.Random(3))
    g = gen.graph
    base = g.edges
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)  # np.frombuffer's memoryview
    assert g.edges.flags.f_contiguous  # each neighbor column is one run
    assert not g.edges.flags.writeable
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1
    child = gen.fork(gen.seed)
    assert child.graph is g
    rng = random.Random(4)
    values = [field.random_element(rng) for _ in range(g.m)]
    assert g.row_sums(field, values).tolist() == _row_sums_oracle(field, g, values)


def test_graph_array_layout():
    rows = ((0, 2), (1,), (0, 1, 2))
    g = BipartiteGraph(1, 3, 3, padded(rows, 3, 3))
    assert g.edges.dtype == np.uint32
    assert g.edges.tolist() == [[0, 2, 3], [1, 3, 3], [0, 1, 2]]  # pad index m = 3
    assert not g.edges.flags.writeable
    assert tuple(g.adjacency) == rows
    assert BipartiteGraph(1, 3, 3, g.edges.copy()) == g
    with pytest.raises(ValueError):
        BipartiteGraph(1, 3, 3, g.edges.astype(np.int64))
    with pytest.raises(ValueError):  # a graph is an array, not rows of tuples
        BipartiteGraph(1, 3, 3, rows)
    with pytest.raises(ValueError):  # empty row
        BipartiteGraph(1, 3, 3, np.array([[3, 3, 3], [1, 3, 3], [0, 1, 2]], np.uint32))
    with pytest.raises(ValueError):  # pad mid-row
        BipartiteGraph(1, 3, 3, np.array([[0, 3, 2], [1, 3, 3], [0, 1, 2]], np.uint32))
    with pytest.raises(ValueError):  # index beyond the pad
        BipartiteGraph(1, 3, 3, np.array([[0, 4, 4], [1, 3, 3], [0, 1, 2]], np.uint32))


def test_c_ordered_input_gives_the_same_column_major_graph():
    field = Gfp(2013265921)
    g = sample_graph(4, 64, 4, random.Random(5))
    rows = np.ascontiguousarray(g.edges)
    assert rows.flags.c_contiguous and not rows.flags.f_contiguous
    h = BipartiteGraph(4, 64, 4, rows)
    assert h == g
    assert h.edges.flags.f_contiguous and not h.edges.flags.writeable
    assert not np.shares_memory(h.edges, rows)  # copied into column order once
    assert np.shares_memory(BipartiteGraph(4, 64, 4, g.edges).edges, g.edges)
    values = [field.random_element(random.Random(6)) for _ in range(64)]
    assert np.array_equal(h.row_sums(field, values), g.row_sums(field, values))


def test_graph_validation_temporaries_are_one_column_wide():
    # checked one pair of neighbor columns at a time, the constructor's
    # temporaries stay below one (c*m, d-1) bool array, which the whole-array
    # check made three of
    c, m, d = 16, 1 << 14, 8
    g = sample_graph(c, m, d, random.Random(0))
    tracemalloc.start()
    try:
        BipartiteGraph(c, m, d, g.edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c * m * (d - 1)


def test_graph_size_guards():
    with pytest.raises(GuardExceeded, match=str(MAX_GRAPH_ENTRIES + 1)):
        sample_graph(1, MAX_GRAPH_ENTRIES + 1, 1, random.Random(0))
    g = sample_graph(1, 1 << 10, 2, random.Random(0))
    with pytest.raises(GuardExceeded):
        stack(g, MAX_GRAPH_ENTRIES // (1 << 11) + 1)


def test_graph_validation():
    with pytest.raises(ValueError, match="every left vertex"):
        BipartiteGraph(1, 2, 1, padded(((0,),), 2, 1))  # missing rows
    with pytest.raises(ValueError, match="out of range"):
        BipartiteGraph(1, 2, 1, padded(((0,), (3,)), 2, 1))  # beyond the pad index 2
    with pytest.raises(ValueError, match="duplicate-free"):
        BipartiteGraph(1, 2, 2, padded(((0, 0), (1,)), 2, 2))


# -- gather ----------------------------------------------------------------------

# uint32 tables: gfp:13, gfp:2013265921, gf2w:16, gf2w:32; uint64 tables:
# gfp:4294967291 (2^31 <= p < 2^32, where a uint32 sum of two residues would
# wrap), p just below 2^63, and w = 33 and 64.  No built-in polynomial gives
# GF(2^33); row_sums reads only a field's char and order (and p), so a
# stand-in with those stands for it.
_GATHER_FIELDS = {
    "gfp:13": Gfp(13),
    "gfp:2013265921": Gfp(2013265921),
    "gfp:4294967291": Gfp(4294967291),
    "gfp:9223372036853661697": Gfp(9223372036853661697),
    "gf2w:16": Gf2w(16),
    "gf2w:32": Gf2w(32),
    "gf2w:33": SimpleNamespace(char=2, order=1 << 33, add=lambda a, b: a ^ b),
    "gf2w:64": Gf2w(64),
}


def _row_sums_oracle(field, g, values):
    out = []
    for row in g.adjacency:
        acc = 0
        for y in row:
            acc = field.add(acc, values[y])
        out.append(acc)
    return out


@pytest.mark.parametrize("rows", [16, 15, 14, 4],
                         ids=["below-slab", "one-slab", "slab-plus-one", "slabs-plus-remainder"])
@pytest.mark.parametrize("spec", sorted(_GATHER_FIELDS))
def test_row_sums_matches_adjacency_sums(monkeypatch, spec, rows):
    monkeypatch.setattr(expander, "_GATHER_ROWS", rows)
    field = _GATHER_FIELDS[spec]
    top = field.order - 1
    rng = random.Random(rows)
    for d in (1, 3, 8):  # d=8 > m: every row is padded
        g = sample_graph(3, 5, d, rng)  # 15 left vertices
        values = [top, top - 1, top, rng.randrange(field.order), 0]
        got = g.row_sums(field, values)
        assert got.dtype == np.uint64
        assert got.tolist() == _row_sums_oracle(field, g, values)


def _row_sums_peak(field, d):
    """tracemalloc peak of one warm row_sums call on a (16, 8192, d) graph."""
    g = sample_graph(16, 8192, d, random.Random(d))
    values = np.arange(8192, dtype=np.uint64)
    g.row_sums(field, values)
    tracemalloc.start()
    try:
        g.row_sums(field, values)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["gfp:2013265921", "gf2w:64"])  # uint32, uint64 tables
def test_row_sums_transient_memory_does_not_grow_with_d(spec):
    field = _GATHER_FIELDS[spec]
    assert abs(_row_sums_peak(field, 16) - _row_sums_peak(field, 4)) < 64 << 10


def test_row_sums_rejects_values_of_the_wrong_length():
    g = BipartiteGraph(2, 4, 2, padded(((0, 1), (1,), (2, 3), (0,), (3,), (1, 2), (0, 3), (2,)),
                                       4, 2))
    for values in ([5], [1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(ValueError, match="4 right values"):
            g.row_sums(Gfp(13), values)
    assert g.row_sums(Gfp(13), [12, 11, 10, 9]).tolist() == [10, 11, 6, 12, 9, 8, 8, 10]


def test_stack_examples():
    edge = BipartiteGraph(1, 1, 1, padded(((0,),), 1, 1))
    st2 = stack(edge, 2)
    assert tuple(st2.adjacency) == ((0,), (1,))
    g = sample_graph(2, 3, 2, random.Random(1))
    assert stack(g, 1) is g
    # a deduplicated row keeps its pads at the stacked graph's pad index
    short = BipartiteGraph(1, 2, 2, padded(((1,), (0, 1)), 2, 2))
    st = stack(short, 2)
    assert tuple(st.adjacency) == ((1,), (0, 1), (3,), (2, 3))
    assert st.edges.tolist() == [[1, 4], [0, 1], [3, 4], [2, 3]]


def test_stack_preserves_both_properties():
    rng = random.Random(5)
    for _ in range(60):
        c = rng.choice([1, 2])
        m = rng.choice([2, 3, 4])
        d = rng.choice([1, 2, 3])
        g = sample_graph(c, m, d, rng)
        st = stack(g, 3)
        for k in (1, 2, 3):
            assert (all_small_row_subsets_independent(st, k)
                    == all_small_row_subsets_independent(g, k))
            if st.n_left <= 24:
                assert unique_oracle(st, k) == unique_oracle(g, k)


# -- row-subset independence oracle --------------------------------------------

def test_row_subsets_trivia():
    ident = BipartiteGraph(1, 4, 1, padded(((0,), (1,), (2,), (3,)), 4, 1))
    assert all_small_row_subsets_independent(ident, 4)
    dup = BipartiteGraph(1, 2, 2, padded(((0, 1), (0, 1)), 2, 2))
    assert not all_small_row_subsets_independent(dup, 2)
    assert all_small_row_subsets_independent(dup, 1)


def test_row_subsets_matches_gaussian_oracle():
    rng = random.Random(8)
    for _ in range(40):
        g = sample_graph(2, rng.choice([3, 4]), rng.choice([1, 2, 3]), rng)
        for k in (1, 2, 3, 4):
            assert (all_small_row_subsets_independent(g, k)
                    == subset_rank_oracle(g, k))


def test_row_subsets_sampled_path():
    # exact enumeration beyond the budget is refused, at any k >= 3
    rng = random.Random(9)
    g = sample_graph(4, 256, 4, rng)
    with pytest.raises(GuardExceeded):
        all_small_row_subsets_independent(g, 8, max_enum=10_000)
    edges = g.edges.copy()
    edges[10] = edges[3]
    bad = BipartiteGraph(4, 256, 4, edges)
    # duplicated row: 0 in XOR of the pair; the exact pair path catches it at
    # any size
    assert not all_small_row_subsets_independent(bad, 2)


def test_row_subsets_guard():
    g = sample_graph(4, 256, 4, random.Random(1))
    with pytest.raises(GuardExceeded):
        all_small_row_subsets_independent(g, 30, max_enum=1000)


# -- bound calculators --------------------------------------------------------------

def test_beta_pair_anchors():
    assert math.isclose(10 ** beta_pair(2, 1, 2), 0.5)
    assert math.isclose(10 ** beta_pair(1, 2, 4), 0.25)
    assert beta_pair(1, 3, 4) == float("-inf")


def exact_all_even_probability(balls, m):
    hits = 0
    for placement in product(range(m), repeat=balls):
        counts = [0] * m
        for b in placement:
            counts[b] += 1
        if all(c % 2 == 0 for c in counts):
            hits += 1
    return hits / m ** balls


@pytest.mark.parametrize("i,d,m", [(2, 1, 2), (1, 2, 4), (2, 2, 2), (2, 2, 4),
                                   (4, 2, 3), (2, 4, 4), (1, 4, 2), (2, 3, 3)])
def test_beta_pair_dominates_exact_enumeration(i, d, m):
    exact = exact_all_even_probability(i * d, m)
    lg = beta_pair(i, d, m)
    bound = 10 ** lg if lg > -300 else 0.0
    assert exact <= bound + 1e-12


def test_beta_poisson_examples():
    want = math.e * math.sqrt(2) * ((1 + math.exp(-2.0)) / 2) ** 2
    assert math.isclose(10 ** beta_poisson(1, 2, 2), want)
    # m -> infinity with i*d fixed: ((1+e^(-2id/m))/2)^m -> e^(-id),
    # so the value tends to e * sqrt(id) * e^(-id)
    big = 10 ** beta_poisson(1, 2, 10**6)
    assert math.isclose(big, math.e * math.sqrt(2) * math.exp(-2.0), rel_tol=1e-4)
    # strictly decreasing in m, both at fixed id and at fixed id/m ratio
    fixed_id = [beta_poisson(1, 16, m) for m in (16, 32, 64, 128)]
    assert all(a > b for a, b in zip(fixed_id, fixed_id[1:]))
    ratio_fixed = [beta_poisson(1, m, m) for m in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(ratio_fixed, ratio_fixed[1:]))


@pytest.mark.parametrize("d,m", [(3, 16), (4, 64), (7, 1 << 13)])
def test_betas_on_arrays_match_scalar_calls(d, m):
    # i*d is odd for odd i when d is odd: beta_pair is -inf there
    sizes = np.array([1, 2, 3, 5, 8, 17, 40, 200])
    for beta in (beta_pair, beta_poisson):
        got = beta(sizes, d, m)
        assert got.shape == sizes.shape
        want = [beta(int(i), d, m) for i in sizes]
        assert all(isinstance(v, float) for v in want)
        assert got.tolist() == want
    if d % 2:
        assert beta_pair(3, d, m) == float("-inf")


def test_rank_failure_bound_k1():
    r = rank_failure_bound(2, 16, 4, 1)
    want = math.log10(2 * 16) + min(beta_pair(1, 4, 16), beta_poisson(1, 4, 16))
    assert math.isclose(r.log10_delta, want, rel_tol=1e-12)


def test_rank_failure_bound_uses_min_of_betas():
    # log10_delta is the log-sum over subset sizes i of C(cm, i) times the
    # smaller beta; here each beta is the smaller at some size
    c, m, d, k = 4, 64, 4, 16
    cm = c * m
    terms, pair_wins = [], set()
    for i in range(1, k + 1):
        lb = (math.lgamma(cm + 1) - math.lgamma(i + 1)
              - math.lgamma(cm - i + 1)) / math.log(10)
        pair, poisson = beta_pair(i, d, m), beta_poisson(i, d, m)
        terms.append(lb + min(pair, poisson))
        pair_wins.add(pair < poisson)
    assert pair_wins == {True, False}
    want = math.log10(sum(10 ** t for t in terms))
    assert math.isclose(rank_failure_bound(c, m, d, k).log10_delta, want, rel_tol=1e-12)


def test_one_level_cascade_bound_is_rank_failure_bound():
    # an expander declares the one-level sum; subsets larger than the c*m
    # rows contribute nothing, so clamping k to c*m moves neither value
    for c, m, d in product((1, 2, 4, 16), (2, 8, 64, 2**13), (1, 2, 4, 8)):
        for k in (1, 2, 5, 64, c * m, c * m + 1, 5000):
            want = rank_failure_bound(c, m, d, k)
            got = cascade_failure_bound(c, m, d, k, 1)
            assert got.log10_delta == want.log10_delta, (c, m, d, k)
            assert got.delta == want.delta


def test_cascade_bound_sums_its_levels():
    # level i: a (c, c^(i-1)*m0, d) graph needing min(d^(t-i)*k, c^i*m0)
    c, m0, d, k, t = 4, 16, 2, 8, 3
    levels = [rank_failure_bound(c, c ** (i - 1) * m0, d, min(d ** (t - i) * k, c ** i * m0))
              for i in range(1, t + 1)]
    want = math.log10(sum(10 ** r.log10_delta for r in levels))
    assert math.isclose(cascade_failure_bound(c, m0, d, k, t).log10_delta, want, rel_tol=1e-12)


def test_a_bound_below_the_float_range_declares_a_positive_delta():
    # log10 about -473.6: 10**log10 underflows, and a zero would read as an
    # exact kind's delta
    b = cascade_failure_bound(1, 2**19, 256, 1, 1)
    assert b.log10_delta < -400
    assert b.delta > 0


def test_rank_failure_bound_table_rows():
    assert rank_failure_bound(64, 2**13, 8, 2**5).log10_delta <= -7
    assert rank_failure_bound(64, 2**18, 8, 2**10).log10_delta <= -12
    assert rank_failure_bound(64, 2**18, 16, 2**12).log10_delta <= -29


def test_sampling_success_rate_at_example_scale():
    # (c=4, m=64, d=4, k=2): sampled graphs pass the row-subset check in
    # >= 95 of 100 seeded draws
    rng = random.Random(1)
    passes = sum(
        all_small_row_subsets_independent(sample_graph(4, 64, 4, rng), 2)
        for _ in range(100)
    )
    assert passes >= 95, passes


def test_sampling_success_where_bound_is_small():
    # at (c=4, m=2048, d=4, k=2) the union bound itself is <= 0.01; a
    # dedicated exact pair oracle keeps the check linear at this size
    assert rank_failure_bound(4, 2048, 4, 2).delta <= 0.01
    rng = random.Random(7)
    passes = 0
    for _ in range(20):
        g = sample_graph(4, 2048, 4, rng)
        rows = g.row_bitsets()
        passes += 0 not in rows and len(set(rows)) == len(rows)
    assert passes >= 19


# -- parameter search ------------------------------------------------------------------

def test_search_trivial_target():
    r = search_parameters(16, [2, 4], [2, 4], 1.0)
    assert all(row.m == 2 for row in r.rows)


def test_search_known_feasible_row():
    r = search_parameters(2**5, [16, 32, 64], [4, 8, 16], 1e-7)
    cell = next(row for row in r.rows if (row.c, row.d) == (64, 8))
    assert cell.feasible and cell.m <= 2**13
    assert r.winner is not None


def test_search_tighter_target_grows_m():
    loose = search_parameters(2**5, [64], [8], 1e-7).rows[0]
    tight = search_parameters(2**5, [64], [8], 1e-10).rows[0]
    assert tight.m > loose.m


def test_search_infeasible_reported():
    r = search_parameters(2**10, [2], [2], 1e-30)
    assert r.winner is None
    assert not r.rows[0].feasible


def test_search_winners_fit_the_graph_guard():
    # every feasible cell is a graph sample_graph accepts
    r = search_parameters(65536, [16, 32, 64], [4, 8, 16], 1e-9)
    feasible = [row for row in r.rows if row.feasible]
    assert feasible
    assert all(row.c * row.m * row.d <= MAX_GRAPH_ENTRIES for row in feasible)


def test_time_model_shape():
    tm = TimeModel()
    assert tm.predict(64, 1 << 13, 8, 1 << 10) < tm.predict(16, 1 << 13, 8, 1 << 10)
    assert tm.lookup_ns(1 << 10) <= tm.lookup_ns(1 << 22)
