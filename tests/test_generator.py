import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen.entropy import spawn_rng
from kgen.errors import ConfigError, GuardExceeded, PeriodExhausted
from kgen.expander import BipartiteGraph, sample_graph
from kgen.fft import CosetDftPlan
from kgen.field import Gf2w, Gfp, parse_field_spec
from kgen.generator import (
    _LANE_CAP,
    FftBatchGenerator,
    GeneratorDescriptor,
    GeneratorSpec,
    HornerGenerator,
    build,
    build_cascade_generator,
    build_expander_generator,
    seed_from_hex,
    seed_to_hex,
    write_stream,
)
from kgen.poly import Polynomial, horner_eval, naive_multipoint


# -- horner ------------------------------------------------------------------

def test_horner_first_values_gf7():
    g = HornerGenerator(Gfp(7), 3, [1, 2, 3])
    assert g.emit_batch(3) == [1, 6, 3]  # h(0), h(1), h(2)


def test_horner_constant_stream():
    g = HornerGenerator(Gfp(5), 1, [4])
    assert g.emit_batch(5) == [4] * 5


def test_horner_descriptor_and_exhaustion():
    f = Gfp(5)
    g = HornerGenerator(f, 2, [1, 2])
    d = g.descriptor
    assert d == GeneratorDescriptor("horner", f, 2, 5, 0.0, 2)
    g.emit_batch(5)
    with pytest.raises(PeriodExhausted):
        g.emit()
    g2 = HornerGenerator(f, 2, [1, 2])
    with pytest.raises(PeriodExhausted):
        g2.emit_batch(6)


@pytest.mark.parametrize("field", [Gfp(5), Gf2w(3)])
def test_horner_emit_batch_equals_emit(field):
    rng = random.Random(5)
    order = field.order
    for k in (1, 2, 3):
        seed = [field.random_element(rng) for _ in range(k)]
        one = HornerGenerator(field, k, seed)
        want = [one.emit() for _ in range(order)]
        g = HornerGenerator(field, k, seed)
        got = g.emit_batch(2) + [g.emit()] + g.emit_batch(0) + g.emit_batch(order - 3)
        assert got == want and g.remaining == 0
        with pytest.raises(PeriodExhausted):
            g.emit_batch(1)
        g = HornerGenerator(field, k, seed)
        assert g.emit_batch(1) == want[:1]
        with pytest.raises(PeriodExhausted):
            g.emit_batch(order)  # one more than remains: nothing is consumed
        assert g.emit_batch(order - 1) == want[1:]


@pytest.mark.parametrize("spec", ["gfp:13", "gfp:2305843009213693951", "gf2w:8",
                                  "gf2w:16", "gf2w:64"])
def test_field_horner_equals_horner_eval(spec):
    # the first and the last positions of the period, and every k up to 5
    f = parse_field_spec(spec)
    rng = random.Random(spec)
    xs = sorted({*range(min(f.order, 40)), *range(f.order - 3, f.order)})
    for k in range(1, 6):
        coeffs = (f.order - 1,) + tuple(f.random_element(rng) for _ in range(k - 1))
        h = Polynomial(f, coeffs)
        assert f.horner(coeffs, xs) == [horner_eval(h, x) for x in xs], (spec, k)
        assert f.horner(coeffs, []) == []
    if f.order <= 1 << 16:  # a generator's last values, where its period can be run
        g = HornerGenerator(f, 3, coeffs[:3])
        g.emit_batch(f.order - 3)
        assert g.emit_batch(3) == [horner_eval(Polynomial(f, coeffs[:3]), x) for x in xs[-3:]]


def test_horner_descriptor_built_on_first_access():
    f = Gf2w(16)
    g = HornerGenerator(f, 2, [1, 2])
    g.emit_batch(4)
    child = g.fork([3, 4])
    assert (g.remaining, child.remaining, child.emit()) == (f.order - 4, f.order, 3)
    assert "descriptor" not in vars(g) and "descriptor" not in vars(child)
    eager = GeneratorDescriptor("horner", f, 2, f.order, 0.0, 2)
    assert g.descriptor == eager and g.descriptor is g.descriptor
    assert g.descriptor.header_line(g.seed) == eager.header_line((1, 2)) == (
        "# kind=horner field=gf2w:16 k=2 period=65536 delta=0 seedlen=2"
        " seed=00010002\n")


def test_horner_rejections():
    with pytest.raises(ConfigError):
        HornerGenerator(Gfp(5), 6, [0] * 6)  # k > |F|
    with pytest.raises(ConfigError):
        HornerGenerator(Gfp(5), 3, [0, 1])  # wrong seed length


def test_same_seed_same_stream():
    f = Gf2w(8)
    seed = [3, 1, 4, 1]
    a = HornerGenerator(f, 4, seed).emit_batch(20)
    b = HornerGenerator(f, 4, seed).emit_batch(20)
    assert a == b


# -- fft-batch ------------------------------------------------------------------

def test_fft_batch_gfp_divisibility():
    f = Gfp(257)
    FftBatchGenerator(f, 16, [1] * 16)
    with pytest.raises(ConfigError):
        FftBatchGenerator(f, 10, [1] * 10)  # 10 does not divide 256


def test_fft_batch_gfp_first_coset_matches_naive():
    f = Gfp(257)
    rng = random.Random(0)
    seed = [f.random_element(rng) for _ in range(16)]
    gen = FftBatchGenerator(f, 16, seed)
    h = Polynomial(f, tuple(seed))
    plan = CosetDftPlan(f, 16, gen._plan.omega)
    assert gen.emit_batch(16) == naive_multipoint(h, plan.coset_points())


def test_fft_batch_gfp_full_period_is_fstar():
    f = Gfp(13)
    seed = [0, 1, 0, 0]  # h(x) = x: stream = the points themselves
    gen = FftBatchGenerator(f, 4, seed)
    stream = gen.emit_batch(12)
    assert sorted(stream) == list(range(1, 13))
    with pytest.raises(PeriodExhausted):
        gen.emit()


def test_fft_batch_gf2w_matches_naive_cover():
    f = Gf2w(8)
    rng = random.Random(1)
    seed = [f.random_element(rng) for _ in range(8)]
    gen = FftBatchGenerator(f, 8, seed)
    h = Polynomial(f, tuple(seed))
    stream = gen.emit_batch(256)
    pts = []
    for j in range(32):
        shift = gen._gray_shift(j)
        pts.extend(shift ^ b for b in range(8))
    assert sorted(pts) == list(range(256))  # disjoint cover of the field
    assert stream == naive_multipoint(h, pts)
    with pytest.raises(PeriodExhausted):
        gen.emit()


def test_fft_batch_gf2w64_window_vs_naive():
    f = Gf2w(64)
    rng = random.Random(21)
    k = 1 << 12
    seed = [f.random_element(rng) for _ in range(k)]
    gen = FftBatchGenerator(f, k, seed)
    stream = gen.emit_batch(k)  # one batch: the first affine-subspace cover
    h = Polynomial(f, tuple(seed))
    pts = [gen._gray_shift(0) ^ b for b in range(k)]
    assert stream == naive_multipoint(h, pts)


def test_fft_batch_gf2w_nonpow2_k():
    f = Gf2w(8)
    rng = random.Random(2)
    seed = [f.random_element(rng) for _ in range(5)]
    gen = FftBatchGenerator(f, 5, seed)  # batch rounds up to 8
    h = Polynomial(f, tuple(seed))
    assert gen.batch_size == 8
    assert gen.emit_batch(16) == naive_multipoint(
        h, [gen._gray_shift(0) ^ b for b in range(8)]
        + [gen._gray_shift(1) ^ b for b in range(8)])


@pytest.mark.parametrize("make,spec,k", [
    pytest.param(FftBatchGenerator, "gf2w:8", 8, id="gf2w:8-8"),
    pytest.param(FftBatchGenerator, "gf2w:8", 5, id="gf2w:8-5"),
    pytest.param(FftBatchGenerator, "gfp:257", 16, id="gfp:257-16"),
    pytest.param(FftBatchGenerator, "gfp:9223372036853661697", 4,
                 id="gfp:9223372036853661697-4"),
    pytest.param(HornerGenerator, "gfp:13", 3, id="horner-gfp:13-3"),
])
def test_fft_batch_fill_emit_and_emit_batch_agree(make, spec, k):
    f = parse_field_spec(spec)
    rng = random.Random(k)
    seed = [f.random_element(rng) for _ in range(k)]
    a, b, c = (make(f, k, seed) for _ in range(3))
    batch_size = getattr(a, "batch_size", 1)
    n = min(a.descriptor.period, 300)
    if make is HornerGenerator:  # the whole period, 13 values
        assert n == a.descriptor.period == 13
    if spec.startswith("gf2w"):  # run to the end of the period
        n = a.descriptor.period
        assert batch_size == 8 and n == 256
    filled = []
    for size in (1, 7, batch_size, 3 * batch_size + 1, n):
        size = min(size, n - len(filled))
        block = a.fill(size)
        assert block.dtype == np.uint64 and len(block) == size
        filled += block.tolist()
    emitted = [b.emit() for _ in range(n)]
    assert all(type(v) is int for v in emitted)
    batched = []
    while len(batched) < n:
        batch = c.emit_batch(min(5, n - len(batched)))
        assert type(batch) is list and all(type(v) is int for v in batch)
        batched += batch
    assert filled == emitted == batched
    assert a.remaining == b.remaining == c.remaining == a.descriptor.period - n
    if n == a.descriptor.period:
        for gen in (a, b, c):
            with pytest.raises(PeriodExhausted):
                gen.emit()
            with pytest.raises(PeriodExhausted):
                gen.fill(1)
            with pytest.raises(PeriodExhausted):
                gen.emit_batch(1)


@pytest.mark.parametrize("spec,k", [("gf2w:64", 32), ("gf2w:16", 128), ("gfp:2013265921", 64)])
def test_fft_batch_fork_shares_plan_data(spec, k):
    f = parse_field_spec(spec)
    rng = random.Random(k)
    parent_seed = [f.random_element(rng) for _ in range(k)]
    parent = FftBatchGenerator(f, k, parent_seed)
    # move the parent's coset cursor; over GF(2^w) this also runs and keeps
    # the parent's top-down pass, which the fork must not inherit
    head = parent.emit_batch(3 * k + 1)
    seed = [f.random_element(rng) for _ in range(k)]
    child = parent.fork(seed)
    fresh = FftBatchGenerator(f, k, seed)
    assert child.emit_batch(4 * k) == fresh.emit_batch(4 * k)
    tail = parent.emit_batch(k)
    assert tail != child.emit_batch(k)
    assert head + tail == FftBatchGenerator(f, k, parent_seed).emit_batch(4 * k + 1)
    if spec.startswith("gfp"):
        assert child._plan is not parent._plan
        assert child._plan._vec_twiddles[0] is parent._plan._vec_twiddles[0]
        assert (parent._plan.j, child._plan.j) == (4, 4)
    else:
        assert child._plan is parent._plan


@pytest.mark.parametrize("spec,k", [("gf2w:16", 4), ("gf2w:24", 8), ("gf2w:64", 256),
                                    ("gf2w:64", 3)])
def test_fft_batch_multi_batch_fill_spans(spec, k, monkeypatch):
    # fills that start and end mid-batch, and fills whose batches cross the
    # lane cap, equal per-batch bottom-up passes and naive multipoint evaluation
    f = parse_field_spec(spec)
    rng = random.Random(k)
    seed = [f.random_element(rng) for _ in range(k)]
    gen = FftBatchGenerator(f, k, seed)
    size = gen.batch_size
    calls = []
    bottom_up = gen._plan.bottom_up
    monkeypatch.setattr(gen._plan, "bottom_up",
                        lambda x, shifts: calls.append(len(shifts)) or bottom_up(x, shifts))
    spans = [1, size - 1, 2 * size + 1, _LANE_CAP + size + 1, size // 2 + 1, 3 * _LANE_CAP]
    got = []
    for n in spans:
        block = gen.fill(n)
        assert block.dtype == np.uint64 and len(block) == n
        got += block.tolist()
    # a block is the batches the rest of a request spans, at most _LANE_CAP
    # values (or one batch) of them, in one bottom-up call
    cap, want_calls, left = max(1, _LANE_CAP // size), [], 0
    for need in spans:
        while need > left:
            need -= left
            want_calls.append(min(-(-need // size), cap))
            left = want_calls[-1] * size
        left -= need
    assert calls == want_calls
    batches = sum(calls)
    coeffs = np.array(seed, dtype=np.uint64)
    top = gen._plan.top_down(coeffs)
    want = [bottom_up(top, [gen._gray_shift(j)])[0].tolist() for j in range(batches)]
    assert got == [v for batch in want for v in batch][:len(got)]
    h = Polynomial(f, tuple(seed))
    for j in (0, batches - 1):
        assert want[j] == naive_multipoint(h, gen._plan.points(gen._gray_shift(j)))


def test_fft_batch_period_exhausted_consumes_nothing():
    f = Gf2w(8)
    seed = list(range(1, 9))
    gen, twin = FftBatchGenerator(f, 8, seed), FftBatchGenerator(f, 8, seed)
    head = gen.fill(250).tolist()
    for take in (lambda: gen.fill(7), lambda: gen.emit_batch(300)):
        with pytest.raises(PeriodExhausted):
            take()
        assert gen.remaining == 6
    assert head + gen.emit_batch(6) == twin.fill(256).tolist()


@pytest.mark.parametrize("k", [256, 4])
def test_fft_batch_write_stream_memory(k):
    # one write_stream of 2^16 values, the plan's tables (1 MiB at k=256)
    # built on the way: the lane cap bounds each block's temporaries
    f = Gf2w(64)
    rng = random.Random(k)
    gen = FftBatchGenerator(f, k, [f.random_element(rng) for _ in range(k)])

    class Sink:
        def write(self, data):
            pass

    tracemalloc.start()
    try:
        assert write_stream(gen, Sink(), 1 << 16) == 1 << 16
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_emit_vs_emit_batch_interleaving(seed_int):
    f = Gfp(17)
    rng = random.Random(seed_int)
    seed = [f.random_element(rng) for _ in range(4)]
    a = FftBatchGenerator(f, 4, seed)
    b = FftBatchGenerator(f, 4, seed)
    va = [a.emit() for _ in range(5)] + a.emit_batch(7) + [a.emit()]
    vb = b.emit_batch(3) + [b.emit() for _ in range(4)] + b.emit_batch(6)
    assert va[:13] == vb[:13]


# -- expander ----------------------------------------------------------------------

def test_expander_identity_graph_is_passthrough():
    f = Gf2w(4)
    ident = BipartiteGraph(1, 16, 1, np.arange(16, dtype=np.uint32).reshape(16, 1))
    rng = random.Random(3)
    seed = [f.random_element(rng) for _ in range(4)]
    inner = HornerGenerator(f, 4, seed)
    gen = build_expander_generator(f, 4, 1, 16, 1, inner_kind="horner",
                                   rng=rng, graph=ident, seed=seed)
    want = HornerGenerator(f, 4, seed).emit_batch(16)
    assert gen.emit_batch(16) == want


def test_expander_first_block_is_matrix_vector_product():
    f = Gf2w(4)
    rng = random.Random(4)
    gen = build_expander_generator(f, 2, 4, 8, 2, inner_kind="horner", rng=rng)
    table = gen.inner.fork(gen.seed).emit_batch(8)
    want = []
    for row in gen.graph.adjacency:
        acc = 0
        for y in row:
            acc ^= table[y]
        want.append(acc)
    assert gen.emit_batch(32) == want


def test_expander_blocks_tile_inner_period():
    # second block reads inner values 8..15 through the same base graph
    f = Gf2w(4)
    rng = random.Random(5)
    gen = build_expander_generator(f, 2, 2, 8, 2, inner_kind="horner", rng=rng)
    inner_all = gen.inner.fork(gen.seed).emit_batch(16)
    stream = gen.emit_batch(gen.descriptor.period)
    for t in range(2):  # two blocks
        table = inner_all[8 * t:8 * (t + 1)]
        for x, row in enumerate(gen.graph.adjacency):
            acc = 0
            for y in row:
                acc ^= table[y]
            assert stream[16 * t + x] == acc


def test_expander_period_and_delta_contract():
    f = Gf2w(4)
    rng = random.Random(6)
    gen = build_expander_generator(f, 2, 4, 8, 2, inner_kind="horner", rng=rng)
    assert gen.descriptor.period == 4 * 16  # c * inner period
    from kgen.expander import rank_failure_bound
    assert gen.descriptor.delta == rank_failure_bound(4, 8, 2, 2).delta


def test_expander_m_must_divide_inner_period(monkeypatch):
    # refused before any graph is drawn
    import kgen.generator

    def no_sampling(*args):
        raise AssertionError("graph sampled before the inner period was checked")

    monkeypatch.setattr(kgen.generator, "sample_graph", no_sampling)
    f = Gf2w(4)
    with pytest.raises(ConfigError, match="m=5 must divide the horner period 16"):
        build_expander_generator(f, 2, 2, 5, 2, inner_kind="horner",
                                 rng=random.Random(0))


def test_expander_inner_independence_requirement():
    f = Gf2w(4)
    ident = BipartiteGraph(1, 16, 1, np.arange(16, dtype=np.uint32).reshape(16, 1))
    weak = HornerGenerator(f, 1, [7])
    from kgen.generator import ExpanderGenerator
    with pytest.raises(ConfigError):
        ExpanderGenerator(f, 4, ident, weak, 0.0)


def test_expander_inner_independence_caps_at_period():
    # d*k = 8 exceeds the horner period |F| = 4, so the inner stream is
    # 4-independent: full independence over its period
    gen = build_expander_generator(Gf2w(2), 2, 2, 4, 4, inner_kind="horner")
    assert gen.inner.descriptor.k == 4


def test_expander_fork_determinism():
    f = Gf2w(4)
    rng = random.Random(7)
    gen = build_expander_generator(f, 2, 2, 8, 2, inner_kind="horner", rng=rng)
    a = gen.fork(gen.seed).emit_batch(20)
    b = gen.fork(gen.seed).emit_batch(20)
    assert a == b


class CountingGfp(Gfp):
    """Counts add/mul calls; test-only."""

    def __init__(self, p):
        super().__init__(p)
        self.counts = {"add": 0, "mul": 0}

    def add(self, a, b):
        self.counts["add"] += 1
        return super().add(a, b)

    def mul(self, a, b):
        self.counts["mul"] += 1
        return super().mul(a, b)


def test_expander_amortized_ops_flat_in_k():
    # field operations per output, counted after construction, stay bounded
    # by a constant as k grows.  p is above 2^32, so the inner refill is the
    # scalar coset DFT, whose field calls are counted; the vector DFT (p <
    # 2^32) makes the same butterflies without calling the field.
    per_output = {}
    for k in (2**6, 2**10):
        ctx = CountingGfp(9223372036853661697)
        gen = build_expander_generator(ctx, k, c=16, m=1 << 10, d=4,
                                       inner_kind="fft-batch",
                                       rng=random.Random(k))
        cycle = 16 * max(1 << 10, gen.inner.batch_size)
        ctx.counts = {"add": 0, "mul": 0}
        gen.emit_batch(cycle)
        per_output[k] = sum(ctx.counts.values()) / cycle
    assert per_output[2**6] > 0.5, per_output  # the refill's butterflies are counted
    assert per_output[2**10] <= 2.0 * per_output[2**6], per_output


# -- cascade ----------------------------------------------------------------------

def test_cascade_refuses_t_below_one():
    for t in (0, -1):
        with pytest.raises(ConfigError, match="t >= 1"):
            build_cascade_generator(Gf2w(4), 2, 2, 2, t, base_kind="horner",
                                    rng=random.Random(8))


def test_cascade_t1_equals_expander():
    f = Gf2w(4)
    casc = build_cascade_generator(f, 2, 2, 2, 1, base_kind="horner",
                                   rng=random.Random(10), m0=16)
    expd = build_expander_generator(f, 2, 2, 16, 2, inner_kind="horner",
                                    graph=casc.graphs[0], seed=casc.seed)
    assert casc.emit_batch(32) == expd.emit_batch(32)


def test_cascade_t2_unrolled_recursion():
    f = Gf2w(4)
    casc = build_cascade_generator(f, 2, 2, 2, 2, base_kind="horner",
                                   rng=random.Random(11), m0=4)
    assert casc.descriptor.period == 2 * 2 * 16  # c^t * base period
    g1, g2 = casc.graphs
    base_vals = casc.inner.fork(casc.seed).emit_batch(16)
    stream = casc.emit_batch(casc.descriptor.period)
    for block in range(4):
        t0 = base_vals[4 * block:4 * (block + 1)]
        t1 = []
        for row in g1.adjacency:
            acc = 0
            for y in row:
                acc ^= t0[y]
            t1.append(acc)
        for x, row in enumerate(g2.adjacency):
            acc = 0
            for y in row:
                acc ^= t1[y]
            assert stream[16 * block + x] == acc


def test_cascade_size_chain_validated():
    f = Gf2w(4)
    g1 = sample_graph(2, 4, 2, random.Random(0))
    g_bad = sample_graph(2, 4, 2, random.Random(1))  # right size 4 != left 8
    from kgen.generator import CascadeGenerator, HornerGenerator as HG
    base = HG(f, 4, [1, 2, 3, 4])
    with pytest.raises(ConfigError):
        CascadeGenerator(f, 2, [g1, g_bad], base, 0.0)


# -- build dispatch / serialization ---------------------------------------------------

def test_build_dispatch():
    f = Gfp(7)
    proto = build(GeneratorSpec("horner", f, 2))
    assert proto.descriptor.seed_len == 2
    assert proto.fork([1, 2]).emit() == 1
    g = build(GeneratorSpec("fft-batch", Gfp(5), 4)).fork([0, 1, 0, 0])
    assert isinstance(g, FftBatchGenerator)
    assert g.emit_batch(4) == [1, 2, 4, 3]  # h(x) = x at the powers of 2 in F_5^*
    with pytest.raises(ConfigError, match="unknown generator kind"):
        build(GeneratorSpec("tabulation", f, 2))
    for missing in ("c", "m", "d"):
        shape = {"c": 2, "m": 7, "d": 2, missing: None}
        with pytest.raises(ConfigError, match=f"expander kind needs --{missing}"):
            build(GeneratorSpec("expander", f, 2, inner="horner", **shape))
    with pytest.raises(ConfigError, match="cascade kind needs --t"):
        build(GeneratorSpec("cascade", f, 2, c=2, d=2, inner="horner"))
    with pytest.raises(ConfigError, match="must divide the horner period 7"):
        build(GeneratorSpec("expander", f, 2, c=2, m=3, d=2, inner="horner"))


def test_seed_hex_roundtrip():
    f = Gf2w(16)
    seed = (1, 0xBEEF, 0)
    text = seed_to_hex(f, seed)
    assert text == "0001beef0000"
    assert seed_from_hex(f, text) == seed
    assert seed_from_hex(f, "0001 beef, 0000") == seed
    with pytest.raises(ConfigError):
        seed_from_hex(f, "123")


def test_write_stream_binary_and_header():
    f = Gf2w(16)
    g = HornerGenerator(f, 2, [1, 2])
    buf = io.BytesIO()
    n = write_stream(g, buf, 4, header=True)
    assert n == 4
    raw = buf.getvalue()
    header, _, body = raw.partition(b"\n")
    assert header.startswith(b"# kind=horner field=gf2w:16")
    assert b"seed=00010002" in header
    vals = [int.from_bytes(body[i:i + 2], "little") for i in range(0, 8, 2)]
    want = HornerGenerator(f, 2, [1, 2]).emit_batch(4)
    assert vals == want
    # the text formats: the same header, then a width-padded hex word or an
    # index,value line per value
    line = header.decode() + "\n"
    for fmt, text in (("hex", "0001\n0003\n0005\n0007\n"),
                      ("csv", "index,value\n0,1\n1,3\n2,5\n3,7\n")):
        buf = io.BytesIO()
        assert write_stream(HornerGenerator(f, 2, [1, 2]), buf, 4, header=True, fmt=fmt) == 4
        assert buf.getvalue().decode() == line + text
    # a count past the period (5 over GF(5)) stops at it
    for fmt, text in (("hex", "".join(f"{v:016x}\n" for v in (1, 3, 0, 2, 4))),
                      ("csv", "index,value\n0,1\n1,3\n2,0\n3,2\n4,4\n")):
        buf = io.BytesIO()
        assert write_stream(HornerGenerator(Gfp(5), 2, [1, 2]), buf, 9, fmt=fmt) == 5
        assert buf.getvalue().decode() == text
    with pytest.raises(ConfigError, match="unknown stream format"):
        write_stream(HornerGenerator(f, 2, [1, 2]), io.BytesIO(), 4, fmt="json")


def test_write_stream_short_on_exhaustion():
    f = Gfp(5)
    g = HornerGenerator(f, 2, [1, 2])
    buf = io.BytesIO()
    assert write_stream(g, buf, 10) == 5
    # the same short count from every kind, and the bytes emit_batch gives
    for make in _SMALL_KINDS.values():
        gen = make()
        period = gen.descriptor.period
        buf = io.BytesIO()
        assert write_stream(make(), buf, period + 7) == period
        assert buf.getvalue() == b"".join(gen.field.to_bytes(v) for v in gen.emit_batch(period))


def _small_expander(field, k=2, c=2, m=8, d=3, inner="horner", seed=0):
    return build_expander_generator(field, k, c, m, d, inner_kind=inner,
                                    rng=random.Random(seed))


# small generators of every kind, each with a period of a few hundred values
_SMALL_KINDS = {
    "horner": lambda: HornerGenerator(Gf2w(8), 3, [5, 0, 7]),
    "fft-batch": lambda: FftBatchGenerator(Gfp(257), 16, list(range(16))),
    "expander": lambda: _small_expander(Gf2w(8), m=16),
    "cascade": lambda: build_cascade_generator(Gfp(257), 2, 2, 2, 2, base_kind="fft-batch",
                                               rng=random.Random(3), m0=16),
}

# gf2w:24 has 3-byte words; 0x7fffffffffef0001 is a prime above 2^62, so a
# sum of d=4 residues overflows 64 bits and is reduced after every addition
_GATHER_FIELDS = ["gf2w:16", "gf2w:24", "gfp:2013265921", "gfp:9223372036853661697"]


@pytest.mark.parametrize("spec", _GATHER_FIELDS)
def test_expander_block_gather_matches_row_sums(spec):
    f = parse_field_spec(spec)
    gen = build_expander_generator(f, 4, 4, 64, 4, inner_kind="fft-batch",
                                   rng=random.Random(21))
    c, m = gen.graph.c, gen.graph.m
    table = gen.inner.fork(gen.seed).emit_batch(2 * m)
    stream = gen.emit_batch(2 * c * m)
    for block in range(2):
        right = table[block * m:(block + 1) * m]
        for x, row in enumerate(gen.graph.adjacency):
            acc = 0
            for y in row:
                acc = f.add(acc, right[y])
            assert stream[block * c * m + x] == acc


@pytest.mark.parametrize("name", ["expander/gfp:257", "cascade/gf2w:8"])
def test_refill_gathers_the_inner_uint64_array(monkeypatch, name):
    # every level's row_sums gets a uint64 array, the first one the inner
    # stream's own fill: an fft-batch inner, and (golden's cascade/gf2w:8)
    # a two-level cascade over a Horner base
    seen = []
    row_sums = BipartiteGraph.row_sums

    def recording(self, field, values):
        seen.append((type(values), getattr(values, "dtype", None)))
        return row_sums(self, field, values)

    monkeypatch.setattr(BipartiteGraph, "row_sums", recording)
    graph_rng = spawn_rng(1, name, "graph")
    if name.startswith("expander"):
        gen = build_expander_generator(parse_field_spec("gfp:257"), 2, 2, 16, 2,
                                       "fft-batch", rng=graph_rng)
        assert isinstance(gen.inner, FftBatchGenerator)
        levels = 1
    else:
        gen = build_cascade_generator(parse_field_spec("gf2w:8"), 2, 2, 2, 2, "horner",
                                      rng=graph_rng, m0=64)
        assert isinstance(gen.inner, HornerGenerator)
        levels = 2
    block = gen.graphs[-1].n_left
    gen.emit_batch(2 * block)
    assert seen == [(np.ndarray, np.uint64)] * (2 * levels)


def test_gfp_row_sums_at_the_top_of_the_range():
    for p in (2013265921, 9223372036853661697):
        f = Gfp(p)
        # rows (0, 1, 2, 3), (3,), (1, 2), (0, 1, 2), (2,), (0, 3), (1, 2, 3),
        # (0,), padded with the pad index 4
        g = BipartiteGraph(2, 4, 4, np.array(
            [[0, 1, 2, 3], [3, 4, 4, 4], [1, 2, 4, 4], [0, 1, 2, 4], [2, 4, 4, 4],
             [0, 3, 4, 4], [1, 2, 3, 4], [0, 4, 4, 4]], np.uint32))
        values = [p - 1, p - 2, p - 3, p - 4]
        want = []
        for row in g.adjacency:
            acc = 0
            for y in row:
                acc = f.add(acc, values[y])
            want.append(acc)
        assert g.row_sums(f, values).tolist() == want


@pytest.mark.parametrize("kind", sorted(_SMALL_KINDS))
def test_write_stream_bytes_equal_emit_batch(kind):
    gen = _SMALL_KINDS[kind]()
    n = min(gen.descriptor.period, 300)
    want = b"".join(gen.field.to_bytes(v) for v in gen.emit_batch(n))
    buf = io.BytesIO()
    twin = _SMALL_KINDS[kind]()
    assert write_stream(twin, buf, 100) + write_stream(twin, buf, n - 100) == n
    assert buf.getvalue() == want


@pytest.mark.parametrize("kind", sorted(_SMALL_KINDS))
def test_negative_count_refused_before_the_cursor_moves(kind):
    # a negative count once rewound a horner stream into replaying values
    gen, twin = _SMALL_KINDS[kind](), _SMALL_KINDS[kind]()
    head = gen.emit_batch(3)
    takes = [gen.emit_batch] + ([gen.fill] if hasattr(gen, "fill") else [])
    for take in takes:
        for count in (-1, -2):
            with pytest.raises(ConfigError, match="count must be >= 0"):
                take(count)
    assert gen.remaining == twin.remaining - 3
    assert head + gen.emit_batch(3) == twin.emit_batch(6)


def test_write_stream_three_byte_words():
    f = Gf2w(24)
    gen = _small_expander(f, m=16, inner="fft-batch")
    want = b"".join(f.to_bytes(v) for v in gen.emit_batch(96))
    buf = io.BytesIO()
    assert write_stream(_small_expander(f, m=16, inner="fft-batch"), buf, 96) == 96
    assert buf.getvalue() == want


def test_fill_matches_emit_and_is_read_only():
    a, b = (_small_expander(Gfp(257), m=16, inner="fft-batch") for _ in range(2))
    block = a.fill(20)
    assert block.dtype == np.uint64 and not block.flags.writeable
    spanning = a.fill(30)  # crosses into the second block
    assert block.tolist() + spanning.tolist() == [b.emit() for _ in range(50)]
    assert a.remaining == b.remaining == a.descriptor.period - 50
    with pytest.raises(PeriodExhausted):
        a.fill(a.remaining + 1)


def test_graph_size_guards_fire_before_allocation():
    from kgen.expander import MAX_GRAPH_ENTRIES

    # the default m0 is the base period: 2^31 - 2^27 rows per level here
    with pytest.raises(GuardExceeded, match="adjacency slots"):
        build_cascade_generator(Gfp(2013265921), 2, 2, 2, 1, base_kind="fft-batch")
    with pytest.raises(GuardExceeded):
        sample_graph(2, MAX_GRAPH_ENTRIES // 4 + 1, 2, random.Random(0))
