"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here, taken verbatim from the contract this
package is built against.  Timing criteria assert ratios and trends only;
absolute nanoseconds are reported but never gate.
"""

import math
import random
import time
from itertools import product

import pytest

from kgen.analysis import exhaustive_independence_check
from kgen.bench import measure_ns_per_value
from kgen.errors import PeriodExhausted
from kgen.expander import (
    BipartiteGraph,
    all_small_row_subsets_independent,
    beta_pair,
    rank_failure_bound,
    sample_graph,
    stack,
)
from kgen.fft import AdditiveFftPlan, CosetDftPlan
from kgen.field import Gf2w, Gfp, clmul_portable, clmul_wide, find_primitive_element
from kgen.generator import FftBatchGenerator, HornerGenerator, build_expander_generator
from kgen.loadbalance import (
    burst_workload,
    overflow_bound,
    peak_loads,
    run_experiment,
    wilson_interval,
)
from kgen.poly import Polynomial, naive_multipoint, random_polynomial

# 61-bit prime with 2-adic valuation 33: 268435458 * 2^32 + 1
NTT_PRIME_61 = 1152921513196781569


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS - {detail}")


# -----------------------------------------------------------------------------
# 1. Exact independence of the polynomial family (horner kind)
# -----------------------------------------------------------------------------

def test_acceptance_01_exact_independence_horner():
    t0 = time.perf_counter()
    fields = [Gfp(3), Gfp(5), Gf2w(2), Gf2w(3)]
    checked = 0
    for field in fields:
        for k in (1, 2, 3):
            r = exhaustive_independence_check(
                lambda seed, f=field, kk=k: HornerGenerator(f, kk, seed),
                field, k, k, field.order,
            )
            assert r.verdict == "exact-pass", (field, k, r.to_line())
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    report(1, f"{checked} (field, k) combinations exact-pass in {elapsed:.2f}s")


# -----------------------------------------------------------------------------
# 2. Expander composition: graphs passing the row-subset check compose to
#    exactly k-independent streams; duplicated rows break it
# -----------------------------------------------------------------------------

def exact_first_block_pair_verdict(graph):
    """Exact k=2 verdict for the composed stream's first block, given the
    right table is d*k-independent (so every window a pair of outputs reads
    is uniform): (r_i . x, r_j . x) is uniform over uniform x iff the 0/1
    rows are nonzero and distinct, the only F-linear dependencies 0/1
    vectors admit over a binary field.  Equivalent to full seed enumeration
    (cross-validated below at an enumerable scale), and the only form that
    scales to m=64 over GF(2^4), where no inner stream can even supply 64
    table entries (period 16) and enumeration would need 16^8 seeds.
    """
    rows = graph.row_bitsets()
    return 0 not in rows and len(set(rows)) == len(rows)


def test_acceptance_02_expander_composition():
    t0 = time.perf_counter()
    f16 = Gf2w(4)

    # (a) 100 sampled graphs at the stated scale (c=4, m=64, d=4) that pass
    # the row-subset check: first-block pair distribution exactly uniform.
    rng = random.Random(202)
    passing = 0
    attempts = 0
    while passing < 100:
        attempts += 1
        g = sample_graph(4, 64, 4, rng)
        if not all_small_row_subsets_independent(g, 2):
            continue
        passing += 1
        assert exact_first_block_pair_verdict(g)

    # (b) a deliberately duplicated-row graph exact-fails
    g = sample_graph(4, 64, 4, rng)
    edges = g.edges.copy()
    edges[17] = edges[3]
    bad = BipartiteGraph(4, 64, 4, edges)
    assert not exact_first_block_pair_verdict(bad)
    assert not all_small_row_subsets_independent(bad, 2)

    # (c) the verdict above agrees with genuine exhaustive seed enumeration
    # at the largest enumerable scale (c=2, m=16, d=2 over GF(2^4); inner
    # horner with min(d*k, period)=4 -> 16^4 = 65536 seeds), both directions.
    enum_rng = random.Random(43)
    validated = 0
    while validated < 2:
        g = sample_graph(2, 16, 2, enum_rng)
        if not all_small_row_subsets_independent(g, 2):
            continue
        gen = build_expander_generator(f16, 2, 2, 16, 2, inner_kind="horner",
                                       rng=random.Random(validated), graph=g)
        r = exhaustive_independence_check(
            lambda s: gen.fork(s), f16, gen.descriptor.seed_len, 2,
            gen.graph.c * gen.graph.m, max_position_subsets=40,
        )
        assert r.verdict == "exact-pass"
        assert exact_first_block_pair_verdict(g)
        validated += 1
    gbad_edges = sample_graph(2, 16, 2, enum_rng).edges.copy()
    gbad_edges[1] = gbad_edges[0]  # the first examined position pair
    gbad = BipartiteGraph(2, 16, 2, gbad_edges)
    genb = build_expander_generator(f16, 2, 2, 16, 2, inner_kind="horner",
                                    rng=random.Random(9), graph=gbad)
    r = exhaustive_independence_check(
        lambda s: genb.fork(s), f16, genb.descriptor.seed_len, 2, 32,
        max_position_subsets=40,
    )
    assert r.verdict == "exact-fail"
    assert not exact_first_block_pair_verdict(gbad)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    report(2, f"100/{attempts} sampled graphs verified at (4,64,4); "
              f"2 enumerated end-to-end + fail direction in {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 3. Stacking preserves subset independence
# -----------------------------------------------------------------------------

def test_acceptance_03_stacking():
    t0 = time.perf_counter()
    rng = random.Random(3)
    checked = 0
    for _ in range(50):
        c = rng.choice([1, 2])
        m = rng.choice([2, 3, 4])
        d = rng.choice([1, 2, 3])
        g = sample_graph(c, m, d, rng)
        st = stack(g, 3)
        for k in (1, 2, 3):
            assert (all_small_row_subsets_independent(st, k)
                    == all_small_row_subsets_independent(g, k))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(3, f"stack(g,3) equivalence on {checked} random tiny graphs, "
              f"k<=3, in {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 4. FFT correctness, exact (zero tolerance)
# -----------------------------------------------------------------------------

def test_acceptance_04a_additive_fft_gf256():
    f = Gf2w(8)
    rng = random.Random(44)
    plans = {s: AdditiveFftPlan(f, s) for s in range(7)}
    for i in range(200):
        s = rng.randrange(0, 7)
        plan = plans[s]
        h = random_polynomial(f, rng.randrange(1, (1 << s) + 1), rng)
        shift = f.random_element(rng)
        assert plan.evaluate(h.coeffs, shift) == naive_multipoint(h, plan.points(shift))
    report("4a", "additive FFT == naive multipoint, GF(2^8), s<=6, "
                 "200 random polynomials, exact")


def test_acceptance_04b_additive_fft_gf2_64_s12():
    f = Gf2w(64)
    plan = AdditiveFftPlan(f, 12)
    rng = random.Random(45)
    for i in range(20):
        h = random_polynomial(f, 4096, rng)
        shift = f.random_element(rng)
        assert plan.evaluate(h.coeffs, shift) == naive_multipoint(h, plan.points(shift))
    report("4b", "additive FFT == naive multipoint, GF(2^64), s=12, "
                 "20 random polynomials, exact")


def test_acceptance_04c_coset_dft_vs_direct():
    rng = random.Random(46)
    for p, k in ((257, 16), (NTT_PRIME_61, 1 << 10)):
        f = Gfp(p)
        omega = find_primitive_element(f)
        plan = CosetDftPlan(f, k, omega)
        coeffs = [f.random_element(rng) for _ in range(k)]
        direct = []
        wk = plan.omega_k
        for r in range(k):
            acc = 0
            wr = f.pow(wk, r)
            x = 1
            for c in coeffs:
                acc = f.add(acc, f.mul(c, x))
                x = f.mul(x, wr)
            direct.append(acc)
        assert plan.dft(coeffs) == direct
    report("4c", f"coset DFT == direct O(k^2) DFT for GF(257) k=16 and "
                 f"GF({NTT_PRIME_61}) k=2^10, exact")


# -----------------------------------------------------------------------------
# 5. Coset cover: emitted evaluation points partition F*
# -----------------------------------------------------------------------------

def test_acceptance_05_coset_cover():
    for p, k in ((13, 4), (257, 16)):
        f = Gfp(p)
        # h(x) = x makes the emitted stream the evaluation points themselves
        gen = FftBatchGenerator(f, k, [0, 1] + [0] * (k - 2))
        stream = gen.emit_batch(p - 1)
        assert sorted(stream) == list(range(1, p))
        with pytest.raises(PeriodExhausted):
            gen.emit()
    report(5, "emitted points over all cosets = F* with no repeats, "
              "p=13 k=4 and p=257 k=16")


# -----------------------------------------------------------------------------
# 6. Failure-probability bound reproduction
# -----------------------------------------------------------------------------

def test_acceptance_06_bound_reproduction():
    t0 = time.perf_counter()
    rows = [
        (2**5, 64, 2**13, 8, -7),
        (2**10, 64, 2**18, 8, -12),
        (2**12, 64, 2**18, 16, -29),
        (2**20, 64, 2**26, 16, -46),
    ]
    got = []
    for k, c, m, d, cap in rows:
        b = rank_failure_bound(c, m, d, k)
        assert b.log10_delta <= cap, (k, b.log10_delta, cap)
        got.append(f"k=2^{k.bit_length() - 1}: {b.log10_delta:.1f}<={cap}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(6, "; ".join(got) + f" ({elapsed * 1000:.0f} ms)")


# -----------------------------------------------------------------------------
# 7. Pairing-bound exactness anchors
# -----------------------------------------------------------------------------

def test_acceptance_07_beta_pair_anchors():
    def exact_all_even(balls, m):
        hits = 0
        for placement in product(range(m), repeat=balls):
            counts = [0] * m
            for x in placement:
                counts[x] += 1
            if all(v % 2 == 0 for v in counts):
                hits += 1
        return hits / m ** balls

    assert math.isclose(10 ** beta_pair(2, 1, 2), 0.5)
    assert math.isclose(exact_all_even(2, 2), 0.5)
    assert math.isclose(10 ** beta_pair(1, 2, 4), 0.25)
    assert math.isclose(exact_all_even(2, 4), 0.25)
    assert beta_pair(1, 3, 4) == float("-inf")
    assert beta_pair(3, 1, 2) == float("-inf")
    report(7, "beta_pair(2,1,2)=1/2 and beta_pair(1,2,4)=1/4 match exhaustive "
              "enumeration; odd i*d -> -inf")


# -----------------------------------------------------------------------------
# 8. Constant-time trend of the expander kind
# -----------------------------------------------------------------------------

def _expander_ns(field, k, c, m, d, reps):
    gen = build_expander_generator(field, k, c, m, d, inner_kind="fft-batch",
                                   rng=random.Random(1000 + k))
    cycle = c * max(m, gen.inner.batch_size)
    return measure_ns_per_value(lambda: gen.fork(gen.seed), cycle, repetitions=reps)


def test_acceptance_08_constant_time_trend():
    f = Gfp(2013265921)  # 15 * 2^27 + 1; all sizes below divide p-1
    # in-cache right table: m = 2^13
    small = _expander_ns(f, 2**8, 4, 2**13, 8, reps=3)
    large = _expander_ns(f, 2**16, 4, 2**13, 8, reps=2)
    ratio = large / small
    assert ratio <= 2.0, f"in-cache ratio {ratio:.2f} exceeds 2x"
    # beyond-cache right table: m = 2^21, reported with the looser 4x gate
    small_big = _expander_ns(f, 2**8, 1, 2**21, 8, reps=1)
    large_big = _expander_ns(f, 2**16, 1, 2**21, 8, reps=1)
    ratio_big = large_big / small_big
    assert ratio_big <= 4.0, f"beyond-cache ratio {ratio_big:.2f} exceeds 4x"
    report(8, f"expander ns/value k=2^8 vs 2^16: in-cache {small:.0f} vs "
              f"{large:.0f} (ratio {ratio:.2f} <= 2); m=2^21 {small_big:.0f} vs "
              f"{large_big:.0f} (ratio {ratio_big:.2f} <= 4)")


# -----------------------------------------------------------------------------
# 9. FFT vs Horner crossover
# -----------------------------------------------------------------------------

def test_acceptance_09_fft_horner_crossover():
    f = Gf2w(64)
    rng = random.Random(9)
    grid = [32, 64, 128, 256]
    horner_ns = {}
    fft_ns = {}
    for k in grid:
        seed = tuple(f.random_element(rng) for _ in range(k))
        horner_ns[k] = measure_ns_per_value(
            lambda: HornerGenerator(f, k, seed), 192, repetitions=3)
        fft_ns[k] = measure_ns_per_value(
            lambda: FftBatchGenerator(f, k, seed), 2 * k, repetitions=3)
    assert fft_ns[64] < horner_ns[64], (fft_ns[64], horner_ns[64])
    crossover = next(k for k in grid if fft_ns[k] < horner_ns[k])
    assert crossover <= 256
    pairs = "; ".join(f"k={k}: fft {fft_ns[k]:.0f} vs horner {horner_ns[k]:.0f}"
                      for k in grid)
    report(9, f"crossover at k<={crossover} (accepted in [32, 256]); {pairs}")


# -----------------------------------------------------------------------------
# 10. Load balancing under the k = m*b regime
# -----------------------------------------------------------------------------

def test_acceptance_10_load_balancing():
    t0 = time.perf_counter()
    f = Gf2w(16)
    m, b, eps = 8, 16, 0.5
    k = m * b  # 128
    tasks = burst_workload(80)  # |L(x)| = 80; 80 * 1.5 < m*b = 128
    runs = 10_000

    def mk(seed_int):
        rng = random.Random(seed_int)
        return FftBatchGenerator(f, k, [f.random_element(rng) for _ in range(k)])

    res = run_experiment(tasks, m, b, eps, mk, runs, random.Random(20260808))
    bound = overflow_bound(m, b, eps, len(tasks))
    assert res.frequency <= bound

    base_rng = random.Random(987654321)
    base_overflows = 0
    for _ in range(runs):
        r = random.Random(base_rng.getrandbits(63))
        asg = [r.randrange(m) for _ in tasks]
        base_overflows += bool(peak_loads(tasks, asg, m, b).overflowed)
    lo, hi = wilson_interval(base_overflows, runs)  # 99% interval
    assert lo <= res.frequency <= hi, (res.frequency, lo, hi)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    report(10, f"overflow freq {res.frequency:.4f} <= bound {bound:.1f}; "
               f"baseline {base_overflows / runs:.4f}, 99% Wilson "
               f"[{lo:.4f}, {hi:.4f}] contains it ({elapsed:.0f}s)")


# -----------------------------------------------------------------------------
# 11. Field arithmetic cross-validation
# -----------------------------------------------------------------------------

def longdiv_mod(z, g):
    gb = g.bit_length()
    while z.bit_length() >= gb:
        z ^= g << (z.bit_length() - gb)
    return z


def test_acceptance_11a_gf16_multiplication_table():
    f = Gf2w(4)
    for a in range(16):
        for b in range(16):
            assert f.mul(a, b) == longdiv_mod(clmul_portable(a, b), f.g)
    report("11a", "GF(2^4) full 256-case multiplication table == "
                  "schoolbook + long-division oracle")


def test_acceptance_11b_clmul_paths_bit_identical():
    rng = random.Random(11)
    for _ in range(100_000):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        assert clmul_wide(a, b) == clmul_portable(a, b)
    report("11b", "GF(2^64) wide-multiplier and portable carryless paths "
                  "bit-identical on 10^5 pairs")


def test_acceptance_11c_gfp_reduction_vs_wide_oracle():
    f = Gfp(2**61 - 1)
    rng = random.Random(12)
    for _ in range(1_000_000):
        a, b = rng.randrange(f.p), rng.randrange(f.p)
        assert f.mul(a, b) == a * b % f.p
    report("11c", "GF(2^61-1) reciprocal reduction == wide-integer remainder "
                  "oracle on 10^6 pairs")
