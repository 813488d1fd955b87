import random

import numpy as np
import pytest

from kgen import fft
from kgen.errors import GuardExceeded, PeriodExhausted
from kgen.field import FieldError, Gf2w, Gfp, find_primitive_element
from kgen.fft import AdditiveFftPlan, CosetDftPlan
from kgen.poly import Polynomial, horner_eval, naive_multipoint, random_polynomial


# -- additive FFT ---------------------------------------------------------------

def test_additive_constant_polynomial():
    f = Gf2w(8)
    plan = AdditiveFftPlan(f, 4)
    c = 0xAB & f.mask
    assert plan.evaluate([c]) == [c] * 16


def test_additive_identity_polynomial_yields_points():
    f = Gf2w(8)
    plan = AdditiveFftPlan(f, 4)
    for shift in (0, 0x30, 0xFF):
        assert plan.evaluate([0, 1], shift) == plan.points(shift)
    # monomial basis: subspace enumeration is plain word order
    assert plan.points(0) == list(range(16))


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 5, 6])
def test_additive_fft_vs_naive_gf256(s):
    f = Gf2w(8)
    plan = AdditiveFftPlan(f, s)
    rng = random.Random(100 + s)
    for _ in range(8):
        k = rng.randrange(1, (1 << s) + 1)
        h = random_polynomial(f, k, rng)
        shift = f.random_element(rng)
        assert plan.evaluate(h.coeffs, shift) == naive_multipoint(h, plan.points(shift))


def test_additive_fft_vs_naive_gf2_64():
    f = Gf2w(64)
    plan = AdditiveFftPlan(f, 6)
    rng = random.Random(11)
    h = random_polynomial(f, 64, rng)
    shift = f.random_element(rng)
    assert plan.evaluate(h.coeffs, shift) == naive_multipoint(h, plan.points(shift))


@pytest.mark.parametrize("w", [1, 2, 8, 16, 24, 32, 48, 64])
def test_additive_fft_vec_matches_scalar_and_naive(w):
    f = Gf2w(w)
    rng = random.Random(200 + w)
    for s in range(min(w, 8) + 1):
        plan = AdditiveFftPlan(f, s)
        top = f.mask ^ ((1 << s) - 1)  # the last coset of the subspace
        for shift in sorted({0, 1, 1 << s if s < w else 0, top}):
            h = random_polynomial(f, rng.randrange(1, (1 << s) + 1), rng)
            got = plan.bottom_up(plan.top_down(np.array(h.coeffs, dtype=np.uint64)), [shift])[0]
            assert got.dtype == np.uint64 and got.shape == (1 << s,)
            want = plan.evaluate(h.coeffs, shift)
            assert got.tolist() == want, (w, s, shift)
            assert want == naive_multipoint(h, plan.points(shift)), (w, s, shift)


@pytest.mark.parametrize("w", [8, 16, 64])
def test_additive_fft_top_down_both_paths_match_scalar(w, monkeypatch):
    # every s from 0 to 13 (to w), on both sides of the crossover: each
    # top_down path against the scalar recursion, and below the crossover
    # the fused Taylor maps against the slice steps
    f = Gf2w(w)
    rng = random.Random(400 + w)
    for s in range(min(w, 13) + 1):
        plan = AdditiveFftPlan(f, s)
        h = random_polynomial(f, 1 << s, rng)
        coeffs = np.array(h.coeffs, dtype=np.uint64)
        shift = f.random_element(rng)
        top = plan.top_down(coeffs)
        assert plan.bottom_up(top, [shift])[0].tolist() == plan.evaluate(h.coeffs, shift), (w, s)
        if plan.size <= fft._FUSED_MAX_SIZE:
            with monkeypatch.context() as m:
                m.setattr(fft, "_FUSED_MAX_SIZE", 0)  # the slice steps
                assert plan.top_down(coeffs).tolist() == top.tolist(), (w, s)


def _gray_shifts(w, s):
    """Gray-coded coset representatives: runs from the first coset, across
    a carry and up to the last coset, or every coset when there are few."""
    cosets = 1 << (w - s)
    js = range(cosets) if cosets <= 12 else [0, 1, 2, 3, 7, 8, 9] + list(range(cosets - 3, cosets))
    return [(j ^ (j >> 1)) << s for j in js]


@pytest.mark.parametrize("w", [1, 2, 8, 16, 24, 32, 48, 64])
def test_additive_fft_bottom_up_many_shifts(w):
    # one top_down pass, then the bottom-up pass for many shifts in one
    # call, a repeated shift and zero included
    f = Gf2w(w)
    rng = random.Random(300 + w)
    repeat = 0x11 & f.mask
    for s in range(min(w, 8) + 1):
        plan = AdditiveFftPlan(f, s)
        h = random_polynomial(f, rng.randrange(1, (1 << s) + 1), rng)
        coeffs = np.array(h.coeffs, dtype=np.uint64)
        gray = _gray_shifts(w, s)
        shifts = gray + [repeat, f.random_element(rng), f.mask, 0, repeat]
        top = plan.top_down(coeffs)
        got = plan.bottom_up(top, shifts)
        assert got.dtype == np.uint64 and got.shape == (len(shifts), 1 << s)
        for row, shift in zip(got.tolist(), shifts):
            assert row == plan.bottom_up(top, [shift])[0].tolist(), (w, s, shift)
        for i in (0, len(gray) - 1):
            assert got[i].tolist() == naive_multipoint(h, plan.points(shifts[i])), (w, s)


def test_lane_table_guard_fires_before_any_level(monkeypatch):
    # a plan's lane tables take about 2^(s+1) multipliers in lane form: at
    # w=64, s=7 that is 512 KiB, and a plan above the cap is refused
    # before any level is built
    f = Gf2w(64)
    assert f.lane_multiplier_bytes == 16 * 16 * 8 and Gf2w(16).lane_multiplier_bytes == 8
    monkeypatch.setattr(fft, "MAX_LANE_TABLE_BYTES", 1 << 19)
    with monkeypatch.context() as m:
        m.setattr(f, "inv", lambda a: pytest.fail("a level was built"))
        with pytest.raises(GuardExceeded, match="about 1 MiB of lane tables; the cap is 0.5 MiB"):
            AdditiveFftPlan(f, 8)
    plan = AdditiveFftPlan(f, 7)  # exactly at the cap
    assert plan._lanes[1][0].base.nbytes <= 1 << 19


def test_additive_fft_vec_tables_and_rejections():
    f = Gf2w(64)
    plan = AdditiveFftPlan(f, 8)
    # every twist and combo table is a view of one array of at most 2 MiB
    twists, combos = plan._lanes
    base = combos[0].base
    assert all(t.base is base for t in combos + twists if t is not None)
    assert base.nbytes <= 2 << 20
    with pytest.raises(FieldError):
        plan.top_down(np.zeros(257, dtype=np.uint64))
    # bottom_up rejects a shift outside the field before it adds per-bit rows
    top = plan.top_down(np.zeros(4, dtype=np.uint64))
    for shifts in ([1 << 64], [0, 1 << 64], [-1, 0], [1 << 70]):
        with pytest.raises(FieldError):
            plan.bottom_up(top, shifts)
    assert plan._units.shape[0] == 1


def test_additive_fft_rejects_oversized_polynomial():
    f = Gf2w(8)
    plan = AdditiveFftPlan(f, 2)
    with pytest.raises(FieldError):
        plan.evaluate([1, 2, 3, 4, 5])


# (mul, add) that one `evaluate` of 2^s points over GF(2^16) counts, s = 1..8:
# about s 2^s / 2 multiplications and s^2 2^s / 2 additions
_OP_COUNTS = {1: (1, 3), 2: (6, 14), 3: (22, 48), 4: (66, 144), 5: (178, 400),
              6: (450, 1056), 7: (1090, 2688), 8: (2562, 6656)}


def test_additive_fft_operation_counts():
    f = Gf2w(16)
    rng = random.Random(13)
    for s, (muls, adds) in _OP_COUNTS.items():
        plan = AdditiveFftPlan(f, s)
        plan.count_ops = True
        h = random_polynomial(f, 1 << s, rng)
        plan.evaluate(h.coeffs, f.random_element(rng))
        assert plan.op_counts == {"mul": muls, "add": adds}, s


# -- coset DFT -------------------------------------------------------------------

def test_coset_dft_impulse():
    f = Gfp(257)
    omega = find_primitive_element(f)
    plan = CosetDftPlan(f, 16, omega)
    c = 123
    assert plan.dft([c] + [0] * 15) == [c] * 16


def test_coset_dft_gf5_table():
    plan = CosetDftPlan(Gfp(5), 4, 2)
    assert plan.omega_k == 2
    assert plan.dft([0, 1, 0, 0]) == [1, 2, 4, 3]  # powers 2^0..2^3 mod 5


def test_twist_examples():
    plan = CosetDftPlan(Gfp(5), 4, 2)
    h = [1, 4, 2, 3]
    assert plan.twist_coefficients(h) == h  # j=0: identity
    impulse = [3, 0, 0, 0]
    assert plan.twist_coefficients(impulse) == impulse
    # powers of omega=2 appear once j=1
    plan13 = CosetDftPlan(Gfp(13), 4, 2)
    plan13.advance_coset()
    assert plan13.twist_coefficients([1, 1, 1, 1]) == [1, 2, 4, 8]


def test_advance_coset_twists_and_exhaustion():
    plan = CosetDftPlan(Gfp(13), 4, 2)
    twists = [plan.twist_base]
    plan.advance_coset()
    twists.append(plan.twist_base)
    plan.advance_coset()
    twists.append(plan.twist_base)
    assert twists == [1, 2, 4]
    with pytest.raises(PeriodExhausted):
        plan.advance_coset()
    # p=5, k=4: single coset
    plan5 = CosetDftPlan(Gfp(5), 4, 2)
    with pytest.raises(PeriodExhausted):
        plan5.advance_coset()


@pytest.mark.parametrize("p,k", [(13, 4), (257, 16)])
def test_coset_cover_exact(p, k):
    f = Gfp(p)
    omega = find_primitive_element(f)
    plan = CosetDftPlan(f, k, omega)
    seen = []
    while True:
        seen.extend(plan.coset_points())
        try:
            plan.advance_coset()
        except PeriodExhausted:
            break
    assert sorted(seen) == list(range(1, p))  # exact cover of F*, no repeats


def test_coset_dft_vs_direct_summation():
    f = Gfp(257)
    omega = find_primitive_element(f)
    plan = CosetDftPlan(f, 16, omega)
    rng = random.Random(14)
    coeffs = [f.random_element(rng) for _ in range(16)]
    direct = []
    for r in range(16):
        acc = 0
        for i, c in enumerate(coeffs):
            acc = f.add(acc, f.mul(c, f.pow(plan.omega_k, r * i)))
        direct.append(acc)
    assert plan.dft(coeffs) == direct


def test_coset_evaluation_vs_horner_all_cosets():
    f = Gfp(257)
    omega = find_primitive_element(f)
    plan = CosetDftPlan(f, 16, omega)
    rng = random.Random(15)
    h = random_polynomial(f, 16, rng)
    while True:
        got = plan.evaluate_coset(h.coeffs)
        want = [horner_eval(h, x) for x in plan.coset_points()]
        assert got == want
        try:
            plan.advance_coset()
        except PeriodExhausted:
            break


def test_coset_dft_rejections():
    f = Gfp(257)
    omega = find_primitive_element(f)
    with pytest.raises(FieldError):
        CosetDftPlan(f, 12, omega)  # not a power of two
    with pytest.raises(FieldError):
        CosetDftPlan(f, 512, omega)  # does not divide p-1
    with pytest.raises(FieldError):
        CosetDftPlan(f, 16, 0)
    # omega_k of wrong order: use a square as "omega" so omega_k^(k/2) == 1
    sq = f.mul(omega, omega)
    with pytest.raises(FieldError):
        CosetDftPlan(f, 256, sq)


# -- vector coset DFT against the scalar plan and naive evaluation --

# 4293918721 = 4095 * 2^20 + 1, a prime just below 2^32; above 2^32,
# 0x7fffffffffef0001 takes the scalar transform
@pytest.mark.parametrize("p", [257, 2013265921, 4293918721, 9223372036853661697])
def test_coset_dft_vec_matches_scalar_and_naive(p):
    f = Gfp(p)
    omega = find_primitive_element(f)
    rng = random.Random(p)
    k = 1
    while k <= 1024 and (p - 1) % k == 0:
        h = random_polynomial(f, k, rng)
        coeffs = np.array(h.coeffs, dtype=np.uint64)
        plan = CosetDftPlan(f, k, omega)
        last = plan.num_cosets - 1
        for j in sorted({0, 1, last}):
            # jump the coset cursor straight to coset j
            plan.j, plan.twist_base = j, f.pow(omega, j)
            got = plan.evaluate_coset_vec(coeffs).tolist()
            assert got == plan.evaluate_coset(h.coeffs), (p, k, j)
            points = plan.coset_points()
            sample = range(k) if k <= 64 else sorted(rng.sample(range(k), 32))
            assert [got[r] for r in sample] == naive_multipoint(h, [points[r] for r in sample])
        k *= 2
    assert k > 256


def test_coset_plan_fork_shares_tables_not_cursor():
    f = Gfp(2013265921)
    plan = CosetDftPlan(f, 64, find_primitive_element(f))
    plan.dft([0] * 64)  # builds the scalar tables, which forks then share
    plan.advance_coset()
    twin = plan.fork()
    assert (twin.j, twin.twist_base) == (0, 1) and (plan.j, plan.twist_base) != (0, 1)
    assert twin._vec_twiddles[0] is plan._vec_twiddles[0]
    assert twin._vec_twiddles[1] is plan._vec_twiddles[1]
    assert twin._twiddles is plan._twiddles and twin._rev is plan._rev
    twin.advance_coset()
    assert (plan.j, twin.j) == (1, 1)
    coeffs = np.arange(64, dtype=np.uint64)
    assert twin.evaluate_coset_vec(coeffs).tolist() == plan.evaluate_coset_vec(coeffs).tolist()


@pytest.mark.parametrize("p", [257, 2013265921, 4293918721])
def test_coset_plan_builds_vector_twiddles_only(p):
    # the doubled vector twiddles equal the scalar recurrence's, and the
    # scalar dft's tables wait for its first call
    f = Gfp(p)
    omega = find_primitive_element(f)
    for k in (1, 2, 4, 64, 256):
        plan = CosetDftPlan(f, k, omega)
        assert "_twiddles" not in vars(plan) and "_rev" not in vars(plan)
        tw, tw_q = plan._vec_twiddles
        assert tw.tolist() == plan._twiddles
        assert tw_q.tolist() == [(t << 32) // p for t in plan._twiddles]
        assert len(plan._rev) == k


def test_coset_dft_vec_rejections():
    f = Gfp(257)
    plan = CosetDftPlan(f, 16, find_primitive_element(f))
    with pytest.raises(FieldError):
        plan.evaluate_coset_vec(np.zeros(8, dtype=np.uint64))
