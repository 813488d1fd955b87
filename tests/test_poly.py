import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen.field import FieldError, Gf2w, Gfp
from kgen.poly import Polynomial, horner_eval, naive_multipoint, random_polynomial


def test_horner_examples():
    f7 = Gfp(7)
    h = Polynomial(f7, (1, 2, 3))
    assert horner_eval(h, 2) == 3  # 1 + 4 + 12 = 17 = 3 mod 7
    const = Polynomial(f7, (5,))
    for x in range(7):
        assert horner_eval(const, x) == 5
    ident = Polynomial(f7, (0, 1))
    for x in range(7):
        assert horner_eval(ident, x) == x


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_horner_vs_power_sum_oracle(x):
    f = Gf2w(64)
    rng = random.Random(x & 0xFFFF)
    h = random_polynomial(f, 6, rng)
    want = 0
    for i, a in enumerate(h.coeffs):
        want = f.add(want, f.mul(a, f.pow(x, i)))
    assert horner_eval(h, x) == want


def test_naive_multipoint_examples():
    f5 = Gfp(5)
    ident = Polynomial(f5, (0, 1, 0, 0))
    assert naive_multipoint(ident, [1, 2, 4, 3]) == [1, 2, 4, 3]
    const = Polynomial(f5, (2,))
    assert naive_multipoint(const, [0, 3, 4]) == [2, 2, 2]
    assert naive_multipoint(const, []) == []


def test_naive_multipoint_lane_path_matches_scalar():
    rng = random.Random(17)
    for f in (Gfp(4294967291), Gfp(2013265921), Gf2w(24), Gf2w(64)):
        h = random_polynomial(f, 9, rng)
        # the field's extremes included; 600 points span two lane blocks
        pts = [0, 1, f.order - 1] + [f.random_element(rng) for _ in range(597)]
        fast = naive_multipoint(h, pts)  # lane-vectorized path (>= 64 points)
        slow = [horner_eval(h, x) for x in pts]
        assert fast == slow, f


def test_random_polynomial_shapes():
    f = Gfp(3)
    rng = random.Random(0)
    h = random_polynomial(f, 1, rng)
    assert len(h) == 1
    with pytest.raises(FieldError):
        random_polynomial(f, 4, rng)  # k > |F|
    with pytest.raises(FieldError):
        random_polynomial(f, 0, rng)
    # determinism under a fixed entropy source
    a = random_polynomial(f, 3, random.Random(7))
    b = random_polynomial(f, 3, random.Random(7))
    assert a == b


def test_random_polynomial_coefficient_uniformity():
    # GF(3), k=2: all 9 coefficient pairs occur with frequency 1/9 +- 3 sigma
    f = Gfp(3)
    rng = random.Random(123)
    n = 100_000
    counts = {}
    for _ in range(n):
        h = random_polynomial(f, 2, rng)
        counts[h.coeffs] = counts.get(h.coeffs, 0) + 1
    expected = n / 9
    sigma = (n * (1 / 9) * (8 / 9)) ** 0.5
    for pair in product(range(3), repeat=2):
        assert abs(counts.get(pair, 0) - expected) <= 3 * sigma


@pytest.mark.parametrize("field", [Gfp(2), Gfp(3), Gfp(5), Gfp(7),
                                   Gf2w(1), Gf2w(2), Gf2w(3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_independence_by_full_family_enumeration(field, k):
    """Every output tuple at k fixed distinct points occurs exactly once
    across all |F|^k polynomials; a family of k > |F| has no k distinct
    points and is refused."""
    if k > field.order:
        with pytest.raises(FieldError, match="exceeds field size"):
            random_polynomial(field, k, random.Random(k))
        return
    points = range(k)
    seen = {}
    for coeffs in product(range(field.order), repeat=k):
        h = Polynomial(field, coeffs)
        key = tuple(horner_eval(h, x) for x in points)
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == field.order ** k
    assert set(seen.values()) == {1}


def test_polynomial_validation():
    f = Gfp(5)
    with pytest.raises(FieldError):
        Polynomial(f, ())
    with pytest.raises(FieldError):
        Polynomial(f, (5,))  # not canonical
    with pytest.raises(FieldError):
        horner_eval(Polynomial(f, (1,)), 7)
