import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgen.field import (
    FieldError,
    Gf2w,
    Gfp,
    REDUCTION_POLYS,
    clmul_portable,
    clmul_wide,
    factorize,
    field_spec_string,
    find_primitive_element,
    is_prime,
    parse_field_spec,
)


# -- independent oracles ------------------------------------------------------

def schoolbook_clmul(a, b):
    acc = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            acc ^= a << i
        i += 1
    return acc


def longdiv_mod(z, g):
    gb = g.bit_length()
    while z.bit_length() >= gb:
        z ^= g << (z.bit_length() - gb)
    return z


# -- carryless multiplication -------------------------------------------------

def test_clmul_trivia():
    assert clmul_portable(0b11, 0b11) == 0b101
    assert clmul_portable(0b1011, 0b110) == schoolbook_clmul(0b1011, 0b110)
    assert clmul_wide(12345, 1) == 12345
    assert clmul_wide(0, 999) == 0


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
@settings(max_examples=300)
def test_clmul_paths_identical(a, b):
    assert clmul_wide(a, b) == clmul_portable(a, b) == schoolbook_clmul(a, b)


# -- GF(2^w) construction -----------------------------------------------------

def test_builtin_polys_small_w_verified():
    for w in REDUCTION_POLYS:
        if w <= 16:
            Gf2w(w)  # builds the log tables (for w >= 2) from a generator of F^*


def _rabin_irreducible(g, w):
    """Rabin's test: g of degree w is irreducible over F_2 iff x^(2^w) = x
    mod g and gcd(x^(2^(w/q)) - x, g) = 1 for each prime q | w."""
    x = longdiv_mod(2, g)

    def frob(e):
        y = x
        for _ in range(e):
            y = longdiv_mod(schoolbook_clmul(y, y), g)
        return y

    def gcd(a, b):
        while b:
            a, b = b, longdiv_mod(a, b)
        return a

    primes = [q for q in range(2, w + 1) if w % q == 0 and all(q % r for r in range(2, q))]
    return frob(w) == x and all(gcd(g, frob(w // q) ^ x) == 1 for q in primes)


def test_builtin_polys_above_16_irreducible():
    # every entry, w <= 16 included: the table is the only source of
    # reduction polynomials, and Gf2w checks none of them
    for w, exps in REDUCTION_POLYS.items():
        assert exps == tuple(sorted(set(exps))), w
        assert exps[0] == 0 and exps[-1] == w and len(exps) <= 5, w
        g = Gf2w(w).g
        assert g == sum(1 << e for e in exps), w
        assert _rabin_irreducible(g, w), w


def test_rabin_oracle_rejects_reducible():
    assert not _rabin_irreducible(0b10101, 4)  # x^4+x^2+1 = (x^2+x+1)^2
    assert not _rabin_irreducible(0b100111, 5)  # x^5+x^2+x+1 has the root 1
    assert _rabin_irreducible(0b100101, 5)  # x^5+x^2+1


def test_poly_shape_rejected():
    # only the widths REDUCTION_POLYS lists have a field
    for w in (0, 17, 70):
        with pytest.raises(FieldError):
            Gf2w(w)


# -- GF(2^w) arithmetic -------------------------------------------------------

def test_gf2w_add_examples():
    f = Gf2w(4)
    assert f.add(0b1010, 0b0110) == 0b1100
    assert f.add(0b1010, 0) == 0b1010
    assert f.add(0b1010, 0b1010) == 0


def test_gf2w_reduce_examples():
    f = Gf2w(4)
    assert f.reduce(0b10000) == 0b0011
    assert f.reduce(0b0111) == 0b0111  # below the threshold: unchanged
    assert f.reduce(clmul_portable(0b0010, 0b0010)) == 0b0100


@pytest.mark.parametrize("w", [2, 4, 8, 16])
def test_gf2w_mul_exhaustive_vs_oracle(w):
    # every pair up to w = 8; at w = 16 every pair of a sample with 0, 1, mask
    f = Gf2w(w)
    elems = range(f.order)
    if w > 8:
        rng = random.Random(w)
        elems = [0, 1, f.mask] + [rng.randrange(f.order) for _ in range(97)]
    for a, b in itertools.product(elems, repeat=2):
        assert f.mul(a, b) == longdiv_mod(schoolbook_clmul(a, b), f.g), (w, a, b)


def test_gf2w_mul_identities():
    f = Gf2w(8)
    for a in (0, 1, 7, 255):
        assert f.mul(a, 0) == 0
        assert f.mul(a, 1) == a


def test_gf2w64_random_vs_oracle():
    f = Gf2w(64)
    rng = random.Random(9)
    for _ in range(100_000):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        got = f.mul(a, b)
        assert got == longdiv_mod(schoolbook_clmul(a, b), f.g)
        assert got == f.reduce(clmul_portable(a, b))


def test_gf2w_reduce_matches_longdiv_on_products():
    f = Gf2w(16)
    rng = random.Random(10)
    for _ in range(500):
        a, b = rng.getrandbits(16), rng.getrandbits(16)
        z = clmul_portable(a, b)
        assert f.reduce(z) == longdiv_mod(z, f.g)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
       st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_gf2w64_field_axioms(a, b, c):
    f = Gf2w(64)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    if a:
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("w", sorted(REDUCTION_POLYS))
def test_gf2w_inverse_matches_fermat_power(w):
    f = Gf2w(w)
    rng = random.Random(w)
    elems = {1, f.mask} | {f.random_element(rng) or 1 for _ in range(40)}
    for a in elems:
        assert f.inv(a) == f.pow(a, f.order - 2), (w, a)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("w", [w for w in sorted(REDUCTION_POLYS) if w <= 16])
def test_gf2w_table_inverse_matches_euclid(w):
    # every nonzero element up to w = 12, a sample with both ends at w = 16
    f = Gf2w(w)
    if w <= 12:
        elems = range(1, f.order)
    else:
        rng = random.Random(w)
        elems = [1, 2, f.mask] + [rng.randrange(1, f.order) for _ in range(2000)]
    for a in elems:
        assert f.inv(a) == f.inv_euclid(a), (w, a)
    assert (f._exp_vec is None) == (w == 1)


@pytest.mark.parametrize("w", [2, 3, 8, 16])
def test_log_tables_are_generator_powers(w):
    f = Gf2w(w)
    n = f.mult_order
    exp, log = f._exp_vec[:n].tolist(), f._log_vec.tolist()
    assert sorted(exp) == list(range(1, f.order))
    assert exp[1] != 1 and exp[0] == 1
    assert all(exp[i] == f.reduce(clmul_portable(exp[i - 1], exp[1])) for i in range(1, n))
    assert all(exp[log[a]] == a for a in range(1, f.order))
    # sums of two logs below 2n read a second period; a zero operand's log
    # 2n sends every sum it is in to the zeros, which reach index 4n
    assert f._exp_vec[n:2 * n].tolist() == exp and log[0] == 2 * n
    assert len(f._exp_vec) == 4 * n + 1 and not f._exp_vec[2 * n:].any()


def test_gf2w16_holds_one_read_only_table_pair():
    # 2.5 MiB of arrays; list copies for the scalar products made it 7.2 MiB
    tracemalloc.start()
    try:
        f = Gf2w(16)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 3 << 20
    for table in (f._exp_vec, f._log_vec):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


@pytest.mark.parametrize("w", [1, 2, 8, 16, 24, 48, 64])
def test_lane_products_match_scalar_mul(w):
    f = Gf2w(w)
    rng = random.Random(100 + w)
    consts = [0, 1, f.mask] + [f.random_element(rng) for _ in range(13)]
    a = np.array([[f.random_element(rng) for _ in consts] for _ in range(5)] + [[0] * 16],
                 dtype=np.uint64)
    want = [[f.reduce(clmul_portable(int(x), t)) for x, t in zip(row, consts)]
            for row in a.tolist()]
    # the field's lane form: elements (2 <= w <= 16) or nibble tables
    mults = f.lane_multipliers(consts)
    assert f.mul_lanes(mults, a).tolist() == want
    # one multiplier broadcasts over every lane
    assert f.mul_lanes(mults[2:3], a[0]).tolist() == [f.mul(int(x), f.mask) for x in a[0]]
    # the nibble route, which builds the log tables, at every w
    tables = f.nibble_tables(consts)
    assert tables.shape == (16, (w + 3) // 4, 16)
    assert f._mul_nibbles(tables, a).tolist() == want


@pytest.mark.parametrize("w", [2, 8, 16, 24, 64])
def test_lane_multipliers_are_f2_linear(w):
    # AdditiveFftPlan._shift_operands XORs lane forms of the shift bits
    f = Gf2w(w)
    rng = random.Random(400 + w)
    a = np.array([[f.random_element(rng) for _ in range(3)] for _ in range(4)], dtype=np.uint64)
    b = np.array([[f.random_element(rng) for _ in range(3)] for _ in range(4)], dtype=np.uint64)
    la, lb = f.lane_multipliers(a), f.lane_multipliers(b)
    assert la.shape[:2] == a.shape
    assert np.array_equal(la ^ lb, f.lane_multipliers(a ^ b))
    assert np.array_equal(f.lane_multipliers(np.zeros_like(a)), la ^ la)


def test_gf2w_pow():
    f = Gf2w(8)
    rng = random.Random(2)
    for _ in range(50):
        a = rng.randrange(256)
        assert f.pow(a, 0) == 1
        assert f.pow(a, 1) == a
        acc = 1
        for e in range(1, 6):
            acc = f.mul(acc, a)
            assert f.pow(a, e) == acc
    # multiplicative group order
    for a in range(1, 256):
        assert f.pow(a, 255) == 1


def test_mul_vec_matches_scalar():
    rng = random.Random(3)
    for w in (8, 16, 32, 64):
        f = Gf2w(w)
        a = np.array([rng.randrange(f.order) for _ in range(256)], dtype=np.uint64)
        b = np.array([rng.randrange(f.order) for _ in range(256)], dtype=np.uint64)
        r = f.mul_vec(a, b)
        for i in range(256):
            assert int(r[i]) == f.mul(int(a[i]), int(b[i]))


def test_gf2w_serialization_roundtrip():
    for w in (4, 8, 16, 64):
        f = Gf2w(w)
        rng = random.Random(w)
        for _ in range(20):
            a = f.random_element(rng)
            data = f.to_bytes(a)
            assert len(data) == f.elem_bytes
            assert int.from_bytes(data, "little") == a


def test_gf2w_validate():
    f = Gf2w(4)
    f.validate(15)
    with pytest.raises(FieldError):
        f.validate(16)
    with pytest.raises(FieldError):
        f.validate(-1)


# -- GF(p) ---------------------------------------------------------------------

def test_gfp_construction():
    with pytest.raises(FieldError):
        Gfp(9)
    with pytest.raises(FieldError):
        Gfp(1 << 63)
    Gfp(2)
    Gfp(2**61 - 1)


def test_gfp_mul_examples():
    f = Gfp(7)
    assert f.mul(3, 5) == 1
    assert f.mul(6, 1) == 6
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4


def test_gfp_random_vs_wide_oracle():
    f = Gfp(2**61 - 1)
    rng = random.Random(4)
    for _ in range(20000):
        a, b = rng.randrange(f.p), rng.randrange(f.p)
        assert f.mul(a, b) == a * b % f.p


@pytest.mark.parametrize("p", [3, 5, 257, 65537, 2013265921, 2**61 - 1])
def test_gfp_axioms(p):
    f = Gfp(p)
    rng = random.Random(p)
    for _ in range(100):
        a, b, c = (rng.randrange(p) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.sub(0, a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_gfp_pow_fermat():
    f = Gfp(5)
    assert f.pow(2, 4) == 1
    assert f.pow(2, 0) == 1
    assert f.pow(3, 1) == 3


# -- primitive elements ---------------------------------------------------------

def exhaustive_order(f, a):
    x, n = a, 1
    while x != 1:
        x = f.mul(x, a)
        n += 1
    return n


def test_find_primitive_element_small():
    f5 = Gfp(5)
    w = find_primitive_element(f5)
    assert exhaustive_order(f5, w) == 4
    assert w in (2, 3)
    f7 = Gfp(7)
    w = find_primitive_element(f7)
    assert exhaustive_order(f7, w) == 6
    assert w in (3, 5)
    assert find_primitive_element(Gfp(3)) == 2


def test_find_primitive_element_large():
    p = 2013265921
    f = Gfp(p)
    w = find_primitive_element(f)
    for q in factorize(p - 1):
        assert f.pow(w, (p - 1) // q) != 1


# -- helpers ---------------------------------------------------------------------

def test_is_prime_and_factorize():
    assert is_prime(2) and is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    n = 2**61 - 2
    f = factorize(n)
    acc = 1
    for q, e in f.items():
        assert is_prime(q)
        acc *= q**e
    assert acc == n


def test_field_spec_roundtrip():
    for spec in ("gf2w:16", "gfp:257"):
        assert field_spec_string(parse_field_spec(spec)) == spec
    with pytest.raises(FieldError):
        parse_field_spec("gf3w:2")
    with pytest.raises(FieldError):
        parse_field_spec("gf2w")
