"""Word-level finite field arithmetic: GF(2^w) for w <= 64 and GF(p) for p < 2^63.

Elements are plain Python ints in canonical form (a bit-packed polynomial over
F_2, or a residue in [0, p)).  A context object carries the field structure
and is passed explicitly to every operation; contexts are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import FieldError


# --------------------------------------------------------------------------
# Carryless multiplication (polynomial multiplication over F_2)
# --------------------------------------------------------------------------

def clmul_portable(a: int, b: int) -> int:
    """Schoolbook shift-and-XOR product of a and b as polynomials in F_2[X]."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


_TO_BYTES01 = bytes.maketrans(b"01", bytes([0, 1]))
_FROM_BYTES01 = bytes.maketrans(bytes([0, 1]), b"01")


def clmul_wide(a: int, b: int) -> int:
    """Carryless product via the platform's wide integer multiplier.

    Bits are spread one-per-byte so that an ordinary integer product computes
    all coefficient column sums at once; for operands of up to 64 bits each
    column sum is < 256, so no carry crosses byte boundaries and the parity
    of every product byte is the corresponding output bit.  Bit-identical to
    clmul_portable.
    """
    if a == 0 or b == 0:
        return 0
    sa = int.from_bytes(format(a, "b").encode().translate(_TO_BYTES01), "big")
    sb = int.from_bytes(format(b, "b").encode().translate(_TO_BYTES01), "big")
    p = sa * sb
    nb = (p.bit_length() + 7) // 8
    p &= int.from_bytes(b"\x01" * (nb + 1), "big")
    return int(p.to_bytes(nb + 1, "big").translate(_FROM_BYTES01), 2)


# --------------------------------------------------------------------------
# Small number-theory helpers
# --------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division plus Pollard rho."""
    factors: dict[int, int] = {}

    def add(p):
        factors[p] = factors.get(p, 0) + 1

    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            add(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


# --------------------------------------------------------------------------
# GF(2^w)
# --------------------------------------------------------------------------

# Lowest-weight irreducible g = x^w + ... + 1, as ascending exponent tuples:
# the only reduction polynomials Gf2w uses.  Nothing checks them at
# construction; the tests check every entry with Rabin's irreducibility test.
REDUCTION_POLYS: dict[int, tuple[int, ...]] = {
    1: (0, 1),
    2: (0, 1, 2),
    3: (0, 1, 3),
    4: (0, 1, 4),
    5: (0, 2, 5),
    6: (0, 1, 6),
    7: (0, 1, 7),
    8: (0, 1, 3, 4, 8),
    9: (0, 1, 9),
    10: (0, 3, 10),
    11: (0, 2, 11),
    12: (0, 3, 12),
    13: (0, 1, 3, 4, 13),
    14: (0, 5, 14),
    15: (0, 1, 15),
    16: (0, 1, 3, 5, 16),
    24: (0, 1, 3, 4, 24),
    32: (0, 2, 3, 7, 32),
    48: (0, 2, 3, 5, 48),
    64: (0, 1, 3, 4, 64),
}

_LOG_TABLE_MAX_W = 16


class Gf2w:
    """Context for GF(2^w) with the sparse (weight <= 5) reduction polynomial
    REDUCTION_POLYS[w], for the widths that table lists.

    Multiplication is carryless product followed by a sparse-polynomial
    Barrett-style reduction; for w <= 16 a discrete-log table is additionally
    built so that products cost three lookups and inverses two.  Both routes
    are bit-identical.
    Lanes of uint64 arrays multiply by `mul_lanes` with multipliers that
    `lane_multipliers` puts in the field's lane form; the field alone picks
    that form (log tables or nibble tables), and callers only pass it on.
    """

    char = 2

    def __init__(self, w: int):
        if w not in REDUCTION_POLYS:
            raise FieldError(
                f"no reduction polynomial for w={w}; widths are {sorted(REDUCTION_POLYS)}"
            )
        poly_exps = REDUCTION_POLYS[w]
        self.w = w
        self.poly_exps = poly_exps
        self.g = sum(1 << e for e in poly_exps)
        self.mask = (1 << w) - 1
        self.order = 1 << w
        self.mult_order = self.order - 1
        self.elem_bytes = (w + 7) // 8
        # tail of g (everything below x^w), used by the reduction fold
        self._tail_exps = poly_exps[:-1]
        self._exp_table: list[int] | None = None
        self._log_table: list[int] | None = None
        self._exp_vec: np.ndarray | None = None
        self._log_vec: np.ndarray | None = None
        if w <= _LOG_TABLE_MAX_W and w > 1:
            self._build_log_tables()

    def __repr__(self):
        return f"Gf2w(w={self.w}, g=0x{self.g:x})"

    def __eq__(self, other):
        return isinstance(other, Gf2w) and other.w == self.w and other.g == self.g

    def __hash__(self):
        return hash((Gf2w, self.w, self.g))

    # -- construction helpers ------------------------------------------------

    def _build_log_tables(self):
        """exp/log tables of a generator of F^*, built as arrays: the powers
        gen^n..gen^(2n-1) are gen^0..gen^(n-1) times the constant gen^n.
        Until the tables are set, `mul` and `pow` take the clmul route."""
        order = self.mult_order
        factors = factorize(order)
        for cand in range(2, self.order):
            if all(self.pow(cand, order // q) != 1 for q in factors):
                gen = cand
                break
        else:  # pragma: no cover - a generator always exists
            raise FieldError("no multiplicative generator found")
        exp = np.empty(order, dtype=np.uint64)
        exp[0] = 1
        n, step = 1, gen
        while n < order:
            take = min(n, order - n)
            exp[n:n + take] = self._mul_nibbles(self.nibble_tables([step]), exp[:take])
            n, step = 2 * n, self.mul(step, step)
        # Lane products index exp_vec by log_a + log_b; a zero operand has
        # log 2*order, which lands every sum that involves it in the zeros.
        exp_vec = np.zeros(4 * order + 1, dtype=np.uint64)
        exp_vec[:order] = exp
        exp_vec[order:2 * order] = exp
        log_vec = np.empty(self.order, dtype=np.int64)
        log_vec[exp] = np.arange(order)
        log_vec[0] = 2 * order
        self._exp_vec = exp_vec
        self._log_vec = log_vec
        self._exp_table = exp.tolist()
        self._log_table = log_vec.tolist()

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def reduce(self, z: int) -> int:
        """Reduce a carryless product z (< 2^(2w-1)) modulo g.

        Sparse-polynomial Barrett fold: the quotient is the top w bits of
        zh*g, and the remainder follows from one more sparse product.  Each
        product with g unrolls into at most five shift-XORs.  Bit-identical
        to polynomial long division for products of canonical elements.
        """
        w = self.w
        zh = z >> w
        if zh == 0:
            return z
        t = 0
        for e in self.poly_exps:
            t ^= zh << e
        q = t >> w
        r = z
        for e in self._tail_exps:
            r ^= q << e
        return r & self.mask

    def mul(self, a: int, b: int) -> int:
        exp = self._exp_table
        if exp is not None:
            if a == 0 or b == 0:
                return 0
            return exp[(self._log_table[a] + self._log_table[b]) % self.mult_order]
        return self.reduce(clmul_wide(a, b))

    def horner(self, coeffs, xs) -> list[int]:
        """sum_i coeffs[i] x^i at each x in xs (constant term first), by
        Horner's rule through `mul`; operands canonical."""
        mul = self.mul
        top, rest = coeffs[-1], coeffs[-2::-1]
        out = []
        for x in xs:
            acc = top
            for c in rest:
                acc = mul(acc, x) ^ c
            out.append(acc)
        return out

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise FieldError("negative exponent")
        r = 1
        a = a & self.mask
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """a^-1: gen^(-log a) where the field has log tables, else
        `inv_euclid`."""
        exp = self._exp_table
        if exp is None or a == 0:
            return self.inv_euclid(a)
        return exp[-self._log_table[a] % self.mult_order]

    def inv_euclid(self, a: int) -> int:
        """Extended Euclid over F_2[x]: u = g1*a and v = g2*a (mod g) hold
        throughout, and the loop ends at u = 1 because gcd(a, g) = 1."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        u, v, g1, g2 = a, self.g, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2 = v, u, g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    # -- vectorized lanes (numpy uint64) ----------------------------------------

    def lane_multipliers(self, consts) -> np.ndarray:
        """The multipliers `consts` in the field's one lane form, the operand
        `mul_lanes` takes: a uint64 array of the elements themselves where
        the field has log tables (2 <= w <= 16), else their nibble_tables,
        shape consts' shape + (ceil(w/4), 16).  Either form is F_2-linear
        in the multiplier: the XOR of two forms is the form of the XOR."""
        t = np.asarray(consts, dtype=np.uint64)
        if self._log_vec is not None:
            return t
        tail = ((self.w + 3) // 4, 16)
        if not t.any():  # the tables of 0 are zeros; keeps a plan's shift-0 row cheap
            return np.zeros(t.shape + tail, dtype=np.uint64)
        return self.nibble_tables(t.reshape(-1)).reshape(t.shape + tail)

    @property
    def lane_multiplier_bytes(self) -> int:
        """Bytes of one multiplier in the lane form `lane_multipliers` gives."""
        return 8 if self._log_vec is not None else 8 * 16 * ((self.w + 3) // 4)

    def nibble_tables(self, consts) -> np.ndarray:
        """Tables of the F_2-linear maps a -> t*a, one per multiplier t in
        `consts`: shape (len(consts), ceil(w/4), 16) with table[i, j, q] =
        t_i * (q X^(4j)).  Built for all multipliers at once from the
        reduced products t*X^b, b < w, by doubling over the nibble bits."""
        t = np.asarray(consts, dtype=np.uint64).reshape(-1, 1)
        b = np.arange(self.w, dtype=np.uint64)
        nq = (self.w + 3) // 4
        bits = np.zeros((t.shape[0], 4 * nq), dtype=np.uint64)
        bits[:, :self.w] = self._reduce_vec((t >> (np.uint64(63) - b)) >> np.uint64(1), t << b)
        bits = bits.reshape(-1, nq, 4)
        tables = np.zeros((t.shape[0], nq, 16), dtype=np.uint64)
        for i in range(4):
            np.bitwise_xor(tables[:, :, :1 << i], bits[:, :, i, None],
                           out=tables[:, :, 1 << i:2 << i])
        return tables

    def mul_lanes(self, mults: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Products of uint64 lanes a with multipliers in lane form (see
        lane_multipliers), lane by lane; the multipliers' shape M (without
        the nibble axes) broadcasts against a's shape.  M = (L,) multiplies
        the last axis lane l by multiplier l; a single multiplier
        broadcasts over all lanes.  Elements multiply through the log
        tables: gen^(log t + log a), where a zero operand's log lands the
        sum in the zeros."""
        logs = self._log_vec
        if logs is not None:
            return self._exp_vec.take(logs.take(mults) + logs.take(a))
        return self._mul_nibbles(mults, a)

    def _mul_nibbles(self, tables: np.ndarray, a: np.ndarray) -> np.ndarray:
        """mul_lanes through nibble tables: one gather over the nibble
        indices of a, then an XOR over the nibbles."""
        nq = tables.shape[-2]
        shifts = np.arange(0, 4 * nq, 4, dtype=np.uint64)
        idx = (a[..., None] >> shifts) & np.uint64(15)
        idx = idx + np.arange(0, tables.size, 16, dtype=np.uint64).reshape(tables.shape[:-1])
        return np.bitwise_xor.reduce(tables.reshape(-1).take(idx), axis=-1)

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Lane-wise mul of uint64 arrays; schoolbook + sparse reduction."""
        one = np.uint64(1)
        lo = np.zeros_like(a)
        hi = np.zeros_like(a)
        for j in range(self.w):
            jj = np.uint64(j)
            mask = np.uint64(0) - ((b >> jj) & one)
            lo ^= (a << jj) & mask
            hi ^= ((a >> np.uint64(63 - j)) >> one) & mask
        return self._reduce_vec(hi, lo)

    def _reduce_vec(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        w = self.w
        one = np.uint64(1)
        if w < 64:
            hi = (hi << np.uint64(64 - w)) | (lo >> np.uint64(w))
            lo = lo & np.uint64(self.mask)
        t_hi = np.zeros_like(hi)
        t_lo = np.zeros_like(lo)
        for e in self.poly_exps:
            if e == 0:
                t_lo ^= hi
            elif e == 64:
                t_hi ^= hi
            else:
                t_lo ^= hi << np.uint64(e)
                t_hi ^= (hi >> np.uint64(63 - e)) >> one
        if w < 64:
            q = (t_hi << np.uint64(64 - w)) | (t_lo >> np.uint64(w))
        else:
            q = t_hi
        r = lo
        for e in self._tail_exps:
            r = r ^ (q << np.uint64(e))
        return r & np.uint64(self.mask)

    # -- element plumbing ------------------------------------------------------

    def validate(self, a: int):
        if not isinstance(a, int) or a < 0 or a > self.mask:
            raise FieldError(f"not a canonical GF(2^{self.w}) element: {a!r}")

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.order)

    def to_bytes(self, a: int) -> bytes:
        return a.to_bytes(self.elem_bytes, "little")


# --------------------------------------------------------------------------
# GF(p)
# --------------------------------------------------------------------------

class Gfp:
    """Context for GF(p), p prime and < 2^63; products are reduced with one
    wide-integer remainder."""

    def __init__(self, p: int):
        if not 2 <= p < (1 << 63):
            raise FieldError(f"p must be in [2, 2^63), got {p}")
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.elem_bytes = 8

    def __repr__(self):
        return f"Gfp(p={self.p})"

    def __eq__(self, other):
        return isinstance(other, Gfp) and other.p == self.p

    def __hash__(self):
        return hash((Gfp, self.p))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        s = a - b
        return s + self.p if s < 0 else s

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def horner(self, coeffs, xs) -> list[int]:
        """sum_i coeffs[i] x^i at each x in xs (constant term first), by
        Horner's rule with one remainder a step: (acc*x + c) % p equals
        add(mul(acc, x), c) for canonical operands."""
        p = self.p
        top, rest = coeffs[-1], coeffs[-2::-1]
        out = []
        for x in xs:
            acc = top
            for c in rest:
                acc = (acc * x + c) % p
            out.append(acc)
        return out

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise FieldError("negative exponent")
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    # -- element plumbing ------------------------------------------------------

    def validate(self, a: int):
        if not isinstance(a, int) or not 0 <= a < self.p:
            raise FieldError(f"not a canonical GF({self.p}) element: {a!r}")

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def to_bytes(self, a: int) -> bytes:
        return a.to_bytes(self.elem_bytes, "little")


def find_primitive_element(ctx: Gfp) -> int:
    """A generator of F_p^*, the same one on every call for a given p.

    Las Vegas search: candidates are drawn from a fixed-seed random.Random
    and accepted once omega^((p-1)/q) != 1 for every prime q | p-1, with
    p-1 factored here.
    """
    p = ctx.p
    if p == 2:
        return 1
    primes = list(factorize(p - 1))
    rng = random.Random(0x5eed)
    while True:
        cand = rng.randrange(2, p)
        if all(ctx.pow(cand, (p - 1) // q) != 1 for q in primes):
            return cand


def field_spec_string(ctx) -> str:
    """Inverse of parse_field_spec."""
    if isinstance(ctx, Gf2w):
        return f"gf2w:{ctx.w}"
    if isinstance(ctx, Gfp):
        return f"gfp:{ctx.p}"
    raise FieldError(f"unknown field context {ctx!r}")


def parse_field_spec(spec: str):
    """Parse 'gf2w:64' or 'gfp:257' into a field context."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise FieldError(f"malformed field spec {spec!r}, want gf2w:W or gfp:P")
    try:
        value = int(arg, 0)
    except ValueError as exc:
        raise FieldError(f"malformed field spec {spec!r}") from exc
    if kind == "gf2w":
        return Gf2w(value)
    if kind == "gfp":
        return Gfp(value)
    raise FieldError(f"unknown field kind {kind!r}")
