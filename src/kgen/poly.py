"""Polynomials over a field context: Horner evaluation and the naive
multipoint oracle that every batch-evaluation path is checked against."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .field import FieldError, Gf2w, Gfp


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector a_0..a_{k-1}, constant term first.

    Trailing zero coefficients are legal and preserved: a member of the
    k-wise independent family carries exactly k coefficients, not minimal
    degree.
    """

    field: object
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise FieldError("polynomial needs at least one coefficient")
        for c in self.coeffs:
            self.field.validate(c)

    def __len__(self):
        return len(self.coeffs)


def horner_eval(h: Polynomial, x: int) -> int:
    """a_0 + a_1 x + ... + a_{k-1} x^{k-1} with k-1 mults and k-1 adds."""
    f = h.field
    f.validate(x)
    acc = h.coeffs[-1]
    for c in reversed(h.coeffs[:-1]):
        acc = f.add(f.mul(acc, x), c)
    return acc


def naive_multipoint(h: Polynomial, points: Sequence[int]) -> list[int]:
    """Elementwise Horner evaluation; the correctness oracle for FFT paths.

    From 64 points on, GF(p) with p < 2^32 and GF(2^w) with w > 16 run
    Horner on uint64 lanes, one lane per point, with arithmetic of their
    own that shares no code with the field's lane products: over GF(p)
    each step is exact below 2^64 (acc*x + c <= p(p-1)), and over GF(2^w)
    each point gets its own nibble tables.
    """
    f = h.field
    lanes = None
    if isinstance(f, Gfp) and f.p < 1 << 32:
        lanes = _horner_lanes_gfp
    elif isinstance(f, Gf2w) and f.w > 16:
        lanes = _horner_lanes_gf2w
    if lanes is None or len(points) < 64:
        return [horner_eval(h, x) for x in points]
    for x in (min(points), max(points)):
        f.validate(x)
    return lanes(h, np.array(points, dtype=np.uint64))


def _horner_lanes_gfp(h: Polynomial, xs: np.ndarray) -> list[int]:
    p = np.uint64(h.field.p)
    acc = np.full(len(xs), h.coeffs[-1], dtype=np.uint64)
    for c in reversed(h.coeffs[:-1]):
        acc *= xs
        acc += np.uint64(c)
        acc %= p
    return acc.tolist()


# Points per block of _horner_lanes_gf2w: their tables take 2 KiB a point
# at w=64, so a block stays in cache and the tables' size is bounded.
_LANE_BLOCK = 512


def _horner_lanes_gf2w(h: Polynomial, xs: np.ndarray) -> list[int]:
    """Per block of points: the rows x*X^j mod g, j < w, by shift-and-fold
    with g; from them the tables T[q, i, v] = x_i * (v X^(4q)) by doubling
    over the bits of the nibble v; then each Horner step gathers one entry
    per nibble of acc and XORs them."""
    f = h.field
    nq = (f.w + 3) // 4
    one, top, mask = np.uint64(1), np.uint64(f.w - 1), np.uint64(f.mask)
    tail = np.uint64(f.g & f.mask)  # X^w mod g
    shifts = np.arange(0, 4 * nq, 4, dtype=np.uint64)[:, None]
    out = []
    for at in range(0, len(xs), _LANE_BLOCK):
        r = xs[at:at + _LANE_BLOCK]
        n = len(r)
        bits = np.zeros((4 * nq, n), dtype=np.uint64)
        for j in range(f.w):
            bits[j] = r
            r = ((r << one) & mask) ^ (tail & (np.uint64(0) - (r >> top)))
        bits = bits.reshape(nq, 4, n)
        tables = np.zeros((nq, n, 16), dtype=np.uint64)
        for i in range(4):
            np.bitwise_xor(tables[:, :, :1 << i], bits[:, i, :, None],
                           out=tables[:, :, 1 << i:2 << i])
        flat = tables.reshape(-1)
        base = np.arange(0, flat.size, 16, dtype=np.uint64).reshape(nq, n)
        acc = np.full(n, h.coeffs[-1], dtype=np.uint64)
        for c in reversed(h.coeffs[:-1]):
            acc = np.bitwise_xor.reduce(flat.take(((acc >> shifts) & np.uint64(15)) + base), axis=0)
            acc ^= np.uint64(c)
        out += acc.tolist()
    return out


def random_polynomial(field, k: int, rng: random.Random) -> Polynomial:
    """Uniform member of the k-wise independent family: k iid coefficients.

    This is the generator seed; k field elements of randomness.
    """
    if k < 1:
        raise FieldError("k must be >= 1")
    if k > field.order:
        raise FieldError(f"k={k} exceeds field size {field.order}")
    return Polynomial(field, tuple(field.random_element(rng) for _ in range(k)))
