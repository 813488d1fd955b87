"""Batch evaluation of a degree < k polynomial at k structured points.

Two engines:

* an additive FFT over GF(2^w) that evaluates on an affine F_2-subspace
  (Taylor expansion at x^2 - x, two half-size transforms per level; Gao and
  Mateer, IEEE Trans. IT 2010).  On uint64 lanes it runs as two passes, a
  level at a time: `top_down` (twists, Taylor expansion, even/odd split) does
  not depend on the shift, so a caller evaluating one polynomial on many
  cosets runs it once; `bottom_up` (the butterflies) takes the shift only
  through one multiplier u_d per level, which is F_2-linear in the shift,
  and evaluates many cosets in one call.  Lane products go through
  `Gf2w.mul_lanes` with multipliers in the field's lane form, so the plan
  never knows how the field multiplies.  For small transforms `top_down`
  runs each level's Taylor expansion and split as one precomputed gather
  and XOR-reduce, whose map depends only on the block size and is built
  once per process.  The scalar recursion `evaluate` is the passes' oracle
  and keeps the operation counts; and
* a multiplicative-coset DFT over GF(p) that walks the cosets
  omega^j * <omega_k>, which partition F_p^* exactly.  `evaluate_coset_vec`
  evaluates a whole coset into a uint64 array for every p: a numpy
  transform for p < 2^32, the scalar radix-2 DFT above, which is also the
  numpy transform's oracle.
"""

from __future__ import annotations

import copy
import functools
import itertools
from typing import Sequence

import numpy as np

from .errors import GuardExceeded, PeriodExhausted
from .field import FieldError, Gf2w, Gfp


# Most bytes a plan's lane tables may take: the graph cap's 512 MiB.
MAX_LANE_TABLE_BYTES = 1 << 29


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class _Level:
    __slots__ = ("lam", "inv_lam", "twists", "combos")

    def __init__(self, lam, inv_lam, twists, combos):
        self.lam = lam
        self.inv_lam = inv_lam
        self.twists = twists
        self.combos = combos


class AdditiveFftPlan:
    """Evaluation plan for the subspace spanned by the monomial basis
    1, x, ..., x^(s-1) of GF(2^w), and its cosets.

    The transform size is 2^s; output index b maps to the point shift XOR b,
    so a shift that is a multiple of 2^s enumerates its coset in word order.

    Besides the scalar levels, the plan holds the fixed multipliers of the
    lane passes in the field's lane form (`Gf2w.lane_multipliers`), built
    at the first lane pass: one per twist and combo, about 2^(s+1) of them
    (as nibble tables of 16*ceil(w/4) words each, 1 MiB at w=64, s=8,
    doubling with each step of s).  The u_d of the shifts 1 << b (s*2 KiB
    per bit as nibble tables at w=64) are added on first use, for the bits
    the shifts reach.  A plan whose tables would take more than
    MAX_LANE_TABLE_BYTES is refused before any level is built.
    """

    def __init__(self, field: Gf2w, s: int):
        if not isinstance(field, Gf2w):
            raise FieldError("additive FFT requires a binary field")
        if not 0 <= s <= field.w:
            raise FieldError(f"transform log-size {s} out of range for w={field.w}")
        need = (2 << s) * field.lane_multiplier_bytes
        if need > MAX_LANE_TABLE_BYTES:
            raise GuardExceeded(
                f"additive FFT of 2^{s} points over GF(2^{field.w}) needs about "
                f"{need / 2 ** 20:g} MiB of lane tables; the cap is "
                f"{MAX_LANE_TABLE_BYTES / 2 ** 20:g} MiB")
        self.field = field
        self.s = s
        self.size = 1 << s
        self.levels: list[_Level] = []
        self.op_counts = {"mul": 0, "add": 0}
        self.count_ops = False
        cur = [1 << i for i in range(s)]
        for j in range(s, 0, -1):
            lam = cur[0]
            inv_lam = field.inv(lam)
            norm = [field.mul(b, inv_lam) for b in cur]
            twists = None
            if lam != 1:
                twists = [1] * (1 << j)
                for i in range(1, 1 << j):
                    twists[i] = field.mul(twists[i - 1], lam)
            # combos[b] is the XOR of norm[1 + i] over the bits i of b
            combos = [0]
            for g in norm[1:]:
                combos += [c ^ g for c in combos]
            self.levels.append(_Level(lam, inv_lam, twists, combos))
            cur = [field.add(field.mul(g, g), g) for g in norm[1:]]
        # the _shift_operands row of shift 0; _shift_units adds the rows of
        # the shift bits on first use
        self._units = field.lane_multipliers(np.zeros((1, s), dtype=np.uint64))

    @functools.cached_property
    def _lanes(self) -> tuple[list, list]:
        """The fixed multipliers of top_down and bottom_up, per level, in the
        field's lane form, built at their first use (a plan that only serves
        `evaluate` or `points` never builds them): the twists (None where
        lambda is 1) and the combos.  All are slices of one
        lane_multipliers array, immutable and shared by every caller."""
        groups = [l.twists for l in self.levels] + [l.combos for l in self.levels]
        mults = self.field.lane_multipliers([t for g in groups if g is not None for t in g])
        ends = itertools.accumulate(0 if g is None else len(g) for g in groups)
        views = [None if g is None else mults[e - len(g):e] for g, e in zip(groups, ends)]
        return views[:self.s], views[self.s:]

    def points(self, shift: int = 0) -> list[int]:
        """The evaluation points in output order."""
        return [shift ^ b for b in range(self.size)]

    def evaluate(self, coeffs: Sequence[int], shift: int = 0) -> list[int]:
        """Evaluate the polynomial with the given coefficients (constant term
        first) at every point of `points(shift)`, in that order."""
        if len(coeffs) > self.size:
            raise FieldError(
                f"polynomial of length {len(coeffs)} exceeds transform size {self.size}"
            )
        self.field.validate(shift)
        c = list(coeffs) + [0] * (self.size - len(coeffs))
        return self._eval(0, c, shift)

    def top_down(self, coeffs: np.ndarray) -> np.ndarray:
        """The shift-independent half of `evaluate` on uint64 lanes, a fixed
        linear map of the coefficients: its result serves every shift of
        `bottom_up`, and `bottom_up(top_down(c), [shift])[0]` is
        `evaluate(c, shift)` bit for bit.

        At depth d all 2^d sub-problems share the level's twists, so the
        recursion runs over the (2^d, n/2^d) view of one array: twist,
        Taylor-expand and split even/odd coefficients into consecutive
        rows.  The twists multiply through one `mul_lanes` per level.  Up to
        _FUSED_MAX_SIZE coefficients, the expansion and split of a level are
        one gather of `_taylor_split_map` and one XOR `reduceat`; above it,
        two slice XORs per block size and a transpose.
        """
        f = self.field
        n = self.size
        if coeffs.shape[0] > n:
            raise FieldError(
                f"polynomial of length {coeffs.shape[0]} exceeds transform size {n}"
            )
        twists = self._lanes[0]
        x = np.zeros(n, dtype=np.uint64)
        x[:coeffs.shape[0]] = coeffs
        for d, lvl in enumerate(self.levels):
            m = n >> d
            if lvl.lam != 1:
                x = f.mul_lanes(twists[d], x.reshape(-1, m)).reshape(n)
            if n <= _FUSED_MAX_SIZE:
                if m > 2:  # a 2-block is its own expansion and split
                    idx, starts = _taylor_split_map(m)
                    x = np.bitwise_xor.reduceat(x.reshape(-1, m).take(idx, axis=1),
                                                starts, axis=1).reshape(n)
                continue
            size = m
            while size > 2:
                v = x.reshape(-1, size)
                half, q = size >> 1, size >> 2
                v[:, half:half + q] ^= v[:, half + q:]
                v[:, q:half] ^= v[:, half:half + q]
                size = half
            x = x.reshape(-1, m >> 1, 2).transpose(0, 2, 1).reshape(n)
        return x

    def bottom_up(self, x: np.ndarray, shifts: Sequence[int]) -> np.ndarray:
        """The shift-dependent half of `evaluate` on lanes, for B shifts at once:
        `x` is one `top_down` result; returns the (B, 2^s) evaluations, row
        b on the subspace shifted by shifts[b].

        From the deepest level up, over the (B, 2^d, 2, n/2^(d+1)) view:
        the butterflies e = g0 + (u_d + combos[i]) g1 and out = [e, e + g1],
        interleaved; u_d is the only term that depends on the shift.  The
        lane form is F_2-linear in its multiplier, so u_d's form is XORed
        into the combos' forms and each level is one `mul_lanes`.
        """
        f = self.field
        for shift in (min(shifts), max(shifts)):
            f.validate(shift)
        n = self.size
        combos = self._lanes[1]
        ops = self._shift_operands(shifts)
        batches = ops.shape[0]
        x = x.reshape(1, n)
        for d in reversed(range(self.s)):
            half = n >> (d + 1)
            y = x.reshape(x.shape[0], -1, 2, half)
            g0, g1 = y[:, :, 0], y[:, :, 1]
            prod = f.mul_lanes((combos[d] ^ ops[:, d, None])[:, None], g1)
            out = np.empty((batches, y.shape[1], half, 2), dtype=np.uint64)
            np.bitwise_xor(g0, prod, out=out[..., 0])
            np.bitwise_xor(out[..., 0], g1, out=out[..., 1])
            x = out.reshape(batches, n)
        if x.shape[0] != batches:  # s = 0: the constant term in every batch
            x = np.repeat(x, batches, axis=0)
        return x

    def _shift_operands(self, shifts: Sequence[int]) -> np.ndarray:
        """The multipliers u_d that each shift contributes at depth d, in lane
        form: shape (B, s), plus the nibble axes where the form has them.

        u_0 is the shift over lambda_0 and u_(d+1) is (u_d^2 + u_d) over
        lambda_(d+1), so u_d, and its lane form, is F_2-linear in the shift: a
        row is the previous shift's row XOR the rows of the bits that
        change (one bit between Gray-coded shifts)."""
        units = self._shift_units(max(shifts).bit_length())
        out = np.empty((len(shifts),) + units.shape[1:], dtype=np.uint64)
        row, prev = units[0], 0
        for i, shift in enumerate(shifts):
            delta = shift ^ prev
            while delta:
                low = delta & -delta
                row = row ^ units[low.bit_length()]
                delta ^= low
            out[i] = row
            prev = shift
        return out

    def _shift_units(self, nbits: int) -> np.ndarray:
        """_shift_operands rows of the shifts 0 and 1 << b, b < nbits, at
        rows 0 and b + 1; grown on demand and shared by every caller.  Each
        version of the array is a prefix of the same rows, so callers that
        grow it at once only repeat work."""
        f = self.field
        units = self._units
        have = units.shape[0] - 1
        if nbits > have:
            rows = []
            for b in range(have, nbits):
                u, row = 1 << b, []
                for lvl in self.levels:
                    if lvl.lam != 1:
                        u = f.mul(u, lvl.inv_lam)
                    row.append(u)
                    u = f.mul(u, u) ^ u
                rows.append(row)
            new = f.lane_multipliers(np.array(rows, dtype=np.uint64).reshape(len(rows), self.s))
            units = self._units = np.concatenate([units, new])
        return units

    def _eval(self, depth: int, c: list[int], shift: int) -> list[int]:
        f = self.field
        n = len(c)
        if n == 1:
            return c
        lvl = self.levels[depth]
        mul = f.mul
        if lvl.lam != 1:
            shift = mul(shift, lvl.inv_lam)
            tw = lvl.twists
            c = [mul(ci, ti) if ti != 1 else ci for ci, ti in zip(c, tw)]
            if self.count_ops:
                self.op_counts["mul"] += sum(1 for t in tw if t != 1)
        _taylor(c, 0, n)
        if self.count_ops:  # _taylor's XORs: n/2 per halving, log2(n) - 1 of them
            self.op_counts["add"] += (n >> 1) * (n.bit_length() - 2)
        sigma = mul(shift, shift) ^ shift
        g0 = self._eval(depth + 1, c[0::2], sigma)
        g1 = self._eval(depth + 1, c[1::2], sigma)
        combos = lvl.combos
        out = [0] * n
        for b in range(n >> 1):
            u = shift ^ combos[b]
            e = g0[b] ^ mul(u, g1[b])
            out[2 * b] = e
            out[2 * b + 1] = e ^ g1[b]
        if self.count_ops:
            half = n >> 1
            self.op_counts["mul"] += half
            self.op_counts["add"] += 2 * half + half  # two XORs plus the point offsets
        return out


def _taylor(c: list[int], lo: int, n: int):
    """In-place Taylor expansion at x^2 - x; XORs only.

    Afterwards c[2i], c[2i+1] are the coefficient pairs g0_i, g1_i with
    f(x) = sum_i (g0_i + g1_i x)(x^2 - x)^i.
    """
    while n > 2:
        half = n >> 1
        q = n >> 2
        for i in range(lo + half, lo + half + q):
            c[i] ^= c[i + q]
        for i in range(lo + q, lo + half):
            c[i] ^= c[i + q]
        _taylor(c, lo + half, half)
        n = half


# Largest transform whose top_down runs each level as one fused gather: the
# map of a 2^b-block gathers about (3/2)^b words per word, and from 2^10
# words up the slice XORs are as fast or faster (measured at w = 16, 32, 64).
_FUSED_MAX_SIZE = 1 << 9


@functools.cache
def _taylor_split_map(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The Taylor expansion of an m-block followed by its even/odd split, as
    a gather and `reduceat` offsets: output i is the XOR of the block's words
    idx[starts[i]:starts[i + 1]].  The word sets are the rows of `_taylor`
    applied to the identity; none is empty, as the map is invertible.  A pure
    function of m, shared by every field and plan."""
    eye = np.eye(m, dtype=bool)
    _taylor(list(eye), 0, m)  # XORs the rows in place
    rows, idx = np.nonzero(np.concatenate([eye[0::2], eye[1::2]]))
    starts = np.searchsorted(rows, np.arange(m))
    idx.flags.writeable = starts.flags.writeable = False
    return idx, starts


class CosetDftPlan:
    """Radix-2 DFT plan over GF(p) walking the cosets omega^j * <omega_k>.

    k must be a power of two dividing p-1.  The plan owns a coset cursor
    (index j and the running twist omega^j); advancing past the last coset
    raises PeriodExhausted.  Twiddle factors (k/2 powers of omega_k) are
    computed once and shared by all cosets, and by the plans `fork`
    returns: the vector transform's uint64 array at construction (p < 2^32),
    the scalar `dft`'s int list and bit-reversal table at its first call.
    """

    def __init__(self, field: Gfp, k: int, omega: int):
        if not isinstance(field, Gfp):
            raise FieldError("coset DFT requires a prime field")
        p = field.p
        if not _is_pow2(k):
            raise FieldError(f"transform length {k} is not a power of two")
        if (p - 1) % k != 0:
            raise FieldError(f"k={k} does not divide p-1={p - 1}")
        field.validate(omega)
        if omega == 0:
            raise FieldError("omega must be a unit")
        omega_k = field.pow(omega, (p - 1) // k)
        if field.pow(omega_k, k) != 1 or (k > 1 and field.pow(omega_k, k // 2) == 1):
            raise FieldError("omega_k does not have multiplicative order k")
        self.field = field
        self.k = k
        self.omega = omega
        self.omega_k = omega_k
        self.num_cosets = (p - 1) // k
        self.j = 0
        self.twist_base = 1  # omega^j for the current coset
        self._vec_twiddles = None
        if p < 1 << 32:
            vtw = _powers_mod(omega_k, p, max(k >> 1, 1))
            self._vec_twiddles = (vtw, (vtw << np.uint64(32)) // np.uint64(p))

    @functools.cached_property
    def _twiddles(self) -> list[int]:
        """The scalar dft's k/2 powers of omega_k, built at its first call."""
        tw = [1] * max(self.k >> 1, 1)
        for i in range(1, self.k >> 1):
            tw[i] = self.field.mul(tw[i - 1], self.omega_k)
        return tw

    @functools.cached_property
    def _rev(self) -> list[int]:
        """The scalar dft's bit-reversal table, built at its first call."""
        return _bit_reversal(self.k)

    def fork(self) -> "CosetDftPlan":
        """A plan at coset 0 sharing this plan's immutable tables (twiddles,
        their Shoup quotients, and the scalar dft's twiddle and bit-reversal
        tables once a scalar dft has built them)."""
        plan = copy.copy(self)
        plan.j = 0
        plan.twist_base = 1
        return plan

    def coset_points(self) -> list[int]:
        """The points omega^j * omega_k^r of the current coset, r = 0..k-1."""
        f = self.field
        pts = [self.twist_base] * self.k
        for r in range(1, self.k):
            pts[r] = f.mul(pts[r - 1], self.omega_k)
        return pts

    def twist_coefficients(self, coeffs: Sequence[int]) -> list[int]:
        """Scale a_i by omega^{j*i} using one running power."""
        if len(coeffs) != self.k:
            raise FieldError("coefficient count must equal the transform length")
        f = self.field
        out = list(coeffs)
        t = 1
        for i in range(1, self.k):
            t = f.mul(t, self.twist_base)
            out[i] = f.mul(out[i], t)
        return out

    def dft(self, coeffs: Sequence[int]) -> list[int]:
        """Length-k DFT: out[r] = sum_i c_i * omega_k^{r i}; O(k log k)."""
        if len(coeffs) != self.k:
            raise FieldError("coefficient count must equal the transform length")
        f = self.field
        k = self.k
        a = [coeffs[self._rev[i]] for i in range(k)]
        tw = self._twiddles
        size = 2
        while size <= k:
            half = size >> 1
            step = k // size
            for start in range(0, k, size):
                for i in range(half):
                    u = a[start + i]
                    v = f.mul(a[start + i + half], tw[i * step])
                    a[start + i] = f.add(u, v)
                    a[start + i + half] = f.sub(u, v)
            size <<= 1
        return a

    def evaluate_coset(self, coeffs: Sequence[int]) -> list[int]:
        """Evaluate h on the current coset: DFT of the twisted coefficients."""
        return self.dft(self.twist_coefficients(coeffs))

    def evaluate_coset_vec(self, coeffs: np.ndarray) -> np.ndarray:
        """evaluate_coset on a uint64 array of canonical coefficients, into
        a uint64 array; for p >= 2^32 it is the scalar evaluate_coset, below
        that a numpy transform bit-identical to it.

        The twist powers omega^(j*i) are built by doubling.  The transform
        is radix-2 decimation in time in the self-sorting (Stockham) order,
        so no bit reversal is needed: the array is viewed as (R, C) with the
        length-R DFTs of the C interleaved subsequences in its columns, and
        each stage merges column c with column c + C/2.  Stages run on that
        view while rows are the long axis, then on its transpose.  Products
        of two residues stay below 2^64; twiddle products are reduced with
        a precomputed quotient (Shoup), sums by a conditional subtraction.
        """
        p = self.field.p
        k = self.k
        if coeffs.shape != (k,):
            raise FieldError("coefficient count must equal the transform length")
        if self._vec_twiddles is None:
            return np.array(self.evaluate_coset(coeffs.tolist()), dtype=np.uint64)
        tw, tw_q = self._vec_twiddles
        P = np.uint64(p)
        a = coeffs * _powers_mod(self.twist_base, p, k)
        a %= P

        def butterflies(even, odd, f, f_q, lo, hi):
            t = odd * f
            t -= ((odd * f_q) >> np.uint64(32)) * P
            np.minimum(t, t - P, out=t)
            np.add(even, t, out=lo)
            np.minimum(lo, lo - P, out=lo)
            np.subtract(even + P, t, out=hi)
            np.minimum(hi, hi - P, out=hi)

        rows, cols = 1, k
        x = a.reshape(1, k)
        while rows < cols // 2:
            half = cols // 2
            f, f_q = tw[::k // (2 * rows)], tw_q[::k // (2 * rows)]
            out = np.empty((2 * rows, half), dtype=np.uint64)
            butterflies(x[:, :half], x[:, half:], f[:, None], f_q[:, None],
                        out[:rows], out[rows:])
            x, rows, cols = out, 2 * rows, half
        y = np.ascontiguousarray(x.T)
        while cols > 1:
            half = cols // 2
            f, f_q = tw[::k // (2 * rows)], tw_q[::k // (2 * rows)]
            out = np.empty((half, 2 * rows), dtype=np.uint64)
            butterflies(y[:half], y[half:], f, f_q, out[:, :rows], out[:, rows:])
            y, rows, cols = out, 2 * rows, half
        return y.reshape(k)

    def advance_coset(self):
        """Move to the next coset with a single multiplication."""
        if self.j >= self.num_cosets - 1:
            raise PeriodExhausted(
                f"all {self.num_cosets} cosets of F_{self.field.p}^* consumed"
            )
        self.j += 1
        self.twist_base = self.field.mul(self.twist_base, self.omega)


def _powers_mod(base: int, p: int, n: int) -> np.ndarray:
    """base^i mod p for i < n, a power of two, as a uint64 array, for
    p < 2^32: built by doubling, each product of two residues below 2^64."""
    out = np.empty(n, dtype=np.uint64)
    out[0] = 1
    P = np.uint64(p)
    size = 1
    while size < n:
        np.multiply(out[:size], np.uint64(base), out=out[size:2 * size])
        out[size:2 * size] %= P
        size, base = 2 * size, base * base % p
    return out


def _bit_reversal(n: int) -> list[int]:
    bits = n.bit_length() - 1
    rev = [0] * n
    for i in range(1, n):
        rev[i] = rev[i >> 1] >> 1 | ((i & 1) << (bits - 1))
    return rev
