"""Random unbalanced bipartite graphs, stacking, a brute-force row-subset
oracle, the failure-probability bounds that size the graphs, and the
(c, m, d) parameter search.

A graph is one padded (c*m, d) uint32 array, in and out, so sampling,
stacking and validation are array operations.  The array is column-major:
neighbor column j of left vertices start..stop is one contiguous uint32 run.
A generator sums rows with `row_sums`, which reads the array once per call,
a slab of left vertices at a time: each neighbor column of a slab indexes a
right table, held in the narrowest word its reduction fits, straight from
the array.  Size guards fire before that array is allocated.

All bound arithmetic runs in log10 space with log-gamma factorials: the
interesting failure probabilities reach 1e-46, far below what direct floats
survive.  `cascade_failure_bound` is the one delta a sampled generator
declares: the union bound over its levels, an expander being one level.
"""

from __future__ import annotations

import math
import mmap
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, GuardExceeded

_LN10 = math.log(10.0)
_LOG10_E = math.log10(math.e)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

SUBSET_ENUM_BUDGET = 2_000_000


# --------------------------------------------------------------------------
# Graphs
# --------------------------------------------------------------------------

# Largest c*m*d a graph may hold: 512 MiB of uint32 adjacency slots.
MAX_GRAPH_ENTRIES = 1 << 27

# Left vertices `row_sums` gathers per slab: its two accumulators take
# 128-256 KiB, and numpy's intp copy of one contiguous neighbor column
# 128 KiB, at any d.
_GATHER_ROWS = 1 << 14

# Left vertices `sample_graph` draws per slab, into a C-order (rows, d)
# scratch of 512 KiB at d = 8, before storing them into the column-major
# graph.
_SAMPLE_ROWS = 1 << 14

# Most 32-bit words one `_draw_below` round asks the generator for (256 KiB
# of uint32, plus a 64 KiB mask and at most 256 KiB kept).
_DRAW_WORDS = 1 << 16


def check_graph_size(entries: int, what: str = "graph"):
    """Raise GuardExceeded, naming the required scale, before a graph of
    `entries` adjacency slots (c*m*d, summed over levels) is allocated."""
    if entries > MAX_GRAPH_ENTRIES:
        raise GuardExceeded(
            f"{what} needs {entries} adjacency slots ({4 * entries / 2 ** 20:.0f} MiB "
            f"as uint32); the cap is {MAX_GRAPH_ENTRIES}"
        )


class BipartiteGraph:
    """Left side c*m vertices, right side m vertices, out-degree <= d.

    The edges are one padded (c*m, d) uint32 array: row x holds the
    neighbors of left vertex x in increasing order, then the pad index m in
    the slots deduplication left empty.  A right table with a zero appended
    at index m therefore sums every row without masking.  Each row without
    its pads is exactly the support of the corresponding F_2 matrix row;
    `adjacency` gives the rows as int tuples.

    `edges` is a read-only Fortran-ordered view, so each neighbor column is
    contiguous; an input in any other order is copied into that order once.
    """

    __slots__ = ("c", "m", "d", "edges")

    def __init__(self, c: int, m: int, d: int, edges):
        if c < 1 or m < 1 or d < 1:
            raise ConfigError("c, m, d must all be >= 1")
        if m >= 0xFFFFFFFF:
            raise ConfigError(f"right size m={m} does not fit the uint32 layout")
        if not isinstance(edges, np.ndarray) or edges.dtype != np.uint32:
            raise ConfigError("edges must be a (c*m, d) uint32 array")
        if edges.shape != (c * m, d):
            raise ConfigError("adjacency must list every left vertex")
        edges = np.asfortranarray(edges).view()
        if edges.max() > m:
            raise ConfigError("right index out of range")
        if (edges[:, 0] == m).any():
            raise ConfigError("adjacency rows must have 1..d entries")
        # entries never exceed the pad m, so an entry may equal or exceed its
        # right neighbor only when that neighbor is a pad; one pair of
        # columns at a time, so each temporary holds c*m bools
        for j in range(d - 1):
            a, b = edges[:, j], edges[:, j + 1]
            if not ((a < b) | (b == m)).all():
                raise ConfigError("adjacency rows must be sorted and duplicate-free")
        edges.flags.writeable = False
        self.c, self.m, self.d, self.edges = c, m, d, edges

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return ((self.c, self.m, self.d) == (other.c, other.m, other.d)
                and np.array_equal(self.edges, other.edges))

    def __repr__(self):
        return f"BipartiteGraph(c={self.c}, m={self.m}, d={self.d})"

    @property
    def n_left(self) -> int:
        return self.c * self.m

    @property
    def adjacency(self) -> "_Rows":
        """The rows as sorted int tuples, built from the array on access."""
        return _Rows(self.edges, self.m)

    def row_sums(self, field, values) -> np.ndarray:
        """out[x] = field sum of values[y] over the neighbors y of left vertex x.

        `values` is an array of exactly m canonical field elements (a
        refill's inner `fill(m)`); they go into a right table with a zero at
        the pad index, held in the narrowest word the
        reduction fits: uint32 over GF(2^w) with w <= 32 and over GF(p) with
        p < 2^31 (a sum of two residues stays below 2^32), else uint64.
        The left vertices are gathered in slabs of `_GATHER_ROWS`: each of a
        slab's d neighbor columns, one contiguous run of the column-major
        edges, indexes the table straight from the graph and is reduced in
        place, by XOR in characteristic 2, else by an addition and
        min(s, s - p).  The result is one uint64 array of c*m sums.
        """
        m, d, n = self.m, self.d, self.n_left
        if len(values) != m:
            raise ValueError(f"row_sums needs {m} right values, got {len(values)}")
        char2 = field.char == 2
        narrow = field.order <= 1 << 32 if char2 else field.p < 1 << 31
        word = np.uint32 if narrow else np.uint64
        table = np.empty(m + 1, dtype=word)
        table[:-1] = values
        table[-1] = 0
        p = word(field.p) if not char2 else None
        out = np.empty(n, dtype=np.uint64)
        rows = min(_GATHER_ROWS, n)
        acc = np.empty(rows, dtype=word)
        tmp = np.empty(rows, dtype=word)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            slab = self.edges[start:stop]
            a, t = acc[:stop - start], tmp[:stop - start]
            # indices were range-checked at construction, so "clip" never
            # clips; unlike "raise", it lets take write `out=` unbuffered
            table.take(slab[:, 0], out=a, mode="clip")
            for j in range(1, d):
                table.take(slab[:, j], out=t, mode="clip")
                if char2:
                    a ^= t
                else:
                    a += t
                    np.subtract(a, p, out=t)
                    np.minimum(a, t, out=a)
            out[start:stop] = a
        return out

    def row_bitsets(self) -> list[int]:
        """Rows of the F_2 adjacency matrix as ints (bit y = edge to y)."""
        m = self.m
        return [sum(1 << y for y in row if y != m) for row in self.edges.tolist()]


class _Rows(Sequence):
    """Read-only view of a graph's rows as int tuples without the pads."""

    __slots__ = ("_edges", "_m")

    def __init__(self, edges: np.ndarray, m: int):
        self._edges = edges
        self._m = m

    def __len__(self):
        return len(self._edges)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        row = self._edges[i].tolist()
        return tuple(row[:row.index(self._m)] if row[-1] == self._m else row)


def _mersenne_generator(rng: random.Random):
    """(gen, save): a numpy Generator on an MT19937 loaded with the 624-word
    key and position of `rng`, a random.Random that runs CPython's Mersenne
    Twister, and `save()`, which writes gen's advanced key and position back
    into rng beside rng's own `gauss_next`.  Any other rng (random.SystemRandom,
    say) has no such state to continue, and is refused with ConfigError.
    numpy.random is imported here, so a process that samples no graph never
    loads it."""
    if not isinstance(rng, random.Random) or isinstance(rng, random.SystemRandom):
        raise ConfigError(
            f"graph sampling needs a random.Random with CPython's Mersenne-Twister "
            f"state (getstate/setstate), got {type(rng).__name__}"
        )
    from numpy.random import MT19937, Generator

    version, internal, gauss_next = rng.getstate()
    bitgen = MT19937(0)  # seeded only to be overwritten: 0 reads no OS entropy
    # the key as rng's tuple: numpy copies it word by word, and a tuple's
    # words are read several times faster than an array's
    bitgen.state = {"bit_generator": "MT19937",
                    "state": {"key": internal[:-1], "pos": internal[-1]}}

    def save():
        state = bitgen.state["state"]
        rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))

    return Generator(bitgen), save


def _draw_below(gen, m: int, out: np.ndarray) -> None:
    """Fill the flat uint32 array `out` with `[rng.randrange(m) for _ in out]`,
    for 1 <= m < 2^32, where `gen` is `_mersenne_generator(rng)`'s Generator,
    and advance gen as those calls would advance rng.

    CPython's randrange(m) takes one 32-bit Mersenne-Twister word w per
    attempt and keeps w >> (32 - m.bit_length()) if it is below m.
    `gen.integers(0, 2^32, dtype=uint32)` hands back exactly those words,
    one each: each round draws as many as draws are still missing (at most
    `_DRAW_WORDS`), shifts them and keeps those below m.  Every draw takes
    at least one word, so a round never takes a word the sequential calls
    would not.
    """
    if not 1 <= m < 1 << 32:
        raise ValueError(f"_draw_below needs 1 <= m < 2^32, got {m}")
    shift = np.uint32(32 - m.bit_length())
    n, filled = len(out), 0
    while filled < n:
        words = gen.integers(0, 1 << 32, size=min(n - filled, _DRAW_WORDS), dtype=np.uint32)
        words >>= shift
        kept = np.compress(words < m, words)
        out[filled:filled + len(kept)] = kept
        filled += len(kept)


def _sorting_network(d: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort on d wires: comparators (i, j), i < j,
    in the order they run, each leaving the smaller value on wire i; 19 of
    them at d = 8, 63 at d = 16."""
    pairs = []
    p = 1
    while p < d:
        k = p
        while k >= 1:
            for j in range(k % p, d - k, 2 * k):
                for i in range(min(k, d - j - k)):
                    # both wires in one of the 2p-wire blocks being merged
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return pairs


def _sort_columns(columns: list[np.ndarray], network, tmp: np.ndarray) -> None:
    """Sort the rows the equal-length arrays `columns` form, in place, with
    the comparators of `network`, one minimum and one maximum per pair."""
    for i, j in network:
        a, b = columns[i], columns[j]
        np.minimum(a, b, out=tmp)
        np.maximum(a, b, out=b)
        a[...] = tmp


def sample_graph(c: int, m: int, d: int, rng: random.Random) -> BipartiteGraph:
    """For each left vertex independently: d uniform draws from [m], deduplicated.

    The draws are exactly `rng.randrange(m)` made c*m*d times, row after row
    in the order the row-tuple sampler made them, and `rng` is left in the
    state those calls leave: one MT19937, loaded once with rng's own
    Mersenne-Twister state (`_mersenne_generator`), makes them in bulk for
    the whole graph (`_draw_below`), and its state goes back into rng once,
    after the last row.  So a seeded rng gives the same graph, and whatever
    the caller draws next from it (an inner seed, the next cascade level) is
    the same too.  An rng without that state (random.SystemRandom) is
    refused with ConfigError before anything is allocated.

    The column-major (c*m, d) array lives in an anonymous mmap, not on the
    malloc heap: when glibc frees a chunk malloc had mmapped, it raises its
    mmap threshold to that chunk's size, so dropping a malloc'd graph of some
    MiB would move later buffers of that size onto the heap, where their
    freed space stays in the process.  Rows are drawn `_SAMPLE_ROWS` at a
    time into a small row-major scratch and stored transposed, so no second
    graph-sized array exists.  The stored slab's rows are then sorted in
    place by a comparator network over its contiguous columns, duplicates
    replaced by the pad m, and sorted again.
    """
    if c < 1 or m < 1 or d < 1:
        raise ConfigError("c, m, d must all be >= 1")
    n = c * m
    check_graph_size(n * d)
    gen, save = _mersenne_generator(rng)  # refused before the graph is allocated
    edges = np.frombuffer(mmap.mmap(-1, 4 * n * d), dtype=np.uint32).reshape(d, n).T
    rows = min(_SAMPLE_ROWS, n)
    scratch = np.empty((rows, d), dtype=np.uint32)
    pad = np.uint32(m)
    network = _sorting_network(d)
    tmp, same = np.empty(rows, dtype=np.uint32), np.empty(rows, dtype=bool)
    for start in range(0, n, _SAMPLE_ROWS):
        stop = min(start + _SAMPLE_ROWS, n)
        slab = scratch[:stop - start]
        _draw_below(gen, m, slab.reshape(-1))
        edges[start:stop] = slab
        columns = [edges[start:stop, j] for j in range(d)]
        t, s = tmp[:stop - start], same[:stop - start]
        _sort_columns(columns, network, t)
        # from the right, so each column is compared with its left neighbor
        # before that neighbor is padded
        for j in range(d - 1, 0, -1):
            np.equal(columns[j], columns[j - 1], out=s)
            np.copyto(columns[j], pad, where=s)
        _sort_columns(columns, network, t)
    save()
    return BipartiteGraph(c, m, d, edges)


def stack(g: BipartiteGraph, b: int) -> BipartiteGraph:
    """Block-diagonal b-fold copy: a (c, b*m, d) graph.

    Preserves k-uniqueness and small-row-subset independence in both
    directions, since any offending subset restricts to a single block.
    """
    if b < 1:
        raise ConfigError("b must be >= 1")
    if b == 1:
        return g
    check_graph_size(b * g.c * g.m * g.d, "stacked graph")
    offsets = np.arange(b, dtype=np.uint32)[:, None, None] * np.uint32(g.m)
    edges = np.where(g.edges == g.m, np.uint32(b * g.m), g.edges + offsets)
    return BipartiteGraph(g.c, b * g.m, g.d, edges.reshape(-1, g.d))


# --------------------------------------------------------------------------
# Brute-force verification oracle
# --------------------------------------------------------------------------

def all_small_row_subsets_independent(
    g: BipartiteGraph,
    k: int,
    max_enum: int = SUBSET_ENUM_BUDGET,
) -> bool:
    """True iff no nonempty subset of <= k rows of the F_2 adjacency matrix
    sums to zero; exactly the condition under which M*x carries k-wise
    independence through.

    Subset sizes 1 and 2 (zero rows, duplicate rows) are always resolved
    exactly in linear time.  Larger sizes use the exact subset sweep, which
    raises GuardExceeded when it would enumerate more than max_enum subsets.
    """
    rows = g.row_bitsets()
    n = len(rows)
    kk = min(k, n)
    if 0 in rows:
        return False
    if kk >= 2 and len(set(rows)) < n:
        return False
    if kk <= 2:
        return True
    total = 0
    for size in range(3, kk + 1):
        total += math.comb(n, size)
        if total > max_enum:
            raise GuardExceeded(
                f"subset sweep needs <= {max_enum} subsets; got cm={n}, k={k}"
            )
    for size in range(3, kk + 1):
        for subset in combinations(range(n), size):
            acc = 0
            for i in subset:
                acc ^= rows[i]
            if acc == 0:
                return False
    return True


# --------------------------------------------------------------------------
# Failure-probability bounds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundResult:
    """log10 of a failure-probability upper bound.

    log10_delta is the raw union-bound value and may exceed 0 (a vacuous
    bound); the linear `delta` view clamps to the trivial probability bound 1
    above, and to the smallest normal float below.
    """

    log10_delta: float

    @property
    def delta(self) -> float:
        if self.log10_delta >= 0.0:
            return 1.0
        # below the float range the smallest normal float still bounds it, so
        # a sampled generator never declares the exact kinds' zero
        return max(10.0 ** self.log10_delta, sys.float_info.min)


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma of each element of x, for x > 0 or an integer x <= 0 (a
    pole, +inf).  math.lgamma below 16, and above it Stirling's series up to
    the x^-7 term, whose truncation error there is below 1e-14 (a
    per-element math.lgamma costs about 0.25 s per million elements, and the
    bound runs over up to k elements four times)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.maximum(x, 16.0)
    r = 1.0 / (y * y)
    out = ((y - 0.5) * np.log(y) - y + _HALF_LOG_2PI
           + (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / y)
    small = (x > 0) & (x < 16.0)
    out[small] = [math.lgamma(v) for v in x[small].tolist()]
    out[x <= 0] = np.inf
    return out


def _logsumexp10(terms: np.ndarray) -> float:
    finite = terms[np.isfinite(terms)]
    if len(finite) == 0:
        return float("-inf")
    m = float(np.max(finite))
    return m + math.log10(float(np.sum(np.power(10.0, finite - m))))


def beta_pair(i, d: int, m: int):
    """log10 of (i*d - 1)!! * (1/m)^(i*d/2): the pairing bound on i fixed
    rows XORing to zero.  Odd i*d has even parity probability zero => -inf.
    `i` is a subset size or an array of them (a float, or an array of the
    same shape, comes back)."""
    n = np.atleast_1d(np.asarray(i, dtype=np.float64)) * d
    # (n-1)!! = n! / (2^(n/2) * (n/2)!)
    out = np.where(
        n % 2 == 0,
        (_lgamma(n + 1) - (n / 2) * math.log(2) - _lgamma(n / 2 + 1)) / _LN10
        - (n / 2) * math.log10(m),
        -np.inf,
    )
    return out if np.ndim(i) else float(out[0])


def beta_poisson(i, d: int, m: int):
    """log10 of e*sqrt(i*d)*((1+e^(-2 i d / m))/2)^m: the Poisson-parity
    bound; `i` as in beta_pair."""
    n = np.atleast_1d(np.asarray(i, dtype=np.float64)) * d
    inner = np.log1p(np.exp(-2.0 * n / m)) - math.log(2.0)
    out = _LOG10_E + 0.5 * np.log10(n) + m * inner / _LN10
    return out if np.ndim(i) else float(out[0])


def rank_failure_bound(c: int, m: int, d: int, k: int) -> BoundResult:
    """Union bound over row subsets: sum_i C(c*m, i) * min(beta_pair, beta_poisson)."""
    cm = c * m
    i = np.arange(1, k + 1, dtype=np.float64)
    log10_binom = (math.lgamma(cm + 1) - _lgamma(i + 1) - _lgamma(cm - i + 1)) / _LN10
    terms = log10_binom + np.minimum(beta_pair(i, d, m), beta_poisson(i, d, m))
    return BoundResult(_logsumexp10(terms))


def cascade_failure_bound(c: int, m0: int, d: int, k: int, t: int) -> BoundResult:
    """Union bound over the t levels of a cascade: level i is a
    (c, c^(i-1)*m0, d) graph that must carry min(d^(t-i)*k, c^i*m0)-wise
    independence, since no row subset outgrows its c^i*m0 rows.  An
    expander is the one level t = 1, where this equals
    rank_failure_bound(c, m0, d, k) at every k."""
    levels = np.array([
        rank_failure_bound(c, c ** (i - 1) * m0, d, min(d ** (t - i) * k, c ** i * m0)).log10_delta
        for i in range(1, t + 1)
    ])
    return BoundResult(_logsumexp10(levels))


# --------------------------------------------------------------------------
# Parameter search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeModel:
    """Coarse per-value cost model T = FFT_{dk}/c + d random accesses.

    The constants approximate this implementation's measured magnitudes and
    only serve to rank feasible parameter triples; `kgen bench` measures
    real numbers.
    """

    fft_ns_per_value_base: float = 400.0
    fft_ns_per_value_log: float = 220.0
    lookup_ns_tiers: tuple[tuple[int, float], ...] = (
        (1 << 14, 60.0),
        (1 << 19, 90.0),
        (1 << 63, 140.0),
    )

    def fft_ns(self, n: int) -> float:
        return self.fft_ns_per_value_base + self.fft_ns_per_value_log * math.log2(max(n, 2))

    def lookup_ns(self, m: int) -> float:
        for cap, ns in self.lookup_ns_tiers:
            if m <= cap:
                return ns
        return self.lookup_ns_tiers[-1][1]

    def predict(self, c: int, m: int, d: int, k: int) -> float:
        return self.fft_ns(d * k) / c + d * self.lookup_ns(m)


@dataclass(frozen=True)
class SearchRow:
    c: int
    d: int
    m: int | None
    log10_delta: float | None
    predicted_ns: float | None

    @property
    def feasible(self) -> bool:
        return self.m is not None


@dataclass(frozen=True)
class SearchResult:
    rows: tuple[SearchRow, ...]
    winner: SearchRow | None


def search_parameters(
    k: int,
    c_candidates: Sequence[int],
    d_candidates: Sequence[int],
    delta_target: float,
) -> SearchResult:
    """For each (c, d): the least power-of-two m whose expander failure bound
    meets the target, among those whose graph `sample_graph` accepts
    (c*m*d <= MAX_GRAPH_ENTRIES); feasible triples ranked by predicted time."""
    if k < 1 or min(c_candidates, default=0) < 1 or min(d_candidates, default=0) < 1:
        raise ConfigError("k and the c and d candidates (at least one each) must be >= 1")
    if not delta_target > 0:
        raise ConfigError(f"delta target must be positive, got {delta_target}")
    model = TimeModel()
    log10_target = math.log10(delta_target)

    def solve(c, d):
        m = 2
        while c * m * d <= MAX_GRAPH_ENTRIES:
            bound = cascade_failure_bound(c, m, d, k, 1).log10_delta
            # the bound is a probability: anything above 1 is trivially 1
            if min(bound, 0.0) <= log10_target:
                return SearchRow(c, d, m, bound, model.predict(c, m, d, k))
            m <<= 1
        return SearchRow(c, d, None, None, None)

    rows = tuple(solve(c, d) for c in sorted(c_candidates) for d in sorted(d_candidates))
    feasible = [r for r in rows if r.feasible]
    winner = min(feasible, key=lambda r: (r.predicted_ns, r.c, r.d)) if feasible else None
    return SearchResult(rows, winner)

