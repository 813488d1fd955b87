"""Exact verification that generator output is k-independent.

Every kind is F-linear in its seed, so under a uniform seed k positions are
jointly uniform exactly when their rows of the seed->stream matrix have rank
k over F.  `rank_independence_check` decides that by elimination over F at
any field size; it is what `kgen verify` runs.  `exhaustive_independence_check`
enumerates every seed of a tiny field, range-checks the packed streams as
one array, and counts position subsets a chunk at a time, one `bincount`
per chunk; it is the oracle the rank check is tested against.  Both
refuse (ConfigError) a check that would examine no subset."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb

import numpy as np

from .errors import ConfigError, GuardExceeded

ENUM_GUARD = 10_000_000
RANK_GUARD = 10_000_000  # field operations, about s*k*(k + subsets)
POSITION_SUBSET_CAP = 200
# int64 words per array in one chunk of exhaustive counting (128 KiB): 7
# subsets at 2197 seeds.  2^15 words gained no time there and raised the
# check's tracemalloc peak from 0.7 to 1.2 MiB.
_COUNT_CHUNK_WORDS = 1 << 14


@dataclass(frozen=True)
class IndependenceReport:
    verdict: str  # exact-pass | exact-fail
    k: int
    positions_examined: int
    worst_stat: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict.endswith("pass")

    def to_line(self) -> str:
        return (
            f"verdict={self.verdict} k={self.k} positions={self.positions_examined}"
            f" worst={self.worst_stat:.6g}"
            + (f" detail={self.detail}" if self.detail else "")
        )


def exhaustive_independence_check(
    make_generator,
    field,
    seed_len: int,
    k: int,
    n: int,
    max_position_subsets: int = POSITION_SUBSET_CAP,
) -> IndependenceReport:
    """Enumerate every seed, materialize every stream, and demand that each
    of the |F|^k output tuples occurs exactly (#seeds)/|F|^k times at every
    examined k-subset of positions.

    `make_generator(seed)` must be a deterministic factory; its
    `emit_batch(n)` is called once per seed, in `itertools.product` order.
    When C(n, k) exceeds the cap, a deterministic lexicographic prefix of the
    subsets is examined (reported via positions_examined, keeping the
    exactness claim honest).  Seed spaces above ENUM_GUARD are rejected with
    the scale that would be required.

    The streams are packed into one uint64 array, whose maximum is the
    range check.  Only when it finds a value outside [0, |F|), or numpy
    refuses one (negative, or >= 2^64), does a scalar scan name the first
    such value; the check then fails before any counting.  Subsets are
    counted a chunk at a time: each subset's tuples become the mixed-radix
    keys sum_j col[i_j] |F|^(k-1-j), offset by the subset's place in the
    chunk times |F|^k, and one `bincount` counts the whole chunk.  A chunk
    holds _COUNT_CHUNK_WORDS / #seeds subsets (at least one), so its key,
    gather and count arrays stay near 8 * _COUNT_CHUNK_WORDS bytes each
    (|F|^k <= #seeds there).  The report, with `worst` taken up to the
    first failing subset, is that of counting one subset at a time.  When
    |F|^k > #seeds no subset can pass; the first one fails with its
    distinct tuples counted row-wise (the keys could overflow there).
    """
    _refuse_vacuous("exhaustive", k, n, max_position_subsets)
    order = field.order
    n_seeds = order ** seed_len
    if n_seeds > ENUM_GUARD:
        raise GuardExceeded(
            f"exhaustive check needs {n_seeds} = {order}^{seed_len} streams, "
            f"guard is {ENUM_GUARD}"
        )

    streams = [make_generator(seed).emit_batch(n)
               for seed in product(range(order), repeat=seed_len)]

    try:
        packed = np.array(streams, dtype=np.uint64)  # (#seeds, n)
    except OverflowError:  # a value below 0 or above 2^64 - 1
        packed = None
    # a uint64 holds no value outside GF(2^64)
    if packed is None or (order < 1 << 64 and int(packed.max()) >= order):
        return _out_of_range(streams, order, k)
    del streams  # the lists and their packed copy would outlive the counting
    tuple_count = order ** k
    expected = n_seeds / tuple_count
    subsets = islice(combinations(range(n), k), max_position_subsets)

    if tuple_count > n_seeds:
        subset = next(subsets)
        _, counts = np.unique(packed[:, list(subset)], axis=0, return_counts=True)
        worst = max(float(counts.max()) - expected, expected)
        return IndependenceReport(
            "exact-fail", k, 1, worst,
            detail=f"subset={subset} tuples={len(counts)}/{tuple_count}",
        )

    # values < |F| here, so a chunk's keys stay below chunk * |F|^k
    columns = np.ascontiguousarray(packed.T, dtype=np.int64)  # (n, #seeds)
    del packed
    chunk = max(1, min(max_position_subsets, _COUNT_CHUNK_WORDS // n_seeds))
    keys = np.empty((chunk, n_seeds), dtype=np.int64)
    gathered = np.empty_like(keys)
    offsets = np.arange(0, chunk * tuple_count, tuple_count, dtype=np.int64)[:, None]
    worst = 0.0
    examined = 0
    while batch := list(islice(subsets, chunk)):
        c = len(batch)
        idx = np.array(batch, dtype=np.intp)  # (c, k)
        key = keys[:c]
        columns.take(idx[:, 0], axis=0, out=key, mode="clip")
        for j in range(1, k):
            key *= order
            key += columns.take(idx[:, j], axis=0, out=gathered[:c], mode="clip")
        key += offsets[:c]
        counts = np.bincount(key.reshape(-1), minlength=c * tuple_count)
        counts = counts.reshape(c, tuple_count)
        los, his = counts.min(axis=1).tolist(), counts.max(axis=1).tolist()
        for j, subset in enumerate(batch):
            examined += 1
            worst = max(worst, abs(los[j] - expected), abs(his[j] - expected))
            if los[j] != his[j] or los[j] * tuple_count != n_seeds:
                return IndependenceReport(
                    "exact-fail", k, examined, worst,
                    detail=f"subset={subset} tuples={np.count_nonzero(counts[j])}"
                           f"/{tuple_count}",
                )
    return IndependenceReport("exact-pass", k, examined, worst)


def _refuse_vacuous(name: str, k: int, n: int, max_position_subsets: int):
    """Refuse, rather than pass, a check that examines no k-subset."""
    if k < 1 or n < k or max_position_subsets < 1:
        raise ConfigError(
            f"{name} check with k={k}, n={n} and max_position_subsets="
            f"{max_position_subsets} would examine no {k}-subset of positions"
        )


def _out_of_range(streams, order: int, k: int, seed_index=lambda s: s):
    """The exact-fail report of the first value outside [0, order), or None;
    `seed_index` maps a stream's place to its seed's enumeration index."""
    if min(map(min, streams)) >= 0 and max(map(max, streams)) < order:
        return None
    for s, stream in enumerate(streams):
        for i, v in enumerate(stream):
            if not 0 <= v < order:
                return IndependenceReport(
                    "exact-fail", k, 0, 0.0,
                    detail=f"value={v} not in [0, {order}) seed_index="
                           f"{seed_index(s)} position={i}",
                )


def _ratio(a: int, b: int) -> float:
    """a/b, or inf where it does not fit a float."""
    try:
        return a / b
    except OverflowError:
        return float("inf")


def rank_independence_check(
    make_generator,
    field,
    seed_len: int,
    k: int,
    n: int,
    max_position_subsets: int = POSITION_SUBSET_CAP,
) -> IndependenceReport:
    """`exhaustive_independence_check`'s report, from ranks over F instead
    of enumerated seeds.

    The seed->stream matrix's columns are the streams of the seed_len unit
    seeds, up to the last examined position.  A subset of rank r < k takes
    |F|^r tuples |F|^(s-r) times each, so it fails with that count and
    worst = max(e, |F|^(s-r) - e), e = |F|^s/|F|^k as enumeration has it.
    Subsets come in lexicographic order, each keeping the echelon rows of
    the prefix it shares with the one before, at about s*k field operations;
    above RANK_GUARD operations in all, the check is refused.  Ranks speak
    only for a map linear in the seed: a value outside [0, |F|), or a fixed
    probe breaking f(a+b) = f(a)+f(b) or f(la) = l*f(a), fails it first.
    """
    _refuse_vacuous("rank", k, n, max_position_subsets)
    order = field.order
    subsets = min(comb(n, k), max_position_subsets)
    cost = seed_len * k * (k + subsets)
    if cost > RANK_GUARD:
        raise GuardExceeded(f"rank check needs about {cost} = {seed_len}*{k}*"
                            f"({k}+{subsets}) field operations, guard is {RANK_GUARD}")
    # the first `subsets` lexicographic subsets reach position n-1 once they
    # are past the n-k+1 that share the prefix 0..k-2
    width = min(n, k - 1 + subsets)
    rng = random.Random(0)
    a, b = (tuple(field.random_element(rng) for _ in range(seed_len)) for _ in "ab")
    lam = 1 + rng.randrange(order - 1)
    seeds = [tuple(int(i == j) for i in range(seed_len)) for j in range(seed_len)]
    seeds += [a, b, tuple(map(field.add, a, b)), tuple(field.mul(lam, x) for x in a)]
    streams = [make_generator(seed).emit_batch(width) for seed in seeds]

    bad = _out_of_range(streams, order, k, lambda s: sum(
        v * order ** (seed_len - 1 - i) for i, v in enumerate(seeds[s])))
    if bad is not None:
        return bad
    for i, (x, y, xy, lx) in enumerate(zip(*streams[seed_len:])):
        if xy != field.add(x, y) or lx != field.mul(lam, x):
            return IndependenceReport("exact-fail", k, 0, 0.0,
                                      detail=f"not linear in the seed at position={i}")

    rows = list(zip(*streams[:seed_len])) or [()] * width
    tuple_count = order ** k
    e = _ratio(order ** seed_len, tuple_count)
    basis, prev = [], ()
    for examined, subset in enumerate(islice(combinations(range(n), k), subsets), 1):
        keep = next((j for j, (x, y) in enumerate(zip(subset, prev)) if x != y), len(prev))
        del basis[keep:]
        for i in subset[keep:]:
            basis.append(_reduce(field, rows[i], basis))
        prev = subset
        r = k - basis.count(None)
        if r < k:
            return IndependenceReport(
                "exact-fail", k, examined, max(e, _ratio(order ** (seed_len - r), 1) - e),
                detail=f"subset={subset} tuples={order ** r}/{tuple_count}",
            )
    return IndependenceReport("exact-pass", k, examined, 0.0)


def _reduce(field, row, basis):
    """`row` reduced by the echelon rows in `basis` (None for a dependent
    row): its pivot and itself scaled to 1 there, or None when it lies in
    their span.  Each basis row is 0 at the pivots before its own."""
    mul, sub = field.mul, field.sub
    for pivot, pivot_row in filter(None, basis):
        c = row[pivot]
        if c:
            row = [sub(x, mul(c, y)) for x, y in zip(row, pivot_row)]
    for pivot, c in enumerate(row):
        if c:
            inv = field.inv(c)
            return pivot, [mul(inv, x) for x in row]
