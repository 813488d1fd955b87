"""Verification that generator output is what it claims: exhaustive seed
enumeration gives exact verdicts on tiny fields; a chi-square screen gives
statistical smoke coverage at production scale.

The exhaustive check counts with arrays: the streams of all seeds form one
position-major matrix, and each examined k-subset of positions is one
`bincount` of mixed-radix tuple keys, so memory beyond the streams is
O(#seeds + |F|^k) whatever the number of subsets.  It refuses (ConfigError)
a check that would examine no subset, which would otherwise read as a pass."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np

from .errors import ConfigError, GuardExceeded

ENUM_GUARD = 10_000_000
POSITION_SUBSET_CAP = 200
SCREEN_FAIL_QUANTILE = 1e-6


@dataclass(frozen=True)
class IndependenceReport:
    verdict: str  # exact-pass | exact-fail | screen-pass | screen-fail
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
    guard: int = ENUM_GUARD,
    threads: int = 1,
) -> IndependenceReport:
    """Enumerate every seed, materialize every stream, and demand that each
    of the |F|^k output tuples occurs exactly (#seeds)/|F|^k times at every
    examined k-subset of positions.

    `make_generator(seed)` must be a deterministic factory; its
    `emit_batch(n)` is called once per seed, in `itertools.product` order.
    When C(n, k) exceeds the cap, a deterministic lexicographic prefix of the
    subsets is examined (reported via positions_examined, keeping the
    exactness claim honest).  A check that would examine no subset (k < 1,
    n < k or a cap below 1) is refused with `ConfigError` rather than
    reported as a pass.  Seed spaces above the guard are rejected with the
    scale that would be required.  `threads` splits the enumeration over
    first-element seed ranges; the merge order is deterministic either way.

    The streams are packed into one (n, #seeds) matrix.  Each subset's
    tuples are counted with one `bincount` of their mixed-radix keys
    sum_j col[i_j] |F|^(k-1-j), so temporaries stay O(#seeds + |F|^k) per
    subset.  A value outside [0, |F|) fails the check before any counting.
    When |F|^k > #seeds no subset can pass; the first one fails with its
    distinct tuples counted row-wise (the keys could overflow there).
    """
    if k < 1 or n < k or max_position_subsets < 1:
        raise ConfigError(
            f"exhaustive check with k={k}, n={n} and max_position_subsets="
            f"{max_position_subsets} would examine no {k}-subset of positions"
        )
    order = field.order
    n_seeds = order ** seed_len
    if n_seeds > guard:
        raise GuardExceeded(
            f"exhaustive check needs {n_seeds} = {order}^{seed_len} streams, "
            f"guard is {guard}"
        )

    def materialize(first_range):
        out = []
        if seed_len == 0:
            return [make_generator(()).emit_batch(n)]
        for first in first_range:
            for rest in product(range(order), repeat=seed_len - 1):
                out.append(make_generator((first,) + rest).emit_batch(n))
        return out

    if threads > 1 and seed_len > 0:
        from concurrent.futures import ThreadPoolExecutor

        chunk = max(1, order // threads)
        ranges = [range(i, min(i + chunk, order)) for i in range(0, order, chunk)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(materialize, ranges))
        streams = [s for part in parts for s in part]
    else:
        streams = materialize(range(order))

    bad = _first_out_of_range(streams, order)
    if bad is not None:
        seed_index, position, value = bad
        return IndependenceReport(
            "exact-fail", k, 0, 0.0,
            detail=f"value={value} not in [0, {order}) seed_index={seed_index}"
                   f" position={position}",
        )
    columns = np.array(streams, dtype=np.uint64).T  # (n, #seeds)
    tuple_count = order ** k
    expected = n_seeds / tuple_count
    subsets = islice(combinations(range(n), k), max_position_subsets)

    if tuple_count > n_seeds:
        subset = next(subsets)
        _, counts = np.unique(columns[list(subset)].T, axis=0, return_counts=True)
        worst = max(float(counts.max()) - expected, expected)
        return IndependenceReport(
            "exact-fail", k, 1, worst,
            detail=f"subset={subset} tuples={len(counts)}/{tuple_count}",
        )

    # values < |F| here, so keys stay below |F|^k <= #seeds
    columns = np.ascontiguousarray(columns, dtype=np.int64)
    worst = 0.0
    for examined, subset in enumerate(subsets, 1):
        key = columns[subset[0]]
        for i in subset[1:]:
            key = key * order + columns[i]
        counts = np.bincount(key, minlength=tuple_count)
        lo, hi = int(counts.min()), int(counts.max())
        worst = max(worst, abs(lo - expected), abs(hi - expected))
        if lo != hi or lo * tuple_count != n_seeds:
            return IndependenceReport(
                "exact-fail", k, examined, worst,
                detail=f"subset={subset} tuples={np.count_nonzero(counts)}"
                       f"/{tuple_count}",
            )
    return IndependenceReport("exact-pass", k, examined, worst)


def _first_out_of_range(streams, order: int):
    """(seed index, position, value) of the first stream value outside
    [0, order), in materialization order, or None."""
    if min(map(min, streams)) >= 0 and max(map(max, streams)) < order:
        return None
    for s, stream in enumerate(streams):
        for i, v in enumerate(stream):
            if not 0 <= v < order:
                return s, i, v


def _low_bit_cell_probs(order: int, bits: int = 2) -> list[float]:
    """Exact distribution of (element mod 2^bits) for a uniform canonical
    element; uniform when 2^bits | order, slightly lopsided otherwise."""
    cells = 1 << bits
    base = order // cells
    extra = order % cells
    return [(base + (1 if r < extra else 0)) / order for r in range(cells)]


def chi_square_screen(
    stream_source,
    field,
    k: int,
    window: int,
    trials: int,
    rng: random.Random,
    fail_quantile: float = SCREEN_FAIL_QUANTILE,
) -> IndependenceReport:
    """Joint-histogram screen over the low 2 bits of k positions.

    `stream_source(seed)` returns at least `window` canonical elements; one
    seed is drawn per trial.  Fails when the chi-square statistic lands above
    the (1 - fail_quantile) quantile of its null distribution.
    """
    if k > 4:
        raise GuardExceeded("screen holds joint histograms only up to k=4 positions")
    positions = [round(i * (window - 1) / max(k - 1, 1)) for i in range(k)]
    positions = sorted(set(positions))
    while len(positions) < k:  # tiny window fallback
        positions.append(positions[-1] + 1)
    cell_p = _low_bit_cell_probs(field.order)
    cells = 4 ** k
    counts = [0] * cells
    for _ in range(trials):
        seed = rng.getrandbits(63)
        stream = stream_source(seed)
        idx = 0
        for pos in positions:
            idx = idx * 4 + (stream[pos] & 3)
        counts[idx] += 1
    stat = 0.0
    for idx, c in enumerate(counts):
        p = 1.0
        for j in range(k):
            digit = (idx // 4 ** (k - 1 - j)) % 4
            p *= cell_p[digit]
        expected = trials * p
        if expected > 0:
            stat += (c - expected) ** 2 / expected
    from scipy.stats import chi2  # imported here: it costs most of kgen's start-up

    threshold = float(chi2.ppf(1.0 - fail_quantile, cells - 1))
    verdict = "screen-pass" if stat <= threshold else "screen-fail"
    return IndependenceReport(
        verdict, k, len(positions), stat,
        detail=f"threshold={threshold:.2f} trials={trials}",
    )
