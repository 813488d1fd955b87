"""Verification that generator output is what it claims: exhaustive seed
enumeration gives exact verdicts on tiny fields; a chi-square screen gives
statistical smoke coverage at production scale."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, islice, product

from .errors import GuardExceeded

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

    `make_generator(seed)` must be a deterministic factory.  When C(n, k)
    exceeds the cap, a deterministic lexicographic prefix of the subsets is
    examined (reported via positions_examined, keeping the exactness claim
    honest).  Seed spaces above the guard are rejected with the scale that
    would be required.  `threads` splits the enumeration over first-element
    seed ranges; the merge order is deterministic either way.
    """
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

    n_subsets = math.comb(n, k)
    subsets = islice(combinations(range(n), k), max_position_subsets)
    examined = 0
    worst = 0.0
    tuple_count = order ** k
    # exact equality in integer arithmetic: count * |F|^k == #seeds
    for subset in subsets:
        examined += 1
        counts: dict[tuple, int] = {}
        for stream in streams:
            key = tuple(stream[i] for i in subset)
            counts[key] = counts.get(key, 0) + 1
        expected = n_seeds / tuple_count
        dev = max(
            (abs(c - expected) for c in counts.values()), default=expected
        )
        if len(counts) < tuple_count:
            dev = max(dev, expected)  # some tuple never occurred
        worst = max(worst, dev)
        if any(c * tuple_count != n_seeds for c in counts.values()) or (
            len(counts) != tuple_count
        ):
            return IndependenceReport(
                "exact-fail", k, examined, worst,
                detail=f"subset={subset} tuples={len(counts)}/{tuple_count}",
            )
    return IndependenceReport("exact-pass", k, examined, worst)


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
