"""Sequential k-independent generators: init(seed) once, emit() forever after
(until the declared period runs out).

Four kinds:

* horner      -- direct polynomial evaluation, k-1 mults per value;
* fft-batch   -- one size-k batch evaluation per k outputs (additive FFT
                 over GF(2^w), coset DFT over GF(p));
* expander    -- a d-regular random bipartite graph over a d*k-independent
                 right table; emits are d table lookups plus d-1 additions,
                 amortized constant time;
* cascade     -- a chain of expanders multiplying the output volume by c per
                 level, so the base generator's batch cost is amortized c^t-fold.

The horner and fft-batch kinds are exact (failure probability zero); the
sampled kinds declare the union-bound failure probability of their graphs.

fft-batch, expander and cascade share one block cursor (`_BlockStream`):
a refill computes a whole block as a uint64 array, `fill(n)` hands out
slices of it, and `emit` and `emit_batch` read from it as Python ints.  An
fft-batch block is one batch transform; an expander or cascade block is the
c*m outputs of one gather, where `BipartiteGraph.row_sums` gathers the right
table column by column and reduces by XOR over GF(2^w) or modular addition
over GF(p).  `stream_chunks` takes a stream in chunks of 2^16 values, which
`write_stream` serializes with one `tobytes` each.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PeriodExhausted
from .expander import (
    BipartiteGraph,
    check_graph_size,
    rank_failure_bound,
    sample_graph,
)
from .fft import AdditiveFftPlan, CosetDftPlan
from .field import Gf2w, Gfp, field_spec_string, find_primitive_element
from .poly import Polynomial, horner_eval


@dataclass(frozen=True)
class GeneratorDescriptor:
    kind: str
    field: object
    k: int
    period: int
    delta: float
    seed_len: int

    def header_line(self) -> str:
        return (
            f"# kind={self.kind} field={field_spec_string(self.field)} k={self.k}"
            f" period={self.period} delta={self.delta:.6g} seedlen={self.seed_len}"
        )


def _check_seed(field, seed, want_len) -> tuple[int, ...]:
    seed = tuple(seed)
    if len(seed) != want_len:
        raise ConfigError(f"seed must be {want_len} field elements, got {len(seed)}")
    for s in seed:
        field.validate(s)
    return seed


class HornerGenerator:
    """Evaluates the seed polynomial over the field in enumeration order
    (0, 1, 2, ... as canonical words); period |F|, zero failure probability."""

    def __init__(self, field, k: int, seed):
        if k < 1:
            raise ConfigError("k must be >= 1")
        if k > field.order:
            raise ConfigError(f"k={k} exceeds field size {field.order}")
        self.field = field
        self.seed = _check_seed(field, seed, k)
        self.h = Polynomial(field, self.seed)
        self.descriptor = GeneratorDescriptor(
            "horner", field, k, field.order, 0.0, k
        )
        self._pos = 0

    def fork(self, seed) -> "HornerGenerator":
        return HornerGenerator(self.field, self.descriptor.k, seed)

    @property
    def remaining(self) -> int:
        return self.descriptor.period - self._pos

    def emit(self) -> int:
        if self._pos >= self.descriptor.period:
            raise PeriodExhausted(f"period {self.descriptor.period} consumed")
        x = self.field.element_at(self._pos)
        self._pos += 1
        return horner_eval(self.h, x)

    def emit_batch(self, count: int) -> list[int]:
        if count > self.remaining:
            raise PeriodExhausted(f"{count} values requested, {self.remaining} remain")
        f = self.field
        xs = [f.element_at(i) for i in range(self._pos, self._pos + count)]
        self._pos += count
        mul, add = f.mul, f.add
        top, rest = self.h.coeffs[-1], self.h.coeffs[-2::-1]
        out = []
        for x in xs:
            acc = top
            for c in rest:
                acc = add(mul(acc, x), c)
            out.append(acc)
        return out


class _BlockStream:
    """Cursor over blocks of `_block_size` values that `_next_block()`
    computes as uint64 arrays.  The blocks tile the period, so the period is
    checked once, when a block is due."""

    def _start(self):
        self._block: np.ndarray | None = None
        self._cursor = 0  # position within the current block
        self._emitted = 0

    @property
    def remaining(self) -> int:
        return self.descriptor.period - self._emitted

    def _advance(self):
        if self._emitted >= self.descriptor.period:
            raise PeriodExhausted(f"period {self.descriptor.period} consumed")
        block = self._next_block()
        block.flags.writeable = False
        self._block = block
        self._cursor = 0

    def fill(self, count: int) -> np.ndarray:
        """The next `count` values as a uint64 array (read-only when it lies
        within one block)."""
        if count > self.remaining:
            raise PeriodExhausted(f"{count} values requested, {self.remaining} remain")
        parts = []
        while count > 0:
            if self._block is None or self._cursor >= self._block_size:
                self._advance()
            take = min(count, self._block_size - self._cursor)
            parts.append(self._block[self._cursor:self._cursor + take])
            self._cursor += take
            self._emitted += take
            count -= take
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)

    def emit(self) -> int:
        if self._block is None or self._cursor >= self._block_size:
            self._advance()
        v = self._block[self._cursor]
        self._cursor += 1
        self._emitted += 1
        return int(v)

    def emit_batch(self, count: int) -> list[int]:
        return self.fill(count).tolist()


class FftBatchGenerator(_BlockStream):
    """Evaluates the seed polynomial one structured batch at a time; each
    batch is one block.

    Over GF(2^w) the batches are the affine subspaces W, W+delta_1, ... that
    cover the whole field, enumerated by Gray-coded coset representatives;
    period 2^w.  A batch is one `AdditiveFftPlan.evaluate_vec`.  Over GF(p)
    the batches are the multiplicative cosets omega^j * <omega_k>, which
    cover F_p^* exactly; period p-1.  A batch is one
    `CosetDftPlan.evaluate_coset_vec` for p < 2^32, else the scalar
    `evaluate_coset`.  `fork` shares the plan's immutable tables.
    """

    def __init__(self, field, k: int, seed, omega: int | None = None):
        if k < 1:
            raise ConfigError("k must be >= 1")
        if k > field.order:
            raise ConfigError(f"k={k} exceeds field size {field.order}")
        self.field = field
        if isinstance(field, Gf2w):
            s = max(0, (k - 1).bit_length())
            self._plan = AdditiveFftPlan(field, s)
            period = field.order
        elif isinstance(field, Gfp):
            if (field.p - 1) % k != 0:
                raise ConfigError(f"k={k} does not divide p-1={field.p - 1}")
            if k & (k - 1):
                raise ConfigError(f"coset DFT path needs a power-of-two k, got {k}")
            if omega is None:
                omega = find_primitive_element(field)
            self._plan = CosetDftPlan(field, k, omega)
            period = field.p - 1
        else:
            raise ConfigError(f"unsupported field context {field!r}")
        self.batch_size = self._block_size = 1 << max(0, (k - 1).bit_length())
        self.descriptor = GeneratorDescriptor("fft-batch", field, k, period, 0.0, k)
        self._reseed(seed)

    def _reseed(self, seed):
        self.seed = _check_seed(self.field, seed, self.descriptor.k)
        self._coeffs_vec = np.array(self.seed, dtype=np.uint64)
        self._next_batch = 0
        self._start()

    def fork(self, seed) -> "FftBatchGenerator":
        gen = copy.copy(self)
        if isinstance(self._plan, CosetDftPlan):
            gen._plan = self._plan.fork()
        gen._reseed(seed)
        return gen

    def _next_block(self) -> np.ndarray:
        j = self._next_batch
        self._next_batch = j + 1
        if isinstance(self._plan, AdditiveFftPlan):
            return self._plan.evaluate_vec(self._coeffs_vec, self._gray_shift(j))
        if j > 0:
            self._plan.advance_coset()
        if self.field.p < 1 << 32:
            return self._plan.evaluate_coset_vec(self._coeffs_vec)
        return np.array(self._plan.evaluate_coset(self.seed), dtype=np.uint64)

    def _gray_shift(self, j: int) -> int:
        """Representative of batch j: the Gray code of j above the s
        subspace bits."""
        return (j ^ (j >> 1)) << self._plan.s


def required_independence(needed: int, inner_period: int) -> int:
    """Independence the inner stream must supply.

    Any subset of positions of a stream is capped by the stream length, so a
    fully independent period-P stream satisfies every requirement above P.
    """
    return min(needed, inner_period)


class ExpanderGenerator(_BlockStream):
    """Graph-composed generator: output x is the field sum of the right-table
    entries adjacent to left vertex x.

    The right table holds m consecutive inner outputs; each block of c*m
    outputs is one gather over a refilled table, and the inner stream walks
    the blocks of the (virtually) stacked graph until its period runs out.
    """

    def __init__(self, field, k: int, graph: BipartiteGraph, inner, delta: float):
        inner_period = inner.descriptor.period
        if inner_period % graph.m != 0:
            raise ConfigError(
                f"right size m={graph.m} must divide the inner period {inner_period}"
            )
        need = required_independence(graph.d * k, inner_period)
        if inner.descriptor.k < need:
            raise ConfigError(
                f"inner generator supplies {inner.descriptor.k}-independence, "
                f"need {need}"
            )
        self.field = field
        self.graph = graph
        self.inner = inner
        blocks = inner_period // graph.m
        period = blocks * graph.c * graph.m
        self.descriptor = GeneratorDescriptor(
            "expander", field, k, period, delta, inner.descriptor.seed_len
        )
        self.seed = inner.seed
        self._block_size = graph.c * graph.m
        self._start()

    def fork(self, seed) -> "ExpanderGenerator":
        return ExpanderGenerator(
            self.field, self.descriptor.k, self.graph,
            self.inner.fork(seed), self.descriptor.delta,
        )

    def _next_block(self) -> np.ndarray:
        return self.graph.row_sums(self.field, self.inner.emit_batch(self.graph.m))


class CascadeGenerator(_BlockStream):
    """Chained expander levels g_i(x) = sum of g_{i-1} over the neighbors of
    x in level graph i; the base stream feeds level 0 in chunks of m0."""

    def __init__(self, field, k: int, graphs: list[BipartiteGraph], base, delta: float):
        if not graphs:
            raise ConfigError("cascade needs at least one level; use the base directly")
        m0 = graphs[0].m
        prev_left = None
        for i, g in enumerate(graphs):
            if prev_left is not None and g.m != prev_left:
                raise ConfigError(
                    f"level {i + 1} right size {g.m} != level {i} left size {prev_left}"
                )
            prev_left = g.n_left
        base_period = base.descriptor.period
        if base_period % m0 != 0:
            raise ConfigError(f"m0={m0} must divide the base period {base_period}")
        d = graphs[0].d
        t = len(graphs)
        need = required_independence(d ** t * k, base_period)
        if base.descriptor.k < need:
            raise ConfigError(
                f"base generator supplies {base.descriptor.k}-independence, need {need}"
            )
        self.field = field
        self.graphs = graphs
        self.base = base
        blocks = base_period // m0
        self._block_size = graphs[-1].n_left
        period = blocks * self._block_size
        self.descriptor = GeneratorDescriptor(
            "cascade", field, k, period, delta, base.descriptor.seed_len
        )
        self.seed = base.seed
        self._m0 = m0
        self._start()

    def fork(self, seed) -> "CascadeGenerator":
        return CascadeGenerator(
            self.field, self.descriptor.k, self.graphs,
            self.base.fork(seed), self.descriptor.delta,
        )

    def _next_block(self) -> np.ndarray:
        values = self.base.emit_batch(self._m0)
        for g in self.graphs:
            values = g.row_sums(self.field, values)
        return values


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------

def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _make_inner(field, kind: str, k_needed: int, rng: random.Random,
                seed=None, omega: int | None = None):
    """Inner/base generator of the requested kind supplying >= k_needed
    independence (rounded up to what the kind supports)."""
    if kind == "horner":
        k_inner = k_needed
    elif kind == "fft-batch":
        k_inner = _next_pow2(k_needed)
        if isinstance(field, Gfp) and (field.p - 1) % k_inner != 0:
            raise ConfigError(
                f"fft-batch inner needs 2^ceil(log2({k_needed}))={k_inner} dividing p-1"
            )
    else:
        raise ConfigError(f"unsupported inner kind {kind!r}")
    if k_inner > field.order:
        raise ConfigError(
            f"inner independence {k_inner} exceeds field size {field.order}"
        )
    if seed is None:
        seed = tuple(field.random_element(rng) for _ in range(k_inner))
    if kind == "horner":
        return HornerGenerator(field, k_inner, seed)
    return FftBatchGenerator(field, k_inner, seed, omega)


def build_expander_generator(
    field,
    k: int,
    c: int,
    m: int,
    d: int,
    inner_kind: str = "fft-batch",
    rng: random.Random | None = None,
    seed=None,
    graph: BipartiteGraph | None = None,
    omega: int | None = None,
) -> ExpanderGenerator:
    """Sample (or accept) a (c, m, d) graph, compute its failure bound, and
    compose it with an inner generator of the requested kind."""
    rng = rng or random.Random(0)
    if graph is None:
        graph = sample_graph(c, m, d, rng)
    elif (graph.c, graph.m, graph.d) != (c, m, d):
        raise ConfigError("supplied graph does not match (c, m, d)")
    bound = rank_failure_bound(c, m, d, k)
    inner_period = field.order if inner_kind == "horner" else (
        field.order if isinstance(field, Gf2w) else field.p - 1
    )
    need = required_independence(d * k, inner_period)
    inner = _make_inner(field, inner_kind, need, rng, seed, omega)
    return ExpanderGenerator(field, k, graph, inner, bound.delta)


def build_cascade_generator(
    field,
    k: int,
    c: int,
    d: int,
    t: int,
    base_kind: str = "horner",
    rng: random.Random | None = None,
    m0: int | None = None,
    seed=None,
    graphs: list[BipartiteGraph] | None = None,
):
    """Cascade of t sampled levels over a base generator.

    Level i is a (c, c^(i-1)*m0, d) graph with independence target
    d^(t-i)*k; the declared failure probability is the union-bound sum of
    the level bounds.  t=0 degenerates to the base generator itself.
    """
    rng = rng or random.Random(0)
    base_period = field.order if base_kind == "horner" else (
        field.order if isinstance(field, Gf2w) else field.p - 1
    )
    if m0 is None:
        m0 = base_period
    if graphs is None:
        check_graph_size(sum(c ** i * m0 * d for i in range(1, t + 1)), "cascade")
    need = required_independence(d ** t * k, base_period)
    base = _make_inner(field, base_kind, need, rng, seed)
    if t == 0:
        return base
    if graphs is None:
        graphs = [
            sample_graph(c, c ** (i - 1) * m0, d, rng) for i in range(1, t + 1)
        ]
    log_terms = []
    for i, g in enumerate(graphs, start=1):
        k_level = min(d ** (t - i) * k, g.n_left)
        log_terms.append(rank_failure_bound(g.c, g.m, g.d, k_level).log10_delta)
    top = max(log_terms)
    if top >= 0.0:
        delta = 1.0  # vacuous union bound: clamp to the trivial probability bound
    elif top > -307:
        delta = 10.0 ** top * sum(10.0 ** (x - top) for x in log_terms)
    else:
        delta = 0.0
    return CascadeGenerator(field, k, graphs, base, min(delta, 1.0))


def init(descriptor: GeneratorDescriptor, seed):
    """Instantiate a polynomial-seeded generator from its descriptor.

    The sampled kinds (expander, cascade) also need their graphs: build them
    with build_expander_generator / build_cascade_generator, then use
    .fork(seed) for fresh seeds over the same structure.
    """
    if descriptor.kind == "horner":
        return HornerGenerator(descriptor.field, descriptor.k, seed)
    if descriptor.kind == "fft-batch":
        return FftBatchGenerator(descriptor.field, descriptor.k, seed)
    raise ConfigError(
        f"kind {descriptor.kind!r} carries sampled structure; use its builder"
    )


# --------------------------------------------------------------------------
# Stream serialization
# --------------------------------------------------------------------------

def seed_to_hex(field, seed) -> str:
    width = 2 * field.elem_bytes
    return "".join(f"{s:0{width}x}" for s in seed)


def seed_from_hex(field, text: str) -> tuple[int, ...]:
    clean = text.replace(":", "").replace(",", "").replace(" ", "")
    width = 2 * field.elem_bytes
    if not clean or len(clean) % width:
        raise ConfigError(
            f"hex seed length must be a multiple of {width} chars for this field"
        )
    out = []
    for i in range(0, len(clean), width):
        v = int(clean[i:i + width], 16)
        field.validate(v)
        out.append(v)
    return tuple(out)


# Values per fill/emit_batch call in stream_chunks.
_WRITE_CHUNK = 1 << 16


def _words_to_bytes(values: np.ndarray, elem_bytes: int) -> bytes:
    """Little-endian fixed-width words of `elem_bytes` bytes each."""
    if elem_bytes in (1, 2, 4, 8):
        return values.astype(f"<u{elem_bytes}", copy=False).tobytes()
    wide = values.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return wide[:, :elem_bytes].tobytes()


def stream_chunks(gen, count: int):
    """The next `count` values of `gen` as uint64 arrays of up to 2^16
    values each; fewer values in all when the period runs out.

    Values are taken from `gen.fill` when it has one, else from
    `gen.emit_batch`; `gen.remaining`, when present, caps the count.
    """
    count = max(0, min(count, getattr(gen, "remaining", count)))
    fill = getattr(gen, "fill", None)
    while count > 0:
        n = min(_WRITE_CHUNK, count)
        yield fill(n) if fill is not None else np.array(gen.emit_batch(n), dtype=np.uint64)
        count -= n


def write_stream(gen, fh, count: int, header: bool = False):
    """Raw little-endian fixed-width words, optionally preceded by a text
    descriptor line.  Returns the number of values written (short only if
    the period runs out mid-stream).  One write per `stream_chunks` chunk.
    """
    field = gen.field
    if header:
        line = gen.descriptor.header_line() + f" seed={seed_to_hex(field, gen.seed)}\n"
        fh.write(line.encode())
    written = 0
    for values in stream_chunks(gen, count):
        fh.write(_words_to_bytes(values, field.elem_bytes))
        written += len(values)
    return written
