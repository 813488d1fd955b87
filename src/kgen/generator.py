"""Sequential k-independent generators: init(seed) once, emit() forever after
(until the declared period runs out).

Four kinds:

* horner      -- direct polynomial evaluation, k-1 mults per value, through
                 the field's scalar `horner`;
* fft-batch   -- one size-k batch evaluation per k outputs (additive FFT
                 over GF(2^w), coset DFT over GF(p));
* cascade     -- a chain of expanders multiplying the output volume by c per
                 level, so the inner generator's batch cost is amortized
                 c^t-fold;
* expander    -- the one-level cascade: a random bipartite graph of degree
                 <= d over a d*k-independent right table; emits are d table
                 lookups plus d-1 additions, amortized constant time.

The horner and fft-batch kinds are exact (failure probability zero); the
sampled kinds declare the union-bound failure probability of their graphs.

Every kind has `fill(n)`, the next n values as a uint64 array, and that
array is what layers hand each other; `emit_batch(n)` returns Python ints
for callers outside the library.  Horner's native form is the Python int
list of its field's scalar `horner`, which its `fill` turns into an array.
fft-batch, expander and cascade compute uint64 arrays natively and share
one block cursor (`_BlockStream`): a refill computes a whole block, `fill`
hands out slices of it, and `emit` and `emit_batch` read from it as Python
ints.  An fft-batch block over GF(2^w) is the batches one request spans, in
one bottom-up transform pass (a GF(p) block is one coset); a cascade block
is the left outputs of one gather per level: the inner stream's `fill(m)`
becomes the level-1 right table, and `BipartiteGraph.row_sums` gathers it
slab by slab of left vertices and reduces in place, by XOR over GF(2^w) or
modular addition over GF(p).  `stream_chunks` takes a stream in chunks of
2^16 values, which `write_stream` serializes with one `tobytes` each.

A `GeneratorSpec` names a generator up to its seed, and `build(spec)` is the
one construction path behind every `kgen` subcommand: it returns a
prototype, and each stream is `prototype.fork(seed)`.  `seed_from_int`
turns an integer into an element seed.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import spawn_rng
from .errors import ConfigError, PeriodExhausted
from .expander import (
    BipartiteGraph,
    cascade_failure_bound,
    check_graph_size,
    sample_graph,
)
from .fft import AdditiveFftPlan, CosetDftPlan
from .field import Gf2w, Gfp, field_spec_string, find_primitive_element


@dataclass(frozen=True)
class GeneratorDescriptor:
    kind: str
    field: object
    k: int
    period: int
    delta: float
    seed_len: int

    def header_line(self, seed) -> str:
        """The text line, newline included, that precedes a stream of this
        generator from `seed` when it is written with a header."""
        return (
            f"# kind={self.kind} field={field_spec_string(self.field)} k={self.k}"
            f" period={self.period} delta={self.delta:.6g} seedlen={self.seed_len}"
            f" seed={seed_to_hex(self.field, seed)}\n"
        )


def _check_seed(field, seed, want_len) -> tuple[int, ...]:
    seed = tuple(seed)
    if len(seed) != want_len:
        raise ConfigError(f"seed must be {want_len} field elements, got {len(seed)}")
    for s in seed:
        field.validate(s)
    return seed


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _poly_period(field, kind: str) -> int:
    """Period of a horner or fft-batch stream over `field`: |F|, or p-1 for
    fft-batch over GF(p), whose cosets cover F_p^*."""
    return field.p - 1 if kind == "fft-batch" and isinstance(field, Gfp) else field.order


def _check_k(field, k: int):
    """The independence a polynomial kind can have: 1 <= k <= |F|."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > field.order:
        raise ConfigError(f"k={k} exceeds field size {field.order}")


def _check_count(count: int, remaining: int):
    """Refuse a batch request, before the cursor moves, that is negative or
    runs past the period."""
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    if count > remaining:
        raise PeriodExhausted(f"{count} values requested, {remaining} remain")


class HornerGenerator:
    """Evaluates the seed polynomial over the field in enumeration order
    (0, 1, 2, ... as canonical words) through the field's scalar `horner`;
    period |F|, zero failure probability.  The descriptor is built on first
    access: exhaustive enumeration makes one generator per seed and reads
    none."""

    def __init__(self, field, k: int, seed):
        _check_k(field, k)
        self.field = field
        self.k = k
        self.seed = _check_seed(field, seed, k)
        self._pos = 0

    @cached_property
    def descriptor(self) -> GeneratorDescriptor:
        return GeneratorDescriptor("horner", self.field, self.k, self.field.order, 0.0, self.k)

    def fork(self, seed) -> "HornerGenerator":
        return HornerGenerator(self.field, self.k, seed)

    @property
    def remaining(self) -> int:
        return self.field.order - self._pos

    def emit(self) -> int:
        return self.emit_batch(1)[0]

    def emit_batch(self, count: int) -> list[int]:
        _check_count(count, self.remaining)
        xs = range(self._pos, self._pos + count)
        self._pos += count
        return self.field.horner(self.seed, xs)

    def fill(self, count: int) -> np.ndarray:
        """The next `count` values as a uint64 array."""
        return np.array(self.emit_batch(count), dtype=np.uint64)


class _BlockStream:
    """Cursor over blocks of values that `_next_block(need)` computes as
    uint64 arrays.  `need` is how many values the current request still
    wants; a kind may compute that many in one block, or ignore it.  The
    blocks tile the period, so the period is checked once, when a block is
    due."""

    def _start(self):
        self._block: np.ndarray | None = None
        self._cursor = 0  # position within the current block
        self._emitted = 0

    @property
    def remaining(self) -> int:
        return self.descriptor.period - self._emitted

    def _advance(self, need: int):
        if self._emitted >= self.descriptor.period:
            raise PeriodExhausted(f"period {self.descriptor.period} consumed")
        block = self._next_block(need)
        block.flags.writeable = False
        self._block = block
        self._cursor = 0

    def fill(self, count: int) -> np.ndarray:
        """The next `count` values as a uint64 array (read-only when it lies
        within one block)."""
        _check_count(count, self.remaining)
        parts = []
        while count > 0:
            if self._block is None or self._cursor >= len(self._block):
                self._advance(count)
            take = min(count, len(self._block) - self._cursor)
            parts.append(self._block[self._cursor:self._cursor + take])
            self._cursor += take
            self._emitted += take
            count -= take
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)

    def emit(self) -> int:
        if self._block is None or self._cursor >= len(self._block):
            self._advance(1)
        v = self._block[self._cursor]
        self._cursor += 1
        self._emitted += 1
        return int(v)

    def emit_batch(self, count: int) -> list[int]:
        return self.fill(count).tolist()


# Most values one GF(2^w) fft-batch block computes (at least one batch): it
# bounds the lanes, and the per-batch multiplier tables, of one bottom-up pass.
_LANE_CAP = 1 << 9


class FftBatchGenerator(_BlockStream):
    """Evaluates the seed polynomial one structured batch at a time.

    Over GF(2^w) the batches are the affine subspaces W, W+delta_1, ... that
    cover the whole field, enumerated by Gray-coded coset representatives;
    period 2^w.  The seed's `AdditiveFftPlan.top_down` pass does not depend
    on the batch: it runs once per seed, at the first batch, and is kept.
    A block is then the batches that one `fill`/`emit_batch` request spans
    (one for `emit`, at most _LANE_CAP values), evaluated by one
    `bottom_up` pass.  Over GF(p) the batches are the multiplicative
    cosets omega^j * <omega_k>, which cover F_p^* exactly; period p-1.  A
    block is one coset: one `CosetDftPlan.evaluate_coset_vec`.  `fork`
    shares the plan's immutable tables.
    """

    def __init__(self, field, k: int, seed):
        _check_k(field, k)
        self.field = field
        self.batch_size = _next_pow2(k)
        if isinstance(field, Gf2w):
            self._plan = AdditiveFftPlan(field, self.batch_size.bit_length() - 1)
        elif isinstance(field, Gfp):
            # the plan refuses a k that is not a power of two dividing p-1
            self._plan = CosetDftPlan(field, k, find_primitive_element(field))
        else:
            raise ConfigError(f"unsupported field context {field!r}")
        period = _poly_period(field, "fft-batch")
        self.descriptor = GeneratorDescriptor("fft-batch", field, k, period, 0.0, k)
        self._reseed(seed)

    def _reseed(self, seed):
        self.seed = _check_seed(self.field, seed, self.descriptor.k)
        self._coeffs_vec = np.array(self.seed, dtype=np.uint64)
        self._top = None  # the seed's top-down pass, from the first batch on
        self._next_batch = 0  # GF(2^w) only; over GF(p) the plan holds its coset
        self._start()

    def fork(self, seed) -> "FftBatchGenerator":
        gen = copy.copy(self)
        if isinstance(self._plan, CosetDftPlan):
            gen._plan = self._plan.fork()
        gen._reseed(seed)
        return gen

    def _next_block(self, need: int) -> np.ndarray:
        if isinstance(self._plan, AdditiveFftPlan):
            if self._top is None:
                self._top = self._plan.top_down(self._coeffs_vec)
            j, size = self._next_batch, self.batch_size
            count = min(-(-need // size), max(1, _LANE_CAP // size))
            self._next_batch = j + count
            shifts = [self._gray_shift(i) for i in range(j, j + count)]
            return self._plan.bottom_up(self._top, shifts).reshape(-1)
        if self._emitted:  # the plan is at the coset the last block used
            self._plan.advance_coset()
        return self._plan.evaluate_coset_vec(self._coeffs_vec)

    def _gray_shift(self, j: int) -> int:
        """Representative of batch j: the Gray code of j above the s
        subspace bits."""
        return (j ^ (j >> 1)) << self._plan.s


class CascadeGenerator(_BlockStream):
    """Chained expander levels g_i(x) = sum of g_{i-1} over the neighbors of
    x in level graph i, where g_0 is the inner stream.

    Each block is one gather per level: the inner stream's `fill(m0)` (m0
    the first graph's right size) is the level-1 right table, and the
    last level's c*m left outputs are the block.  The inner stream walks the
    blocks of the (virtually) stacked graphs until its period runs out.
    """

    kind = "cascade"

    def __init__(self, field, k: int, graphs: list[BipartiteGraph], inner, delta: float):
        if k < 1:
            raise ConfigError("k must be >= 1")
        if not graphs:
            raise ConfigError("cascade needs at least one level; use the inner generator directly")
        m0 = graphs[0].m
        prev_left = None
        for i, g in enumerate(graphs):
            if prev_left is not None and g.m != prev_left:
                raise ConfigError(
                    f"level {i + 1} right size {g.m} != level {i} left size {prev_left}"
                )
            prev_left = g.n_left
        inner_period = inner.descriptor.period
        if inner_period % m0 != 0:
            raise ConfigError(
                f"right size m={m0} must divide the inner period {inner_period}"
            )
        # no position subset outgrows the stream, so a period-P inner stream
        # needs at most P-independence
        need = min(graphs[0].d ** len(graphs) * k, inner_period)
        if inner.descriptor.k < need:
            raise ConfigError(
                f"inner generator supplies {inner.descriptor.k}-independence, "
                f"need {need}"
            )
        self.field = field
        self.graphs = graphs
        self.inner = inner
        period = inner_period // m0 * graphs[-1].n_left
        self.descriptor = GeneratorDescriptor(
            self.kind, field, k, period, delta, inner.descriptor.seed_len
        )
        self.seed = inner.seed
        self._start()

    def fork(self, seed):
        gen = copy.copy(self)
        gen.inner = self.inner.fork(seed)
        gen.seed = gen.inner.seed
        gen._start()
        return gen

    def _next_block(self, need: int) -> np.ndarray:
        values = self.inner.fill(self.graphs[0].m)
        for g in self.graphs:
            values = g.row_sums(self.field, values)
        return values


class ExpanderGenerator(CascadeGenerator):
    """The one-level cascade: output x is the field sum of the right-table
    entries adjacent to left vertex x, over m consecutive inner outputs."""

    kind = "expander"

    def __init__(self, field, k: int, graph: BipartiteGraph, inner, delta: float):
        super().__init__(field, k, [graph], inner, delta)
        self.graph = graph


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------

def _make_inner(field, kind: str, m: int, k_needed: int, seed=None):
    """The horner or fft-batch stream under a first graph of right size m,
    which must divide its period, supplying min(k_needed, period)
    independence (no position subset outgrows the stream), rounded up to a
    power of two for fft-batch; from `seed`, or from zeros for the caller to
    fork.  Every refusal of the inner stream comes before any graph."""
    make = {"horner": HornerGenerator, "fft-batch": FftBatchGenerator}.get(kind)
    if make is None:
        raise ConfigError(f"unsupported inner kind {kind!r}")
    period = _poly_period(field, kind)
    if period % m:
        raise ConfigError(f"m={m} must divide the {kind} period {period}")
    k_inner = min(k_needed, period)
    if make is FftBatchGenerator:
        k_inner = _next_pow2(k_inner)
    return make(field, k_inner, (0,) * k_inner if seed is None else seed)


def _draw_seed(gen, rng: random.Random):
    """`gen` forked with a seed of `rng`'s next seed_len field elements."""
    return gen.fork([gen.field.random_element(rng) for _ in range(gen.descriptor.seed_len)])


def check_positive(**options):
    """Refuse an option below 1, naming it, before anything is sampled or
    allocated."""
    for name, value in options.items():
        if value < 1:
            raise ConfigError(f"need {name} >= 1, got --{name}={value}")


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
) -> ExpanderGenerator:
    """Build the inner generator of the requested kind, then sample (or
    accept) a (c, m, d) graph, compute its failure bound, and compose the
    two.  Without `seed`, the inner seed is drawn from `rng` after the
    graph."""
    check_positive(k=k, c=c, m=m, d=d)
    rng = rng or random.Random(0)
    inner = _make_inner(field, inner_kind, m, d * k, seed)
    if graph is None:
        graph = sample_graph(c, m, d, rng)
    elif (graph.c, graph.m, graph.d) != (c, m, d):
        raise ConfigError("supplied graph does not match (c, m, d)")
    if seed is None:
        inner = _draw_seed(inner, rng)
    delta = cascade_failure_bound(c, m, d, k, 1).delta
    return ExpanderGenerator(field, k, graph, inner, delta)


def build_cascade_generator(
    field,
    k: int,
    c: int,
    d: int,
    t: int,
    base_kind: str = "horner",
    rng: random.Random | None = None,
    m0: int | None = None,
) -> CascadeGenerator:
    """Cascade of t >= 1 sampled levels over a base generator.

    Level i is a (c, c^(i-1)*m0, d) graph with independence target
    d^(t-i)*k; the declared failure probability is `cascade_failure_bound`,
    the union-bound sum of the level bounds.
    """
    rng = rng or random.Random(0)
    if m0 is None:
        m0 = _poly_period(field, base_kind)
    check_positive(k=k, c=c, m=m0, d=d, t=t)
    check_graph_size(sum(c ** i * m0 * d for i in range(1, t + 1)), "cascade")
    base = _draw_seed(_make_inner(field, base_kind, m0, d ** t * k), rng)
    graphs = [sample_graph(c, c ** (i - 1) * m0, d, rng) for i in range(1, t + 1)]
    return CascadeGenerator(field, k, graphs, base, cascade_failure_bound(c, m0, d, k, t).delta)


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything that fixes a generator except its seed.  An expander needs
    c, m, d; a cascade needs c, d, t, and takes m as its first right size
    (the whole inner period when None); horner and fft-batch take none of
    the four.  `inner` is the polynomial kind under either sampled kind,
    and their graphs come from spawn_rng(graph_seed, "graph")."""

    kind: str
    field: object
    k: int
    c: int | None = None
    m: int | None = None
    d: int | None = None
    t: int | None = None
    inner: str = "fft-batch"
    graph_seed: int = 0


# the shape options each kind takes; all are required but a cascade's m
_SPEC_TAKES = {"horner": "", "fft-batch": "", "expander": "cmd", "cascade": "cmdt"}


def build(spec: GeneratorSpec):
    """The prototype generator of `spec`: every stream of the spec is
    `build(spec).fork(seed)` with `descriptor.seed_len` elements.  The
    prototype's own seed (zeros, or the builder's draw under a graph) is
    not meant to be emitted.  A missing shape parameter, or one the kind
    does not take, raises `ConfigError`; the builders refuse the rest before
    any graph is sampled."""
    takes = _SPEC_TAKES.get(spec.kind)
    if takes is None:
        raise ConfigError(f"unknown generator kind {spec.kind!r}")
    for name in "cmdt":
        given = getattr(spec, name) is not None
        if given and name not in takes:
            raise ConfigError(f"{spec.kind} kind takes no --{name}")
        if not given and name in takes and (spec.kind, name) != ("cascade", "m"):
            raise ConfigError(f"{spec.kind} kind needs --{name}")
    field, k = spec.field, spec.k
    if spec.kind == "horner":
        return HornerGenerator(field, k, (0,) * k)
    if spec.kind == "fft-batch":
        return FftBatchGenerator(field, k, (0,) * k)
    rng = spawn_rng(spec.graph_seed, "graph")
    if spec.kind == "expander":
        return build_expander_generator(field, k, spec.c, spec.m, spec.d,
                                        inner_kind=spec.inner, rng=rng)
    return build_cascade_generator(field, k, spec.c, spec.d, spec.t,
                                   base_kind=spec.inner, rng=rng, m0=spec.m)


# --------------------------------------------------------------------------
# Stream serialization
# --------------------------------------------------------------------------

def seed_to_hex(field, seed) -> str:
    width = 2 * field.elem_bytes
    return "".join(f"{s:0{width}x}" for s in seed)


def seed_from_int(field, seed_len: int, s: int) -> tuple[int, ...]:
    """The element seed that the integer `s` stands for: `seed_len` draws
    from random.Random(s)."""
    rng = random.Random(s)
    return tuple(field.random_element(rng) for _ in range(seed_len))


def seed_from_hex(field, text: str) -> tuple[int, ...]:
    clean = text.replace(":", "").replace(",", "").replace(" ", "")
    width = 2 * field.elem_bytes
    if not clean or len(clean) % width or not set(clean.lower()) <= set("0123456789abcdef"):
        raise ConfigError(
            f"hex seed must be a nonzero multiple of {width} hex digits for this field"
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


def _words_to_hex(values: np.ndarray, width: int) -> bytes:
    """One line per value: its low `width` lowercase hex digits, zero-padded,
    cut from the 16 digits of its big-endian uint64 bytes."""
    digits = np.frombuffer(values.astype(">u8").tobytes().hex().encode(), dtype=np.uint8)
    lines = np.empty((len(values), width + 1), dtype=np.uint8)
    lines[:, :width] = digits.reshape(-1, 16)[:, 16 - width:]
    lines[:, width] = ord("\n")
    return lines.tobytes()


def stream_chunks(gen, count: int):
    """The next `count` values of `gen` as uint64 arrays of up to 2^16
    values each; fewer values in all when the period runs out.

    Values are taken from `gen.fill` when it has one, else from
    `gen.emit_batch`; `gen.remaining`, when present, caps the count.  Every
    kgen generator has both; the fallbacks serve duck-typed wrappers, such
    as perfbench's replays, that have only `emit_batch`.
    """
    count = max(0, min(count, getattr(gen, "remaining", count)))
    fill = getattr(gen, "fill", None)
    while count > 0:
        n = min(_WRITE_CHUNK, count)
        yield fill(n) if fill is not None else np.array(gen.emit_batch(n), dtype=np.uint64)
        count -= n


def write_stream(gen, fh, count: int, header: bool = False, fmt: str = "bin"):
    """The next `count` values of `gen`, optionally preceded by its text
    descriptor line, in one of three formats: "bin", raw little-endian
    fixed-width words; "hex", one width-padded hex word a line; "csv",
    `index,value` lines under their column names.  Returns the number of
    values written (short only if the period runs out mid-stream).  One
    write per `stream_chunks` chunk.
    """
    if fmt not in ("bin", "hex", "csv"):
        raise ConfigError(f"unknown stream format {fmt!r}; use bin, hex or csv")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    elem_bytes = gen.field.elem_bytes
    if header:
        fh.write(gen.descriptor.header_line(gen.seed).encode())
    if fmt == "csv":
        fh.write(b"index,value\n")
    written = 0
    for values in stream_chunks(gen, count):
        if fmt == "bin":
            data = _words_to_bytes(values, elem_bytes)
        elif fmt == "hex":
            data = _words_to_hex(values, 2 * elem_bytes)
        else:  # the decimal columns vary in width, so csv formats per value
            data = "".join(f"{i},{v}\n" for i, v in enumerate(values.tolist(), written)).encode()
        fh.write(data)
        written += len(values)
    return written
