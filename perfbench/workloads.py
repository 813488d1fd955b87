"""The four benchmark workloads.

Each is a closed loop with one caller: the next call starts when the previous
one returns.  Inputs come only from the workload seed (the graph from
spawn_rng(seed, "graph"), generator seeds from spawn_rng(seed, ...)); kgen
receives the generated inputs and nothing else.  Every output is checked
against golden hashes (default seed, full scale) and against slices
re-derived from the exact oracles (any seed).

run.py drives a workload object as

    w = WORKLOADS[name](seed, smoke, fault)
    w.setup(tracer)                    # timed: field parse + builder/constructor
    r = w.run_op(i, units, tracer, between)   # the i-th seed's calls, checked

A stream workload's op forks one fresh seed and writes `units` refills or
batches in write_stream calls of `chunk` units each; the other workloads'
op is one call.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import product

from kgen import loadbalance
from kgen.analysis import exhaustive_independence_check
from kgen.entropy import spawn_rng
from kgen.fft import AdditiveFftPlan, CosetDftPlan
from kgen.field import find_primitive_element, parse_field_spec
from kgen.generator import (
    ExpanderGenerator,
    FftBatchGenerator,
    HornerGenerator,
    build_expander_generator,
    write_stream,
)
from kgen.poly import Polynomial, naive_multipoint

from golden import DEFAULT_SEED, expect
from tracing import TracedGenerator, TracedSink, traced_factory

FAULTS = ("flip", "seed")

_now = time.perf_counter


@dataclass
class Call:
    """One closed-loop call into kgen."""

    values: int     # generator values delivered
    units: int      # workload units completed (refills, batches, repetitions, checks)
    seeds: int      # fresh generator seeds driven to completion
    seconds: float
    end: float      # time.perf_counter() when the call returned


@dataclass
class OpResult:
    calls: list[Call]
    fork_s: float | None   # stream workloads: time to fork the fresh seed
    digest: str            # sha256 of the op's output
    errors: list[str] = dc_field(default_factory=list)


class CollectSink:
    """Null sink for write_stream that keeps the bytes for the check."""

    def __init__(self):
        self.buf = bytearray()

    def write(self, data: bytes):
        self.buf += data


def _elements(field, n: int, rng) -> tuple[int, ...]:
    return tuple(field.random_element(rng) for _ in range(n))


class Workload:
    name = ""
    why = ""
    FULL: dict = {}
    SMOKE: dict = {}

    def __init__(self, seed: int, smoke: bool = False, fault: str | None = None):
        self.seed = seed
        self.smoke = smoke
        self.cfg = self.SMOKE if smoke else self.FULL
        self.fault = fault
        self.input_field = parse_field_spec(self.cfg["field"])
        self.gen = None

    def _parse(self, tracer):
        spec = self.cfg["field"]
        return tracer.call("field.parse", parse_field_spec, spec) if tracer \
            else parse_field_spec(spec)

    def _golden(self, i: int, units: int, digest: str) -> list[str]:
        """Golden check of op 0 at the default seed and full scale."""
        if self.smoke or self.seed != DEFAULT_SEED or i != 0 or units != self.cfg["units"]:
            return []
        return expect(f"workload/{self.name}/op0", digest)

    def startup_argv(self) -> list[str]:
        """`kgen gen` arguments that build this workload's generator."""
        raise NotImplementedError

    def startup_bytes(self) -> int:
        return self.input_field.elem_bytes


class _Stream(Workload):
    """Fork a fresh seed, then write_stream its values in chunks to a sink."""

    seed_len = 0
    chunk_values = 0

    def wrong_seed(self, seed):
        raise NotImplementedError

    def check(self, i, seed, buf, units) -> list[str]:
        raise NotImplementedError

    def run_op(self, i: int, units: int, tracer=None, between=None) -> OpResult:
        """`between()`, when given, runs before each write_stream call,
        outside the timed regions (the other workloads: before their call)."""
        chunk = min(self.cfg["chunk"], units)
        between = between or (lambda: None)
        seed = _elements(self.input_field, self.seed_len, spawn_rng(self.seed, "stream", i))
        given = self.wrong_seed(seed) if self.fault == "seed" and i == 0 else seed
        sink = CollectSink()
        calls = []
        if tracer is None:
            t0 = _now()
            gen = self.gen.fork(given)
            fork_s = _now() - t0
            for _ in range(units // chunk):
                between()
                t0 = _now()
                n = write_stream(gen, sink, chunk * self.chunk_values)
                t1 = _now()
                calls.append(Call(n, chunk, 0, t1 - t0, t1))
        else:
            root = tracer.begin("op")
            t0 = _now()
            gen = tracer.call("fork", self.gen.fork, given)
            fork_s = _now() - t0
            traced_sink = TracedSink(sink, tracer)
            for _ in range(units // chunk):
                t0 = _now()
                n = tracer.call("write_stream", write_stream, gen, traced_sink,
                                chunk * self.chunk_values)
                t1 = _now()
                calls.append(Call(n, chunk, 0, t1 - t0, t1))
            tracer.end(root)
        buf = sink.buf
        if self.fault == "flip" and i == 0:
            buf[spawn_rng(self.seed, "flip").randrange(len(buf))] ^= 0xFF
        digest = hashlib.sha256(buf).hexdigest()
        count = units * self.chunk_values
        written = sum(c.values for c in calls)
        errors = [] if written == count else [f"wrote {written} of {count} values"]
        errors += self._golden(i, units, digest)
        eb = self.input_field.elem_bytes
        if len(buf) != count * eb:
            errors.append(f"stream has {len(buf)} bytes, want {count * eb}")
        else:
            errors += self.check(i, seed, buf, units)
        return OpResult(calls, fork_s, digest, errors)

    def _value_at(self, buf, x: int) -> int:
        eb = self.input_field.elem_bytes
        return int.from_bytes(buf[x * eb:(x + 1) * eb], "little")


# --------------------------------------------------------------------------
# stream-expander
# --------------------------------------------------------------------------

class StreamExpander(_Stream):
    name = "stream-expander"
    why = ("the paper's fast path: gather loop over a sampled graph, coset-DFT "
           "refills every c*m values, set-up dominated by graph sampling")
    # units: refills per seed; chunk: refills per write_stream call;
    # check: output positions re-derived per seed (None: all of them)
    FULL = dict(field="gfp:2013265921", k=1024, c=16, m=8192, d=8,
                units=8, chunk=1, trace_units=1, check=8)
    SMOKE = dict(field="gfp:2013265921", k=64, c=4, m=1024, d=4,
                 units=2, chunk=1, trace_units=1, check=None)

    def __init__(self, seed, smoke=False, fault=None):
        super().__init__(seed, smoke, fault)
        cfg = self.cfg
        self.seed_len = 1 << (cfg["d"] * cfg["k"] - 1).bit_length()
        self.chunk_values = cfg["c"] * cfg["m"]
        self.setup_seed = _elements(self.input_field, self.seed_len,
                                    spawn_rng(seed, "setup-seed"))
        self.omega = find_primitive_element(self.input_field)

    def wrong_seed(self, seed):
        return ((seed[0] + 1) % self.input_field.p,) + seed[1:]

    def setup(self, tracer=None):
        cfg = self.cfg
        field = self._parse(tracer)
        args = (field, cfg["k"], cfg["c"], cfg["m"], cfg["d"], "fft-batch")
        kw = dict(rng=spawn_rng(self.seed, "graph"), seed=self.setup_seed)
        if tracer is None:
            self.gen = build_expander_generator(*args, **kw)
            return
        built = tracer.call("builder", build_expander_generator, *args, **kw)
        self.gen = ExpanderGenerator(
            field, cfg["k"], built.graph,
            TracedGenerator(built.inner, tracer, "inner"), built.descriptor.delta,
        )

    def check(self, i, seed, buf, units) -> list[str]:
        """Re-derive sampled outputs: each is the field sum, over the graph's
        adjacency row, of inner values computed by naive multipoint
        evaluation at the inner coset's points."""
        field = self.input_field
        count = units * self.chunk_values
        n = self.cfg["check"]
        positions = range(count) if n is None else \
            sorted(spawn_rng(self.seed, "check", i).sample(range(count), n))
        m, kin = self.cfg["m"], self.seed_len
        adjacency = self.gen.graph.adjacency

        def inner_pos(x, y):  # (coset, offset) of the inner value behind edge (x, y)
            return divmod(x // self.chunk_values * m + y, kin)

        wanted: dict[int, set[int]] = {}
        for x in positions:
            for y in adjacency[x % self.chunk_values]:
                j, off = inner_pos(x, y)
                wanted.setdefault(j, set()).add(off)
        poly = Polynomial(field, seed)
        inner: dict[tuple[int, int], int] = {}
        for j, offs in wanted.items():
            plan = CosetDftPlan(field, kin, self.omega)
            for _ in range(j):
                plan.advance_coset()
            points = plan.coset_points()
            offs = sorted(offs)
            for off, v in zip(offs, naive_multipoint(poly, [points[o] for o in offs])):
                inner[j, off] = v
        errors = []
        for x in positions:
            want = 0
            for y in adjacency[x % self.chunk_values]:
                want = field.add(want, inner[inner_pos(x, y)])
            got = self._value_at(buf, x)
            if got != want:
                errors.append(f"position {x}: got {got}, oracle {want}")
        return errors

    def startup_argv(self):
        c = self.cfg
        return ["gen", "--field", c["field"], "--kind", "expander", "--k", str(c["k"]),
                "--c", str(c["c"]), "--m", str(c["m"]), "--d", str(c["d"]),
                "--inner", "fft-batch"]


# --------------------------------------------------------------------------
# stream-fft-gf2w
# --------------------------------------------------------------------------

class StreamFftGf2w(_Stream):
    name = "stream-fft-gf2w"
    why = ("exact kind over a binary field: additive FFT and scalar GF(2^64) "
           "multiply; no graph, no GF(p), negligible set-up")
    # units: batches per seed; chunk: batches per write_stream call;
    # check: batches re-derived per seed (None: all of them)
    FULL = dict(field="gf2w:64", k=256, units=100, chunk=2, trace_units=40, check=1)
    SMOKE = dict(field="gf2w:64", k=16, units=8, chunk=2, trace_units=4, check=None)

    def __init__(self, seed, smoke=False, fault=None):
        super().__init__(seed, smoke, fault)
        self.seed_len = self.cfg["k"]
        self.s = (self.cfg["k"] - 1).bit_length()
        self.chunk_values = 1 << self.s
        self.setup_seed = _elements(self.input_field, self.seed_len,
                                    spawn_rng(seed, "setup-seed"))

    def wrong_seed(self, seed):
        return (seed[0] ^ 1,) + seed[1:]

    def setup(self, tracer=None):
        field = self._parse(tracer)
        if tracer is None:
            self.gen = FftBatchGenerator(field, self.cfg["k"], self.setup_seed)
        else:
            self.gen = tracer.call("builder", FftBatchGenerator, field,
                                   self.cfg["k"], self.setup_seed)

    def check(self, i, seed, buf, units) -> list[str]:
        """Re-derive sampled batches by naive multipoint evaluation at the
        additive plan's points; batch j sits at the Gray code of j shifted
        above the s subspace bits."""
        n = self.cfg["check"]
        batches = range(units) if n is None else \
            sorted(spawn_rng(self.seed, "check", i).sample(range(units), n))
        plan = AdditiveFftPlan(self.input_field, self.s)
        poly = Polynomial(self.input_field, seed)
        errors = []
        for j in batches:
            want = naive_multipoint(poly, plan.points((j ^ (j >> 1)) << self.s))
            for b, v in enumerate(want):
                x = j * self.chunk_values + b
                got = self._value_at(buf, x)
                if got != v:
                    errors.append(f"position {x}: got {got}, oracle {v}")
        return errors

    def startup_argv(self):
        c = self.cfg
        return ["gen", "--field", c["field"], "--kind", "fft-batch", "--k", str(c["k"])]


# --------------------------------------------------------------------------
# loadbalance-burst
# --------------------------------------------------------------------------

class _FlipOne:
    """Generator whose `at`-th emitted value has its low byte flipped."""

    def __init__(self, gen, at: int):
        self._gen = gen
        self._at = at
        self._n = 0
        self.field = gen.field

    def emit(self):
        v = self._gen.emit()
        self._n += 1
        return v ^ 0xFF if self._n - 1 == self._at else v


class LoadbalanceBurst(Workload):
    name = "loadbalance-burst"
    why = ("the paper's application: thousands of short fft-batch streams over "
           "GF(2^16), each paying generator and plan construction for 80 values")
    # units: repetitions per call; check: repetitions re-derived per call
    FULL = dict(field="gf2w:16", k=128, tasks=80, m=8, b=16, eps=0.5,
                units=10, trace_units=200, check=1)
    SMOKE = dict(field="gf2w:16", k=128, tasks=80, m=8, b=16, eps=0.5,
                 units=10, trace_units=10, check=None)

    def _coeffs(self, field, s: int):
        return _elements(field, self.cfg["k"], spawn_rng(self.seed, "generator", s))

    def setup(self, tracer=None):
        cfg = self.cfg
        self.field = self._parse(tracer)
        self.tasks = loadbalance.burst_workload(cfg["tasks"])
        loadbalance.total_load_peak(self.tasks)
        first = self._coeffs(self.field, 0)
        if tracer is None:
            self.gen = FftBatchGenerator(self.field, cfg["k"], first)
        else:
            self.gen = tracer.call("builder", FftBatchGenerator, self.field, cfg["k"], first)

    def run_op(self, i: int, units: int, tracer=None, between=None) -> OpResult:
        cfg = self.cfg
        field, k = self.field, cfg["k"]
        flip = None
        if self.fault == "flip" and i == 0:
            frng = spawn_rng(self.seed, "flip")
            flip = (frng.randrange(units), frng.randrange(cfg["tasks"]))
        made = [0]

        def make(s):
            if self.fault == "seed" and i == 0:
                s ^= 1
            gen = FftBatchGenerator(field, k, self._coeffs(field, s))
            if flip is not None and made[0] == flip[0]:
                gen = _FlipOne(gen, flip[1])
            made[0] += 1
            return gen

        run = loadbalance.run_experiment
        if between is not None:
            between()
        if tracer is not None:
            make = traced_factory(make, tracer)
            run = partial(tracer.call, "run_experiment", run)
            root = tracer.begin("op")
        t0 = _now()
        res = run(self.tasks, cfg["m"], cfg["b"], cfg["eps"], make, units,
                  spawn_rng(self.seed, "experiment", i), keep_results=True)
        t1 = _now()
        if tracer is not None:
            tracer.end(root)
        digest = hashlib.sha256(repr(
            [(s, r.per_machine_peak) for s, r in zip(res.seeds, res.results)]
        ).encode()).hexdigest()
        errors = self._golden(i, units, digest)
        errors += self.check(i, res, units)
        return OpResult([Call(units * cfg["tasks"], units, units, t1 - t0, t1)], None,
                        digest, errors)

    def check(self, i, res, units) -> list[str]:
        """Re-derive sampled repetitions: the first `tasks` values of the
        seed's polynomial at the additive plan's points, mod m, counted per
        machine (every task of a burst overlaps every other)."""
        cfg = self.cfg
        if res.runs != units or len(res.results) != units:
            return [f"experiment ran {res.runs} of {units} repetitions"]
        errors = []
        overflows = sum(bool(r.overflowed) for r in res.results)
        if overflows != res.overflows:
            errors.append(f"overflow count {res.overflows} != {overflows}")
        n = cfg["check"]
        reps = range(units) if n is None else \
            sorted(spawn_rng(self.seed, "check", i).sample(range(units), n))
        field = self.input_field
        s = (cfg["k"] - 1).bit_length()
        points = AdditiveFftPlan(field, s).points(0)[:cfg["tasks"]]
        for r in reps:
            values = naive_multipoint(Polynomial(field, self._coeffs(field, res.seeds[r])),
                                      points)
            peaks = [0] * cfg["m"]
            for v in values:
                peaks[v % cfg["m"]] += 1
            got = res.results[r]
            want = (tuple(peaks), max(peaks), max(peaks) > cfg["b"])
            if (got.per_machine_peak, got.global_peak, got.overflowed) != want:
                errors.append(f"repetition {r}: got {got.per_machine_peak}, oracle {want[0]}")
        return errors

    def startup_argv(self):
        c = self.cfg
        return ["gen", "--field", c["field"], "--kind", "fft-batch", "--k", str(c["k"])]


# --------------------------------------------------------------------------
# verify-exhaustive
# --------------------------------------------------------------------------

class _Record:
    """Generator whose emit_batch output is kept (and optionally one value
    altered) for the sampled-seed check."""

    def __init__(self, gen, store: list, flip_at: int | None):
        self._gen = gen
        self._store = store
        self._flip_at = flip_at

    def emit_batch(self, count: int):
        out = self._gen.emit_batch(count)
        if self._flip_at is not None:
            out[self._flip_at] = (out[self._flip_at] ^ 1) % self._gen.field.order
        self._store.append(out)
        return out


class VerifyExhaustive(Workload):
    name = "verify-exhaustive"
    why = ("the exact oracle: enumerates every Horner seed through analysis "
           "and poly.horner_eval; the only workload in the analysis module")
    # units: whole checks per call (always 1); check: seeds re-derived per call.
    # k=3 rather than 4: one k=4 check (28561 seeds) takes 6-9 s, too few per
    # run for a steady median; at k=3 (2197 seeds, the same n and 200
    # position subsets) materialization and counting keep their balance,
    # since both grow with the number of seeds.
    FULL = dict(field="gfp:13", k=3, n=13, units=1, trace_units=1, check=16)
    SMOKE = dict(field="gfp:5", k=3, n=5, units=1, trace_units=1, check=None)

    def setup(self, tracer=None):
        self.field = self._parse(tracer)
        first = (0,) * self.cfg["k"]
        if tracer is None:
            self.gen = HornerGenerator(self.field, self.cfg["k"], first)
        else:
            self.gen = tracer.call("builder", HornerGenerator, self.field,
                                   self.cfg["k"], first)

    def run_op(self, i: int, units: int, tracer=None, between=None) -> OpResult:
        """One whole exhaustive check (units is always 1)."""
        cfg = self.cfg
        field, k, n = self.field, cfg["k"], cfg["n"]
        n_seeds = field.order ** k
        rng = spawn_rng(self.seed, "check", i)
        sampled = list(product(range(field.order), repeat=k)) if cfg["check"] is None else \
            [tuple(rng.randrange(field.order) for _ in range(k)) for _ in range(cfg["check"])]
        records = {s: [] for s in sampled}
        flip = None
        if self.fault == "flip" and i == 0:
            flip = (sampled[rng.randrange(len(sampled))], rng.randrange(n))

        def make(s):
            given = s
            if self.fault == "seed" and i == 0:
                given = ((s[0] + 1) % field.order,) + s[1:]
            gen = HornerGenerator(field, k, given)
            store = records.get(s)
            if store is None:
                return gen
            return _Record(gen, store, flip[1] if flip and flip[0] == s else None)

        check = exhaustive_independence_check
        if between is not None:
            between()
        if tracer is not None:
            make = traced_factory(make, tracer)
            check = partial(tracer.call, "exhaustive_independence_check", check)
            root = tracer.begin("op")
        t0 = _now()
        report = check(make, field, k, k, n)
        t1 = _now()
        if tracer is not None:
            tracer.end(root)
        digest = hashlib.sha256(report.to_line().encode()).hexdigest()
        errors = self._golden(i, units, digest)
        errors += self.check(report, records)
        return OpResult([Call(n_seeds * n, 1, n_seeds, t1 - t0, t1)], None, digest, errors)

    def check(self, report, records) -> list[str]:
        """Exact pass on every examined position subset, and sampled seeds'
        streams equal to sum a_i x^i mod p computed directly."""
        cfg = self.cfg
        errors = []
        subsets = min(math.comb(cfg["n"], cfg["k"]), 200)
        if report.verdict != "exact-pass" or report.positions_examined != subsets:
            errors.append(f"check reported {report.to_line()}")
        p = self.input_field.order
        for s, streams in records.items():
            want = [sum(a * pow(x, e, p) for e, a in enumerate(s)) % p
                    for x in range(cfg["n"])]
            if not streams or any(got != want for got in streams):
                errors.append(f"seed {s}: streams {streams}, oracle {want}")
        return errors

    def startup_argv(self):
        c = self.cfg
        return ["gen", "--field", c["field"], "--kind", "horner", "--k", str(c["k"])]


WORKLOADS = {w.name: w for w in (StreamExpander, StreamFftGf2w, LoadbalanceBurst,
                                 VerifyExhaustive)}
