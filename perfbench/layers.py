"""Per-layer measurements, one function per kgen module, run in every traced
run.  Each takes its inputs from the workload seed and returns
{metric name: (value, unit)}; the README maps every metric to the end-to-end
metric and workload it should move.

Span-derived numbers (refill, gather, write, materialize share) come from
probes that hand kgen the same wrapper objects the traced workloads use.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from kgen import analysis, loadbalance
from kgen.entropy import spawn_rng
from kgen.expander import TimeModel, rank_failure_bound, sample_graph
from kgen.fft import AdditiveFftPlan, CosetDftPlan
from kgen.field import find_primitive_element, parse_field_spec
from kgen.generator import (
    ExpanderGenerator,
    FftBatchGenerator,
    HornerGenerator,
    build_expander_generator,
    write_stream,
)
from kgen.poly import Polynomial, horner_eval

from tracing import TracedGenerator, Tracer, traced_factory
from workloads import CollectSink

GFP = "gfp:2013265921"
_ns = time.perf_counter_ns

# The expander layers are measured at stream-expander's (c, m, d, k) and the
# analysis layer at verify-exhaustive's check; the smoke scale shrinks only
# what costs seconds.
FULL = dict(c=16, m=8192, d=8, k=1024, coset=8192, verify=("gfp:13", 3, 13))
SMOKE = dict(c=4, m=1024, d=4, k=64, coset=1024, verify=("gfp:3", 3, 3))


def _median_ns(fn, per: int, reps: int = 5) -> float:
    """Median over `reps` runs of fn() of its time divided by `per`, in ns."""
    samples = []
    for _ in range(reps):
        t0 = _ns()
        fn()
        samples.append((_ns() - t0) / per)
    return statistics.median(samples)


def _elements(field, n, rng):
    return [field.random_element(rng) for _ in range(n)]


def field_layer(seed):
    out = {}
    rng = spawn_rng(seed, "layers", "field")
    for name, spec, n in (("gf2w64", "gf2w:64", 2000), ("gf2w16", "gf2w:16", 20000),
                          ("gfp", GFP, 20000)):
        f = parse_field_spec(spec)
        pairs = [(f.random_element(rng), f.random_element(rng)) for _ in range(n)]
        mul = f.mul
        out[f"field.{name}_mul_ns"] = (
            _median_ns(lambda: [mul(a, b) for a, b in pairs], n), "ns")
    f = parse_field_spec("gf2w:64")
    lanes = 1 << 16
    a = np.frombuffer(rng.randbytes(8 * lanes), dtype=np.uint64).copy()
    b = np.frombuffer(rng.randbytes(8 * lanes), dtype=np.uint64).copy()
    out["field.gf2w64_mul_vec_ns_per_lane"] = (
        _median_ns(lambda: f.mul_vec(a, b), lanes, reps=3), "ns")
    fp = parse_field_spec(GFP)
    xs = _elements(fp, 20000, rng)
    to_bytes = fp.to_bytes
    out["field.to_bytes_ns"] = (_median_ns(lambda: [to_bytes(x) for x in xs], len(xs)), "ns")
    return out


def poly_layer(seed):
    f = parse_field_spec("gfp:13")
    h = Polynomial(f, tuple(_elements(f, 3, spawn_rng(seed, "layers", "poly"))))
    xs = list(range(13)) * 500
    return {"poly.horner_eval_ns": (
        _median_ns(lambda: [horner_eval(h, x) for x in xs], len(xs)), "ns")}


def fft_layer(seed, scale):
    rng = spawn_rng(seed, "layers", "fft")
    out = {}
    f64 = parse_field_spec("gf2w:64")
    plan64 = AdditiveFftPlan(f64, 8)
    c64 = _elements(f64, 256, rng)
    out["fft.additive64_ns_per_point"] = (
        _median_ns(lambda: plan64.evaluate(c64, 1 << 8), 256, reps=3), "ns")
    counted = AdditiveFftPlan(f64, 8)
    counted.count_ops = True
    counted.evaluate(c64, 1 << 8)
    out["fft.additive64_muls_per_point"] = (counted.op_counts["mul"] / 256, "count")
    f16 = parse_field_spec("gf2w:16")
    plan16 = AdditiveFftPlan(f16, 7)
    c16 = _elements(f16, 128, rng)
    out["fft.additive16_ns_per_point"] = (
        _median_ns(lambda: [plan16.evaluate(c16) for _ in range(10)], 1280), "ns")
    out["fft.additive_plan_build_us"] = (
        _median_ns(lambda: [AdditiveFftPlan(f16, 7) for _ in range(10)], 10) / 1e3, "us")
    fp = parse_field_spec(GFP)
    n = scale["coset"]
    coset = CosetDftPlan(fp, n, find_primitive_element(fp))
    cp = _elements(fp, n, rng)
    out["fft.coset_ns_per_point"] = (
        _median_ns(lambda: coset.evaluate_coset(cp), n, reps=3), "ns")
    return out


def expander_layer(seed, scale):
    """Graph sampling and bound, then the stream probe on that graph:
    refills through a traced inner generator, the gather loop around them,
    and write_stream against emit_batch for the same count."""
    c, m, d, k = scale["c"], scale["m"], scale["d"], scale["k"]
    out = {}
    times = []
    for _ in range(2):
        t0 = _ns()
        sample_graph(c, m, d, spawn_rng(seed, "graph"))
        times.append((_ns() - t0) / 1e9)
    out["expander.sample_graph_s"] = (statistics.median(times), "s")
    out["expander.rank_failure_bound_ms"] = (
        _median_ns(lambda: rank_failure_bound(c, m, d, k), 1) / 1e6, "ms")
    tracemalloc.start()
    graph = sample_graph(c, m, d, spawn_rng(seed, "graph"))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out["expander.graph_mib"] = (peak / 2 ** 20, "MiB")

    fp = parse_field_spec(GFP)
    rng = spawn_rng(seed, "layers", "expander")
    gen = build_expander_generator(fp, k, c, m, d, "fft-batch", graph=graph)
    seed_len = gen.descriptor.seed_len
    count = c * m
    tracer = Tracer()
    traced = ExpanderGenerator(fp, k, graph, TracedGenerator(gen.inner, tracer, "inner"),
                               gen.descriptor.delta)
    refill_s, gather_s, write_s, errors = [], [], [], []
    for _ in range(3):
        s = _elements(fp, seed_len, rng)
        tracer.spans.clear()
        probe = traced.fork(s)
        t0 = _ns()
        values = probe.emit_batch(count)
        emit = (_ns() - t0) / 1e9
        refill_s.append(tracer.total_s("inner.emit_batch"))
        gather_s.append(emit - refill_s[-1])
        sink = CollectSink()
        write_stream(gen.fork(s), sink, count)
        if bytes(sink.buf) != b"".join(fp.to_bytes(v) for v in values):
            errors.append("expander probe: write_stream bytes differ from emit_batch")
        # write_stream's own cost (to_bytes, sink write, loop) is about a tenth
        # of an expander emit, below the run-to-run noise of timing both on
        # the expander, so it is timed on a replay of the same values.
        t0 = _ns()
        _Replay(fp, values).emit_batch(count)
        t1 = _ns()
        write_stream(_Replay(fp, values), CollectSink(), count)
        write_s.append((_ns() - t1 - (t1 - t0)) / 1e9)
    out["generator.refills"] = (tracer.count("inner.emit_batch"), "count")
    out["generator.refill_ns_per_value"] = (statistics.median(refill_s) / count * 1e9, "ns")
    out["generator.gather_ns_per_value"] = (statistics.median(gather_s) / count * 1e9, "ns")
    out["generator.write_ns_per_value"] = (statistics.median(write_s) / count * 1e9, "ns")
    return out, errors


class _Replay:
    """Generator that hands out precomputed values, so that write_stream's own
    cost is not buried under the cost of computing them."""

    def __init__(self, field, values):
        self.field = field
        self.emit = iter(values).__next__

    def emit_batch(self, count: int):
        return [self.emit() for _ in range(count)]


def generator_layer(seed):
    rng = spawn_rng(seed, "layers", "generator")
    f64 = parse_field_spec("gf2w:64")
    gens = [FftBatchGenerator(f64, 256, _elements(f64, 256, rng)) for _ in range(3)]
    it = iter(gens)
    f16 = parse_field_spec("gf2w:16")
    s16 = _elements(f16, 128, rng)
    return {
        "generator.batch_ns_per_value": (
            _median_ns(lambda: next(it).emit_batch(1024), 1024, reps=3), "ns"),
        "generator.init_us": (
            _median_ns(lambda: [FftBatchGenerator(f16, 128, s16) for _ in range(10)], 10)
            / 1e3, "us"),
    }


def loadbalance_layer(seed):
    rng = spawn_rng(seed, "layers", "loadbalance")
    f16 = parse_field_spec("gf2w:16")
    tasks = loadbalance.burst_workload(80)
    gens = [FftBatchGenerator(f16, 128, _elements(f16, 128, rng)) for _ in range(20)]
    it = iter(gens)
    assignment = []
    assign_us = _median_ns(lambda: assignment.append(loadbalance.assign(tasks, 8, next(it))),
                           1e3, reps=len(gens))
    return {
        "loadbalance.assign_us": (assign_us, "us"),
        "loadbalance.peak_loads_us": (
            _median_ns(lambda: [loadbalance.peak_loads(tasks, a, 8, 16) for a in assignment],
                       len(assignment)) / 1e3, "us"),
    }


def analysis_layer(scale):
    """Share of an exhaustive check's wall time inside the traced factory
    and the emit_batch of what it returns; the rest is counting."""
    spec, k, n = scale["verify"]
    f = parse_field_spec(spec)
    tracer = Tracer()
    make = traced_factory(lambda s: HornerGenerator(f, k, s), tracer)
    t0 = _ns()
    report = analysis.exhaustive_independence_check(make, f, k, k, n)
    wall = (_ns() - t0) / 1e9
    inside = tracer.total_s("factory") + tracer.total_s("generator.emit_batch")
    errors = [] if report.verdict == "exact-pass" else [f"analysis probe: {report.to_line()}"]
    return {"analysis.materialize_share": (inside / wall, "share")}, errors


def cli_layer(root):
    """Fresh-interpreter import of kgen.cli, and scipy.stats' share of it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import kgen.cli"]
    times = []
    for _ in range(3):
        t0 = _ns()
        subprocess.run(cmd, env=env, cwd=root, check=True, timeout=120)
        times.append((_ns() - t0) / 1e9)
    proc = subprocess.run([sys.executable, "-X", "importtime", *cmd[1:]], env=env,
                          cwd=root, check=True, timeout=120, capture_output=True, text=True)
    scipy_us = 0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.stats$", line.strip())
        if match:
            scipy_us = int(match.group(1))
    return {"cli.import_s": (statistics.median(times), "s"),
            "cli.import_scipy_s": (scipy_us / 1e6, "s")}


def measure_layers(seed, root, smoke=False):
    """All per-layer metrics, plus correctness errors from the probes."""
    scale = SMOKE if smoke else FULL
    metrics = {}
    metrics.update(field_layer(seed))
    metrics.update(poly_layer(seed))
    metrics.update(fft_layer(seed, scale))
    exp, errors = expander_layer(seed, scale)
    metrics.update(exp)
    metrics.update(generator_layer(seed))
    metrics.update(loadbalance_layer(seed))
    ana, more = analysis_layer(scale)
    metrics.update(ana)
    errors += more
    metrics.update(cli_layer(root))
    return metrics, errors


def calibration(metrics) -> list[str]:
    """Measured costs at stream-expander's scale next to what
    expander.TimeModel predicts, in its units: ns per random table access
    and FFT ns per value."""
    c, m, d, k = FULL["c"], FULL["m"], FULL["d"], FULL["k"]
    model = TimeModel()
    lookup = metrics["generator.gather_ns_per_value"][0] / d
    fft = metrics["fft.coset_ns_per_point"][0]
    total = metrics["generator.gather_ns_per_value"][0] + \
        metrics["generator.refill_ns_per_value"][0]
    return [
        f"lookup_ns m={m}: measured {lookup:.1f}  TimeModel.lookup_ns {model.lookup_ns(m):.1f}",
        f"fft_ns n={FULL['coset']}: measured {fft:.1f}  "
        f"TimeModel.fft_ns {model.fft_ns(FULL['coset']):.1f}",
        f"ns/value (c={c}, m={m}, d={d}, k={k}): measured {total:.1f}  "
        f"TimeModel.predict {model.predict(c, m, d, k):.1f}",
    ]
