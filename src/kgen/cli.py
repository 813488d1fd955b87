"""Command line surface: stream emission, parameter search, exact
independence verification by rank over the field, benchmarking and
load-balance experiments.

Exit codes: 0 success/pass, 1 fail verdict, 2 invalid configuration,
3 brute-force, rank or size guard exceeded.  A refused command prints
nothing on stdout: every check runs before the first line is written.
A command whose reader closes the pipe early (`kgen gen ... | head`)
stops writing and exits 0 without a word.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

from . import analysis, bench, loadbalance
from .entropy import fresh_seed, spawn_rng
from .errors import ConfigError, GuardExceeded, PeriodExhausted
from .expander import search_parameters
from .field import parse_field_spec
from .generator import (
    GeneratorSpec,
    build,
    check_positive,
    seed_from_hex,
    seed_from_int,
    write_stream,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _parse_int_list(text: str) -> list[int]:
    return [int(x, 0) for x in text.split(",") if x]


def _need_ks(ks: list[int]) -> list[int]:
    """Refuse an empty --k list, which would run nothing."""
    if not ks:
        raise ConfigError("--k needs at least one value")
    return ks


def _build(args, k: int | None = None):
    """The prototype of the generator the common options describe, with
    independence `k` in place of --k when given."""
    return build(GeneratorSpec(
        args.kind, parse_field_spec(args.field), args.k if k is None else k, args.c, args.m,
        args.d, args.t, args.inner, args.graph_seed,
    ))


def _seed_elements(args, field, length: int):
    """Element seed from --seed hex, or `length` elements drawn for
    --entropy (the header of an entropy run records it for replay)."""
    if args.seed is not None:
        return seed_from_hex(field, args.seed)
    if not args.entropy:
        raise ConfigError("provide --seed HEX or --entropy")
    return seed_from_int(field, length, fresh_seed())


def _open_out(args):
    if args.out and args.out != "-":
        return open(args.out, "wb"), True
    return sys.stdout.buffer, False


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

def cmd_gen(args) -> int:
    proto = _build(args)
    gen = proto.fork(_seed_elements(args, proto.field, proto.descriptor.seed_len))
    fh, close = _open_out(args)
    try:
        emitted = write_stream(gen, fh, args.count, header=args.header, fmt=args.format)
        fh.flush()
    finally:
        if close:
            fh.close()
    if emitted < args.count:
        print(f"period exhausted after {emitted} values", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

def cmd_search(args) -> int:
    results = [(k, search_parameters(k, args.c, args.d, args.delta))
               for k in _need_ks(args.k)]
    print("k,c,log2_m,d,log10_delta,predicted_ns")
    any_feasible = False
    for k, result in results:
        rows = result.rows if args.full else (
            (result.winner,) if result.winner else ()
        )
        for row in rows:
            if row.feasible:
                any_feasible = True
                print(f"{k},{row.c},{row.m.bit_length() - 1},{row.d},"
                      f"{row.log10_delta:.3f},{row.predicted_ns:.1f}")
            else:
                print(f"{k},{row.c},,{row.d},,")
        if not result.winner:
            print(f"# k={k}: no feasible (c, m, d) within the grid", file=sys.stderr)
    return EXIT_OK if any_feasible else EXIT_FAIL


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

def cmd_bench(args) -> int:
    field = parse_field_spec(args.field)
    check_positive(values=args.values, reps=args.reps)
    kinds = args.kinds.split(",")
    for kind in kinds:  # a cascade would need a --t that bench does not take
        if kind not in ("horner", "fft-batch", "expander"):
            raise ConfigError(f"bench times horner, fft-batch and expander, not {kind!r}")
    # every prototype is built, and timed, before the header is printed:
    # setup_s is the median of --reps builds after one untimed warmup build,
    # which pays the first touch of fresh pages and numpy.random's import
    protos = []
    for k in _need_ks(args.k):
        for kind in kinds:
            shape = dict(c=args.c, m=args.m, d=args.d) if kind == "expander" else {}
            spec = GeneratorSpec(kind, field, k, **shape, graph_seed=args.graph_seed)
            proto = build(spec)
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                build(spec)
                times.append(time.perf_counter() - t0)
            protos.append((k, kind, proto, statistics.median(times)))
    print("k,kind,setup_s,ns_per_value,inner_ns,lookup_ns")
    for k, kind, proto, setup_s in protos:
        seed = seed_from_int(field, proto.descriptor.seed_len, args.graph_seed)
        make = lambda: proto.fork(seed)
        period = proto.descriptor.period
        if kind == "expander":
            # at most the c*max(m, inner batch) outputs one inner batch feeds
            g = proto.graph
            cycle = g.c * max(g.m, proto.inner.batch_size)
            split = bench.measure_expander_split(make, min(args.values, period, cycle),
                                                 args.reps)
            cols = f"{split.total_ns:.1f},{split.inner_ns:.1f},{split.lookup_ns:.1f}"
        else:
            # whole fft-batch batches, at least one
            batch = getattr(proto, "batch_size", 1)
            values = min(max(args.values, batch), period)
            values -= values % batch
            cols = f"{bench.measure_ns_per_value(make, values, args.reps):.1f},,"
        print(f"{k},{kind},{setup_s:.4f},{cols}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.seedlen is not None:
        check_positive(seedlen=args.seedlen)
    proto = _build(args, args.seedlen)
    n = args.n
    if n is None:
        # the positions that --max-positions lexicographic k-subsets reach
        n = min(proto.descriptor.period, args.k - 1 + args.max_positions)
    report = analysis.rank_independence_check(
        proto.fork, proto.field, proto.descriptor.seed_len, args.k, n, args.max_positions)
    print(report.to_line())
    return EXIT_OK if report.passed else EXIT_FAIL


# --------------------------------------------------------------------------
# loadbalance
# --------------------------------------------------------------------------

def _parse_workload(spec: str, rng: random.Random):
    name, _, arg = spec.partition(":")
    try:
        if name == "burst":
            return loadbalance.burst_workload(int(arg))
        if name == "poisson":
            parts = dict(kv.split("=") for kv in arg.split(";"))
            return loadbalance.poisson_workload(
                int(parts.get("t", "100")), float(parts.get("rate", "1.0")),
                float(parts.get("duration", "1.0")), rng,
            )
    except ValueError as exc:
        raise ConfigError(f"malformed workload {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown workload {spec!r}; use burst:T or poisson:t=..;rate=..;duration=..")


def cmd_loadbalance(args) -> int:
    if args.m_machines is None:
        raise ConfigError("loadbalance needs --m-machines (--m is the graph's right side)")
    proto = _build(args)
    field, seed_len = proto.field, proto.descriptor.seed_len
    master = args.graph_seed
    tasks = _parse_workload(args.workload, spawn_rng(master, "workload"))
    result = loadbalance.run_experiment(
        tasks, args.m_machines, args.b, args.eps,
        lambda s: proto.fork(seed_from_int(field, seed_len, s)),
        args.reps, spawn_rng(master, "loadbalance"), keep_results=True,
    )
    peaks_header = ",".join(f"peak_{q}" for q in range(args.m_machines))
    print(f"run,seed,{peaks_header},overflow,bound")
    for i, (seed, run) in enumerate(zip(result.seeds, result.results)):
        peaks = ",".join(str(p) for p in run.per_machine_peak)
        print(f"{i},{seed},{peaks},{int(run.overflowed)},{result.bound:.6g}")
    print(f"# runs={result.runs} overflows={result.overflows} "
          f"frequency={result.frequency:.6g} bound={result.bound:.6g}",
          file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgen",
        description="k-independent sequence generation over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", required=True, help="gf2w:W or gfp:P")
        p.add_argument("--k", type=int, required=True, help="independence")
        p.add_argument("--kind", default="horner",
                       choices=["horner", "fft-batch", "expander", "cascade"])
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--m", type=int, default=None,
                       help="graph right side (expander), first right size (cascade)")
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--inner", default="fft-batch",
                       choices=["horner", "fft-batch"],
                       help="inner/base kind for composed generators")
        p.add_argument("--graph-seed", type=int, default=0,
                       help="construction randomness for sampled structures")

    p = sub.add_parser("gen", help="emit values")
    common(p)
    p.add_argument("--seed", help="hex element seed (width-padded words)")
    p.add_argument("--entropy", action="store_true",
                   help="draw the seed from OS entropy (recorded for replay)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--format", default="hex", choices=["bin", "hex", "csv"])
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="feasibility/speed search over (c, m, d)")
    p.add_argument("--k", type=_parse_int_list, required=True,
                   help="comma-separated independence values")
    p.add_argument("--c", type=_parse_int_list, default=[16, 32, 64])
    p.add_argument("--d", type=_parse_int_list, default=[4, 8, 16])
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--full", action="store_true", help="emit every grid cell")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="set-up seconds and ns/value for generator kinds")
    p.add_argument("--field", default="gf2w:64")
    p.add_argument("--k", type=_parse_int_list, required=True)
    p.add_argument("--kinds", default="horner,fft-batch,expander")
    p.add_argument("--values", type=int, default=4096)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--c", type=int, default=4)
    p.add_argument("--m", type=int, default=1 << 13)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--graph-seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="exact independence verification by rank over F")
    common(p)
    p.add_argument("--seedlen", type=int, default=None,
                   help="generator independence (the seed length of horner and"
                        " fft-batch) when different from the checked --k")
    p.add_argument("--n", type=int, default=None, help="stream length to check")
    p.add_argument("--max-positions", type=int, default=analysis.POSITION_SUBSET_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("loadbalance", help="interval-task assignment experiment")
    common(p)
    p.add_argument("--m-machines", dest="m_machines", type=int, default=None,
                   help="machine count")
    p.add_argument("--b", type=int, required=True, help="per-machine capacity")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--workload", default="burst:64")
    p.add_argument("--reps", type=int, default=100)
    p.set_defaults(func=cmd_loadbalance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PeriodExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:
        # the reader has all it wants; what is still buffered goes to
        # devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
