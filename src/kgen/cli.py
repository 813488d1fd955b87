"""Command line surface: stream emission, parameter search, verification,
benchmarking and load-balance experiments.

Exit codes: 0 success/pass, 1 fail verdict, 2 invalid configuration,
3 brute-force guard exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import analysis, bench, loadbalance
from .entropy import fresh_seed, spawn_rng
from .errors import ConfigError, GuardExceeded
from .expander import TimeModel, search_parameters
from .field import FieldError, parse_field_spec
from .generator import (
    FftBatchGenerator,
    HornerGenerator,
    build_cascade_generator,
    build_expander_generator,
    seed_from_hex,
    seed_to_hex,
    stream_chunks,
    write_stream,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _parse_int_list(text: str) -> list[int]:
    return [int(x, 0) for x in text.split(",") if x]


def _seed_elements(args, field, length: int):
    """Element seed from --seed hex or --entropy; entropy runs report the
    drawn seed so they can be replayed."""
    if args.seed is not None:
        seed = seed_from_hex(field, args.seed)
        if len(seed) != length:
            raise ConfigError(f"seed has {len(seed)} elements, need {length}")
        return seed, False
    if not args.entropy:
        raise ConfigError("provide --seed HEX or --entropy")
    rng = random.Random(fresh_seed())
    return tuple(field.random_element(rng) for _ in range(length)), True


def _build_generator(args, field):
    kind = args.kind
    if kind == "horner":
        seed, drew = _seed_elements(args, field, args.k)
        return HornerGenerator(field, args.k, seed), drew
    if kind == "fft-batch":
        seed, drew = _seed_elements(args, field, args.k)
        return FftBatchGenerator(field, args.k, seed), drew
    if kind == "expander":
        for name in ("c", "m", "d"):
            if getattr(args, name) is None:
                raise ConfigError(f"expander kind needs --{name}")
        proto = build_expander_generator(
            field, args.k, args.c, args.m, args.d,
            inner_kind=args.inner, rng=spawn_rng(args.graph_seed, "graph"),
        )
    elif kind == "cascade":
        for name in ("c", "d", "t"):
            if getattr(args, name) is None:
                raise ConfigError(f"cascade kind needs --{name}")
        proto = build_cascade_generator(
            field, args.k, args.c, args.d, args.t,
            base_kind=args.inner, rng=spawn_rng(args.graph_seed, "graph"), m0=args.m,
        )
    else:
        raise ConfigError(f"unknown generator kind {kind!r}")
    seed, drew = _seed_elements(args, field, proto.descriptor.seed_len)
    return proto.fork(seed), drew


def _open_out(args):
    if args.out and args.out != "-":
        return open(args.out, "wb"), True
    return sys.stdout.buffer, False


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

def cmd_gen(args) -> int:
    field = parse_field_spec(args.field)
    gen, _ = _build_generator(args, field)
    fh, close = _open_out(args)
    try:
        if args.format in ("hex", "csv"):
            if args.header:
                line = (gen.descriptor.header_line()
                        + f" seed={seed_to_hex(field, gen.seed)}\n")
                fh.write(line.encode())
            width = 2 * field.elem_bytes
            if args.format == "csv":
                fh.write(b"index,value\n")
            emitted = 0
            for values in stream_chunks(gen, args.count):
                if args.format == "csv":
                    text = "".join(f"{i},{v}\n" for i, v in enumerate(values.tolist(), emitted))
                else:
                    text = "".join(f"{v:0{width}x}\n" for v in values.tolist())
                fh.write(text.encode())
                emitted += len(values)
        else:
            emitted = write_stream(gen, fh, args.count, header=args.header)
        if emitted < args.count:
            print(f"period exhausted after {emitted} values", file=sys.stderr)
            return EXIT_CONFIG
    finally:
        fh.flush()
        if close:
            fh.close()
    return EXIT_OK


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

def cmd_search(args) -> int:
    print("k,c,log2_m,d,log10_delta,predicted_ns")
    any_feasible = False
    for k in args.k:
        result = search_parameters(
            k, args.c, args.d, 1 << args.log2_m_cap, args.delta,
            time_model=TimeModel(), threads=args.threads,
        )
        rows = result.rows if args.full else (
            (result.winner,) if result.winner else ()
        )
        for row in rows:
            if row.feasible:
                any_feasible = True
                ns = row.predicted_ns
                if args.bench and row is result.winner:
                    ns = _bench_expander_row(args, k, row)
                print(f"{k},{row.c},{row.m.bit_length() - 1},{row.d},"
                      f"{row.log10_delta:.3f},{ns:.1f}")
            else:
                print(f"{k},{row.c},,{row.d},,")
        if not result.winner:
            print(f"# k={k}: no feasible (c, m, d) within the grid", file=sys.stderr)
    return EXIT_OK if any_feasible else EXIT_FAIL


def _bench_expander_row(args, k, row) -> float:
    field = parse_field_spec(args.field)
    rng = spawn_rng(args.graph_seed, "search-bench", k)

    def make():
        return build_expander_generator(
            field, k, row.c, min(row.m, 1 << 16), row.d, rng=rng,
        )

    values = min(row.c * min(row.m, 1 << 16), 1 << 15)
    return bench.measure_ns_per_value(make, values, repetitions=3)


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

def cmd_bench(args) -> int:
    field = parse_field_spec(args.field)
    rng = spawn_rng(args.graph_seed, "bench")
    print("k,kind,ns_per_value,inner_ns,lookup_ns")
    for k in args.k:
        for kind in args.kinds.split(","):
            if kind == "horner":
                seed = tuple(field.random_element(rng) for _ in range(k))
                gen = HornerGenerator(field, k, seed)
                values = min(args.values, gen.descriptor.period)
                ns = bench.measure_ns_per_value(lambda: gen.fork(seed), values,
                                                args.reps)
                print(f"{k},horner,{ns:.1f},,")
            elif kind == "fft-batch":
                seed = tuple(field.random_element(rng) for _ in range(k))
                gen = FftBatchGenerator(field, k, seed)
                values = min(max(args.values, k), gen.descriptor.period)
                values -= values % gen.batch_size
                ns = bench.measure_ns_per_value(lambda: gen.fork(seed), values,
                                                args.reps)
                print(f"{k},fft-batch,{ns:.1f},,")
            elif kind == "expander":
                c = args.c or 4
                d = args.d or 8
                m = args.m or 1 << 13
                gen = build_expander_generator(field, k, c, m, d, rng=rng)
                inner_batch = getattr(gen.inner, "batch_size", m)
                cycle = c * max(m, inner_batch)
                values = min(cycle, args.values, gen.descriptor.period)
                split = bench.measure_expander_split(lambda: gen.fork(gen.seed),
                                                     values, args.reps)
                print(f"{k},expander,{split.total_ns:.1f},"
                      f"{split.inner_ns:.1f},{split.lookup_ns:.1f}")
            else:
                raise ConfigError(f"unknown bench kind {kind!r}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    field = parse_field_spec(args.field)
    if args.screen:
        rng = spawn_rng(args.graph_seed, "screen")
        gen_args = args

        def source(seed_int):
            srng = random.Random(seed_int)
            length = {
                "horner": args.seedlen or args.k,
                "fft-batch": args.seedlen or args.k,
            }.get(args.kind)
            if length is None:
                raise ConfigError("--screen supports horner and fft-batch kinds")
            seed = tuple(field.random_element(srng) for _ in range(length))
            if args.kind == "horner":
                gen = HornerGenerator(field, length, seed)
            else:
                gen = FftBatchGenerator(field, length, seed)
            return gen.emit_batch(args.window)

        report = analysis.chi_square_screen(
            source, field, min(args.k, 4), args.window, args.trials, rng,
        )
    else:
        seedlen = args.seedlen or args.k
        n = args.n or min(field.order, 64)

        if args.kind == "horner":
            make = lambda seed: HornerGenerator(field, seedlen, seed)
        elif args.kind == "fft-batch":
            make = lambda seed: FftBatchGenerator(field, seedlen, seed)
        elif args.kind == "expander":
            for name in ("c", "m", "d"):
                if getattr(args, name) is None:
                    raise ConfigError(f"expander kind needs --{name}")
            proto = build_expander_generator(
                field, args.k, args.c, args.m, args.d, inner_kind=args.inner,
                rng=spawn_rng(args.graph_seed, "graph"),
            )
            seedlen = proto.descriptor.seed_len
            n = args.n or min(proto.descriptor.period, proto._block_size)
            make = lambda seed: proto.fork(seed)
        else:
            raise ConfigError(f"verify does not support kind {args.kind!r}")
        report = analysis.exhaustive_independence_check(
            make, field, seedlen, args.k, n,
            max_position_subsets=args.max_positions, threads=args.threads,
        )
    print(report.to_line())
    return EXIT_OK if report.passed else EXIT_FAIL


# --------------------------------------------------------------------------
# loadbalance
# --------------------------------------------------------------------------

def _parse_workload(spec: str, rng: random.Random):
    name, _, arg = spec.partition(":")
    if name == "burst":
        return loadbalance.burst_workload(int(arg))
    if name == "poisson":
        parts = dict(kv.split("=") for kv in arg.split(";"))
        return loadbalance.poisson_workload(
            int(parts.get("t", "100")), float(parts.get("rate", "1.0")),
            float(parts.get("duration", "1.0")), rng,
        )
    raise ConfigError(f"unknown workload {spec!r}; use burst:T or poisson:t=..;rate=..;duration=..")


def cmd_loadbalance(args) -> int:
    if args.m_machines is not None:
        args.m = args.m_machines
    if args.m is None:
        raise ConfigError("loadbalance needs --m machines (or --m-machines)")
    field = parse_field_spec(args.field)
    master = args.graph_seed
    rng = spawn_rng(master, "loadbalance")
    tasks = _parse_workload(args.workload, spawn_rng(master, "workload"))

    if args.kind == "horner":
        make = lambda s: HornerGenerator(
            field, args.k,
            tuple(field.random_element(random.Random(s)) for _ in range(args.k)))
    elif args.kind == "fft-batch":
        make = lambda s: FftBatchGenerator(
            field, args.k,
            tuple(field.random_element(random.Random(s)) for _ in range(args.k)))
    else:
        raise ConfigError("loadbalance supports horner and fft-batch kinds")

    result = loadbalance.run_experiment(
        tasks, args.m, args.b, args.eps, make, args.reps, rng, keep_results=True,
    )
    peaks_header = ",".join(f"peak_{q}" for q in range(args.m))
    print(f"run,seed,{peaks_header},overflow,bound")
    for i, (seed, run) in enumerate(zip(result.seeds, result.results)):
        peaks = ",".join(str(p) for p in run.per_machine_peak)
        print(f"{i},{seed},{peaks},{int(bool(run.overflowed))},{run.bound:.6g}")
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

    def common(p, kinds=True):
        p.add_argument("--field", required=True, help="gf2w:W or gfp:P")
        p.add_argument("--k", type=int, required=True, help="independence")
        if kinds:
            p.add_argument("--kind", default="horner",
                           choices=["horner", "fft-batch", "expander", "cascade"])
            p.add_argument("--seed", help="hex element seed (width-padded words)")
            p.add_argument("--entropy", action="store_true",
                           help="draw the seed from OS entropy (recorded for replay)")
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--t", type=int, default=None)
        p.add_argument("--inner", default="fft-batch",
                       choices=["horner", "fft-batch"],
                       help="inner/base kind for composed generators")
        p.add_argument("--graph-seed", type=int, default=0,
                       help="construction randomness for sampled structures")
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("gen", help="emit values")
    common(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--format", default="hex", choices=["bin", "hex", "csv"])
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="feasibility/speed search over (c, m, d)")
    p.add_argument("--field", default="gf2w:64")
    p.add_argument("--k", type=_parse_int_list, required=True,
                   help="comma-separated independence values")
    p.add_argument("--c", type=_parse_int_list, default=[16, 32, 64])
    p.add_argument("--d", type=_parse_int_list, default=[4, 8, 16])
    p.add_argument("--log2-m-cap", type=int, default=26)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--full", action="store_true", help="emit every grid cell")
    p.add_argument("--bench", action="store_true",
                   help="measure winner rows instead of the model")
    p.add_argument("--graph-seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="ns/value for generator kinds")
    p.add_argument("--field", default="gf2w:64")
    p.add_argument("--k", type=_parse_int_list, required=True)
    p.add_argument("--kinds", default="horner,fft-batch,expander")
    p.add_argument("--values", type=int, default=4096)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--graph-seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="independence verification")
    common(p)
    p.add_argument("--seedlen", type=int, default=None,
                   help="family size when different from --k")
    p.add_argument("--n", type=int, default=None, help="stream length to check")
    p.add_argument("--max-positions", type=int, default=analysis.POSITION_SUBSET_CAP)
    p.add_argument("--screen", action="store_true",
                   help="chi-square screen instead of exhaustive enumeration")
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--trials", type=int, default=2000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("loadbalance", help="interval-task assignment experiment")
    common(p)
    p.add_argument("--m-machines", dest="m_machines", type=int, default=None)
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
    except (ConfigError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
