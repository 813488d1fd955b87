#!/usr/bin/env python3
"""kgen benchmark: one workload per run, end-to-end metrics untraced
(--trace 0) or per-layer metrics from a traced run (--trace 1).

    python3 perfbench/run.py --workload stream-expander --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test     # all four workloads, tiny scale, gate faults

Run from the root of a kgen checkout; kgen is imported from its src/.  The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it hold the
environment, the metric table and (traced) the self-time accounting and the
TimeModel calibration.  Untraced times are scaled to a nominal machine speed
(see REF_NOMINAL_S).  Each result and each trace is also written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Every time is scaled to a nominal machine speed before its median is
# taken.  A shared 2-core box alternates between a fast and a slow state,
# up to 2x apart, in spells from seconds to minutes, so raw medians of runs
# a minute apart differ by more than the bounds.  The scale comes from a
# pure-Python reference loop that touches no kgen code (Speed), timed right
# before and after each call (at most every REF_GAP_S), set-up slice and
# start-up run: a time t becomes t * REF_NOMINAL_S / (mean of the two
# reference times).  Set-up and start-up samples are taken in slices spread
# over the run; a set-up slice repeats the build until SETUP_SLICE_S is
# spent (at least once).
REF_NOMINAL_S = 0.004
REF_GAP_S = 0.05
SETUP_SLICES = 3
SETUP_SLICE_S = 0.3
STARTUP_REPS = 7


def _import_kgen():
    """Import kgen from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kgen" / "__init__.py").is_file():
        sys.exit(f"error: no kgen sources under {src}; run from a kgen checkout")
    sys.path.insert(0, str(src))
    import kgen

    if Path(kgen.__file__).resolve().parent != (src / "kgen").resolve():
        sys.exit(f"error: imported kgen from {kgen.__file__}, not from {src}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kgen").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def add(self, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors


def golden_checks(tally: Tally):
    from golden import SMALL, expect, small_stream

    for name in SMALL:
        tally.add(expect(f"stream/{name}", hashlib.sha256(small_stream(name)).hexdigest()))


def _ref_add(a: int, b: int) -> int:
    return (a + b) % 2013265921


class Speed:
    """Reference timings taken through a run, by when they were taken.

    The reference loop does integer arithmetic, then a gather through a
    table by the rows of a tuple list with a Python call per element.  The
    slow state slows table-walking code (the expander's gather, the FFTs)
    about 1.9x but arithmetic about 1.5x; with both parts, about half and
    half, 10-second medians of every workload's calls spread 0.01-0.03 of
    their median here, against 0.04-0.09 scaled by the arithmetic alone.
    """

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []
        self._table = list(range(8192))
        self._rows = [tuple((i * 7 + j * 1031) % 8192 for j in range(8)) for i in range(4096)]

    def reference_s(self) -> float:
        """Median of three timings of the reference loop."""
        table, rows, add = self._table, self._rows, _ref_add
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(30_000):
                acc += i * i % 7
            for row in rows:
                for y in row:
                    acc = add(acc, table[y])
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def sample(self, gap: float = 0.0):
        """Time the reference loop, unless the last timing is under `gap` s old."""
        if gap and self.at and time.perf_counter() - self.at[-1] < gap:
            return
        ref = self.reference_s()
        self.at.append(time.perf_counter())
        self.ref.append(ref)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to nominal
        speed: from the last sample before `start` and the first after `end`."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        near = [self.ref[x] for x in (i, j) if 0 <= x < len(self.ref)]
        return REF_NOMINAL_S / statistics.mean(near)


def startup_once(w, tally: Tally) -> float:
    """Wall time of a fresh `python -m kgen gen` emitting one value of the
    workload's generator."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "kgen", *w.startup_argv(),
           "--entropy", "--count", "1", "--format", "bin", "--out", "-"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=170)
    wall = time.perf_counter() - t0
    ok = proc.returncode == 0 and len(proc.stdout) == w.startup_bytes()
    tally.add([] if ok else [f"startup: exit {proc.returncode}, "
                             f"{len(proc.stdout)} bytes, {proc.stderr[-300:]!r}"])
    return wall


def setup_slice(w, tally: Tally, slice_s: float) -> list[float]:
    """Set-up times of repeated builds until `slice_s` is spent."""
    times = []
    while not times or (sum(times) < slice_s and len(times) < 500):
        w.gen = None  # drop the previous build before the next one
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
        tally.add([])
    return times


def measure(w, seconds: float, tally: Tally, setup_slices=SETUP_SLICES,
            startup_reps=STARTUP_REPS, slice_s=SETUP_SLICE_S):
    """End-to-end metrics of one workload, tracing off, and the same medians
    unscaled.  Calls run until `seconds` of call time is spent; set-up
    slices and start-up runs are interleaved at op boundaries."""
    side = ["setup"]
    for j in range(max(startup_reps, setup_slices)):
        side += ["startup"] * (j < startup_reps) + ["setup"] * (j + 1 < setup_slices)
    speed = Speed()
    setups, startups, forks, calls = [], [], [], []  # (raw time, scale) pairs; calls

    def side_task(kind):
        speed.sample()
        t0 = time.perf_counter()
        if kind == "setup":
            times = setup_slice(w, tally, slice_s)
        else:
            times = [startup_once(w, tally)]
        t1 = time.perf_counter()
        speed.sample()
        k = speed.scale(t0, t1)
        (setups if kind == "setup" else startups).extend((t, k) for t in times)

    side_task(side[0])
    done, spent, i = 1, 0.0, 0
    while i == 0 or spent < seconds:
        while done < len(side) and spent >= seconds * done / len(side):
            side_task(side[done])
            done += 1
        r = w.run_op(i, w.cfg["units"], between=lambda: speed.sample(REF_GAP_S))
        tally.add(r.errors)
        calls += r.calls
        spent += sum(c.seconds for c in r.calls)
        if r.fork_s is not None:
            forks.append((r.fork_s, r.calls[0]))
            spent += r.fork_s
        i += 1
    speed.sample()
    for kind in side[done:]:
        side_task(kind)
    if threading.active_count() != 1 or sys.gettrace() or sys.getprofile():
        tally.add(["a thread or a trace/profile hook is running: the reference "
                   "loop would be slowed with the workload and hide the cost"])

    def metrics(scaled: bool) -> dict:
        def k(c):
            return speed.scale(c.end - c.seconds, c.end) if scaled else 1.0

        def med(pairs):
            return statistics.median(t * (f if scaled else 1.0) for t, f in pairs)

        per_unit = statistics.median(c.seconds * k(c) / c.units for c in calls)
        if forks:  # a stream's seed costs its fork plus `units` units of calls
            fork = statistics.median(t * k(c) for t, c in forks)
            seeds_per_s = 1 / (fork + w.cfg["units"] * per_unit)
        else:
            seeds_per_s = statistics.median(c.seeds / (c.seconds * k(c)) for c in calls)
        return {
            "setup_s": (med(setups), "s"),
            "startup_s": (med(startups), "s"),
            "values_per_s": (statistics.median(c.values / (c.seconds * k(c)) for c in calls),
                             "1/s"),
            "runs_per_s": (1 / per_unit, "1/s"),
            "seeds_per_s": (seeds_per_s, "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    return metrics(True), metrics(False), statistics.median(speed.ref)


def trace_pass(w, tally: Tally, rounds: int = 5):
    """The same set-up and call untraced and traced, `rounds` times over,
    alternating which side goes first.  Both sides are scaled to
    nominal speed, as in measure().  Returns the median scaled untraced
    wall time, and the median scaled traced wall time with its round's
    scale factor and tracer."""
    from tracing import Tracer

    units = w.cfg["trace_units"]
    speed = Speed()
    speed.sample()
    untraced, traced = [], []

    def plain():
        w.gen = None
        t0 = time.perf_counter()
        w.setup()
        wall = time.perf_counter() - t0
        r = w.run_op(0, units)
        tally.add(r.errors)
        speed.sample()
        k = speed.scale(t0, time.perf_counter())
        untraced.append((wall + (r.fork_s or 0) + sum(c.seconds for c in r.calls)) * k)

    def with_tracer():
        w.gen = None
        tracer = Tracer()
        t0 = time.perf_counter()
        tracer.call("setup", w.setup, tracer)
        tracer.run_id = 0
        r = w.run_op(0, units, tracer)
        tally.add(r.errors)
        speed.sample()
        k = speed.scale(t0, time.perf_counter())
        root_s = sum(e - s for _, s, e, parent, _ in tracer.spans if parent < 0) / 1e9
        traced.append((root_s * k, k, tracer))

    for i in range(rounds):
        for step in (plain, with_tracer) if i % 2 == 0 else (with_tracer, plain):
            step()
    traced.sort(key=lambda t: t[0])
    return (statistics.median(untraced), *traced[len(traced) // 2])


def traced_run(w, seed: int, tally: Tally):
    """Per-layer metrics, the workload's self-time accounting and the
    TimeModel calibration lines."""
    from layers import calibration, measure_layers

    untraced, traced, k, tracer = trace_pass(w, tally)
    selfs = {name: (n, s * k) for name, (n, s) in tracer.self_times().items()}
    lines = [f"{'span':<32}{'count':>9}{'self_s':>12}{'share_of_untraced':>20}"]
    for name, (n, s) in sorted(selfs.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<32}{n:>9}{s:>12.4f}{s / untraced:>20.4f}")
    total = sum(s for _, s in selfs.values())
    lines.append(f"{'sum':<32}{'':>9}{total:>12.4f}{total / untraced:>20.4f}"
                 f"   untraced wall {untraced:.4f} s")
    metrics, errors = measure_layers(seed, ROOT)
    tally.add(errors)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.root_self_share"] = (
        sum(selfs[name][1] for name in ("setup", "op") if name in selfs) / traced, "share")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{w.name}-seed{seed}.json",
                {"workload": w.name, "seed": seed, "untraced_s": untraced, "scale": k})
    return metrics, lines, calibration(metrics)


def self_test() -> int:
    """Tiny-scale run of all four workloads: clean runs must pass, and each
    injected fault (one flipped byte or value, a wrong seed) must be
    reported as a failed operation."""
    from workloads import FAULTS, WORKLOADS

    t_start = time.perf_counter()
    ok = True
    tally = Tally()
    golden_checks(tally)
    print(f"golden streams: {tally.attempted} checked, {tally.failed} failed")
    ok &= tally.failed == 0
    for name, cls in WORKLOADS.items():
        for fault in (None, *FAULTS):
            tally = Tally()
            metrics, _, _ = measure(cls(7, smoke=True, fault=fault), 0, tally,
                                    setup_slices=1, startup_reps=1, slice_s=0)
            good = tally.failed == 0 if fault is None else tally.failed > 0
            ok &= good
            print(f"{name:<20} fault={fault or 'none':<5} attempted={tally.attempted} "
                  f"failed={tally.failed} {'ok' if good else 'WRONG'}")
            if fault is None:
                ok &= all(v > 0 for v, _ in metrics.values())
        tally = Tally()
        untraced, traced, _, _ = trace_pass(cls(7, smoke=True), tally, rounds=1)
        good = tally.failed == 0 and traced > 0
        ok &= good
        print(f"{name:<20} traced pass overhead {traced / untraced:.2f}x "
              f"{'ok' if good else 'WRONG'}")
    tally = Tally()
    from layers import measure_layers

    metrics, errors = measure_layers(7, ROOT, smoke=True)
    tally.add(errors)
    ok &= tally.failed == 0
    print(f"layers: {len(metrics)} metrics, {tally.failed} failed")
    print(f"self-test {'passed' if ok else 'FAILED'} in {time.perf_counter() - t_start:.1f} s")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="tiny-scale run of every workload with injected faults")
    args = p.parse_args(argv)
    # One CPU for this process and the start-up runs it waits on, so that
    # the reference loop times the core the measured code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _import_kgen()
    sys.path.insert(0, str(HERE))
    if args.self_test:
        return self_test()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    w = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    golden_checks(tally)
    if args.trace:
        metrics, self_lines, calib = traced_run(w, args.seed, tally)
        print(f"# self time, traced {w.name} (set-up + {w.cfg['trace_units']} unit call):")
        for line in self_lines:
            print("#   " + line)
        print("# calibration (expander.TimeModel units):")
        for line in calib:
            print("#   " + line)
    else:
        metrics, raw, ref = measure(w, args.seconds, tally)
        print(f"# reference loop median {ref * 1e3:.3f} ms, nominal {REF_NOMINAL_S * 1e3:.3f} ms;"
              " unscaled medians:")
        for name, (value, unit) in raw.items():
            print(f"#   {name:<36} {value:>16.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"# {w.name:<18} {name:<36} {value:>16.6g} {unit}")
    for error in tally.errors[:20]:
        print(f"# FAILED: {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(OUT / f"{w.name}-trace{args.trace}-seed{args.seed}-{stamp}.json", "w") as fh:
        json.dump({"workload": w.name, "trace": args.trace, "env": env, **result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
