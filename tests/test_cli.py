import ast
import io
import random
import subprocess
import sys

import numpy as np
import pytest

from kgen.cli import main
from kgen.field import parse_field_spec


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_hex_deterministic(capsys):
    argv = ["gen", "--field", "gf2w:16", "--kind", "horner", "--k", "2",
            "--seed", "00010002", "--count", "4"]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    code, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    assert out1.splitlines() == ["0001", "0003", "0005", "0007"]


def test_gen_gf2w64_hex_matches_horner_oracle(capsys):
    from kgen.field import Gf2w
    from kgen.poly import Polynomial, horner_eval

    seed_words = [3, 2**63 + 5, 0, 41]
    seed_hex = "".join(f"{w:016x}" for w in seed_words)
    code, out, _ = run_cli(
        ["gen", "--field", "gf2w:64", "--kind", "horner", "--k", "4",
         "--seed", seed_hex, "--count", "4"], capsys)
    assert code == 0
    f = Gf2w(64)
    h = Polynomial(f, tuple(seed_words))
    want = [f"{horner_eval(h, x):016x}" for x in range(4)]
    assert out.splitlines() == want


def test_gen_csv_format(capsys):
    code, out, _ = run_cli(
        ["gen", "--field", "gfp:7", "--kind", "horner", "--k", "2",
         "--seed", "0" * 15 + "1" + "0" * 15 + "2", "--count", "3",
         "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["index,value", "0,1", "1,3", "2,5"]


def test_gen_header_records_seed(capsys):
    code, out, _ = run_cli(
        ["gen", "--field", "gf2w:16", "--kind", "horner", "--k", "2",
         "--seed", "00010002", "--count", "1", "--header"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("# kind=horner field=gf2w:16 k=2")
    assert "seed=00010002" in out.splitlines()[0]


def test_gen_count_zero_succeeds(capsys):
    code, out, _ = run_cli(
        ["gen", "--field", "gf2w:16", "--kind", "horner", "--k", "1",
         "--seed", "00ff", "--count", "0"], capsys)
    assert code == 0 and out == ""


def test_gen_entropy_runs_and_differs(capsys):
    argv = ["gen", "--field", "gfp:257", "--kind", "horner", "--k", "2",
            "--entropy", "--count", "3", "--header"]
    code, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code == code2 == 0
    assert out1.splitlines()[0].startswith("# kind=horner")
    # replay from the recorded seed reproduces the stream
    seed = out1.splitlines()[0].split("seed=")[1].split()[0]
    code, out3, _ = run_cli(
        ["gen", "--field", "gfp:257", "--kind", "horner", "--k", "2",
         "--seed", seed, "--count", "3"], capsys)
    assert out3.splitlines() == out1.splitlines()[1:]


@pytest.mark.parametrize("field,k,count", [
    ("gf2w:64", 256, 5 * 512 + 300),  # several multi-batch blocks, ends mid-batch
    ("gfp:257", 16, 7 * 16 + 9),
])
def test_gen_fft_batch_entropy_replays_from_header(field, k, count, tmp_path):
    def gen(out, *seed_args):
        argv = ["gen", "--field", field, "--kind", "fft-batch", "--k", str(k),
                "--format", "bin", "--count", str(count), "--out", str(out), *seed_args]
        assert main(argv) == 0
        return out.read_bytes()

    first = gen(tmp_path / "a.bin", "--entropy", "--header")
    header, _, body = first.partition(b"\n")
    assert header.startswith(f"# kind=fft-batch field={field} k={k}".encode())
    assert len(body) == count * parse_field_spec(field).elem_bytes
    seed = header.decode().split("seed=")[1].split()[0]
    assert gen(tmp_path / "b.bin", "--seed", seed) == body
    assert gen(tmp_path / "c.bin", "--entropy") != body


# `kgen gen --format hex|csv --header` output of each kind, pinned by sha256:
# two 2^16-value chunks (fft-batch), and the partial output of a stream whose
# period runs out (horner, cascade; exit code 2)
_TEXT_CASES = {
    "horner": (["--field", "gf2w:16", "--kind", "horner", "--k", "2",
                "--seed", "00010002", "--count", "70000"], 2, {
        "hex": "9bbc4dcd86418ceb11ba08bc61c51ef9ce5542bfb66a64af927a02e60b90683b",
        "csv": "456fd51bdfb0aa2bfe1161ff7cce7dc8751d7d0290a8c2ac6579b008d2978d40"}),
    "fft-batch": (["--field", "gf2w:24", "--kind", "fft-batch", "--k", "4",
                   "--seed", "0000a1123456fedcba000001", "--count", "70000"], 0, {
        "hex": "eaa76e8e5b1535a613e54849eb263335e5847f7f69346401e1eca32a1e2c3184",
        "csv": "1676c5096b76fa8c6f0e3fd9c2048cfeebd1213dd13523eff789bf5a12068047"}),
    "expander": (["--field", "gf2w:16", "--kind", "expander", "--k", "4", "--c", "2",
                  "--m", "64", "--d", "2", "--inner", "fft-batch", "--graph-seed", "3",
                  "--seed", "0001002000300040005000600070ffff", "--count", "300"], 0, {
        "hex": "10e0b345593ac9ce051379df5dbde69cfb635279473f82fab4d7b01ae6f8b5fc",
        "csv": "c8cef99503aefdd3a1065f7206f68316bf3b6de9d52fe8180f3ac89553a2ca54"}),
    "cascade": (["--field", "gfp:257", "--kind", "cascade", "--k", "2", "--c", "2",
                 "--d", "2", "--t", "2", "--m", "16", "--inner", "fft-batch",
                 "--seed", "".join(f"{v:016x}" for v in (1, 7, 250, 0, 3, 256, 9, 100)),
                 "--count", "1100"], 2, {
        "hex": "8d5b545649ce2e3047a9e45d92f99d68c35186f0ed53bdda32027a4c82f9280a",
        "csv": "5c82b9ab864f7db67d8fdf15b167006dacd00cfbee6db44afeef3b312d37604e"}),
}


@pytest.mark.parametrize("fmt", ["hex", "csv"])
@pytest.mark.parametrize("kind", sorted(_TEXT_CASES))
def test_gen_text_formats_pinned(tmp_path, capsys, kind, fmt):
    import hashlib

    argv, want_code, digests = _TEXT_CASES[kind]
    out_file = tmp_path / f"stream.{fmt}"
    code, _, err = run_cli(["gen", *argv, "--format", fmt, "--header",
                            "--out", str(out_file)], capsys)
    assert code == want_code, err
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digests[fmt]


def test_gen_binary_format(tmp_path, capsys):
    out_file = tmp_path / "stream.bin"
    code, _, _ = run_cli(
        ["gen", "--field", "gf2w:16", "--kind", "horner", "--k", "2",
         "--seed", "00010002", "--count", "4", "--format", "bin",
         "--out", str(out_file)], capsys)
    assert code == 0
    raw = out_file.read_bytes()
    vals = [int.from_bytes(raw[i:i + 2], "little") for i in range(0, 8, 2)]
    assert vals == [1, 3, 5, 7]


def test_gen_invalid_config_exit_2(capsys):
    code, _, err = run_cli(
        ["gen", "--field", "gfp:6", "--kind", "horner", "--k", "2",
         "--seed", "00", "--count", "1"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["gen", "--field", "gfp:257", "--kind", "horner", "--k", "2",
         "--count", "1"], capsys)  # no seed, no entropy
    assert code == 2


def test_gen_expander_kind(capsys):
    code, out, _ = run_cli(
        ["gen", "--field", "gf2w:16", "--kind", "expander", "--k", "4",
         "--c", "2", "--m", "16", "--d", "2", "--inner", "horner",
         "--entropy", "--count", "8"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 8


_SHAPES = {
    "horner": [],
    "fft-batch": [],
    "expander": ["--c", "2", "--m", "16", "--d", "2"],
    "cascade": ["--c", "2", "--m", "16", "--d", "2", "--t", "2"],
}


@pytest.mark.parametrize("kind", sorted(_SHAPES))
def test_gen_graph_comes_from_graph_seed(tmp_path, capsys, kind):
    # gen emits build(spec).fork(seed), and a sampled kind's graphs are the
    # builder's from spawn_rng(--graph-seed, "graph"): the graphs verify certifies
    from kgen.entropy import spawn_rng
    from kgen.field import Gfp
    from kgen.generator import (GeneratorSpec, build, build_cascade_generator,
                                build_expander_generator, seed_to_hex, write_stream)

    f = Gfp(257)
    shape = dict(zip(_SHAPES[kind][::2], map(int, _SHAPES[kind][1::2])))
    proto = build(GeneratorSpec(kind, f, 2, **{o[2:]: v for o, v in shape.items()},
                                graph_seed=7))
    if kind == "expander":
        ref = build_expander_generator(f, 2, 2, 16, 2, inner_kind="fft-batch",
                                       rng=spawn_rng(7, "graph"))
        assert np.array_equal(proto.graph.edges, ref.graph.edges)
    elif kind == "cascade":
        ref = build_cascade_generator(f, 2, 2, 2, 2, base_kind="fft-batch",
                                      rng=spawn_rng(7, "graph"), m0=16)
        for g, h in zip(proto.graphs, ref.graphs, strict=True):
            assert np.array_equal(g.edges, h.edges)
    rng = random.Random(5)
    seed = [f.random_element(rng) for _ in range(proto.descriptor.seed_len)]
    want = io.BytesIO()
    write_stream(proto.fork(seed), want, 64)
    out_file = tmp_path / "stream.bin"
    code, _, _ = run_cli(
        ["gen", "--field", "gfp:257", "--kind", kind, "--k", "2", *_SHAPES[kind],
         "--inner", "fft-batch", "--graph-seed", "7", "--seed", seed_to_hex(f, seed),
         "--count", "64", "--format", "bin", "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_bytes() == want.getvalue()


def test_gen_period_exhaustion_reported(capsys):
    code, out, err = run_cli(
        ["gen", "--field", "gfp:5", "--kind", "horner", "--k", "2",
         "--seed", "00000000000000010000000000000002".replace("1", "1"),
         "--count", "9"], capsys)
    assert code == 2
    assert "period exhausted after 5" in err


def test_verify_pass_fail_guard_exit_codes(capsys):
    code, out, _ = run_cli(
        ["verify", "--field", "gfp:5", "--kind", "horner", "--k", "3"], capsys)
    assert code == 0 and "exact-pass" in out
    # the default stream length stops at the period (p-1 for fft-batch over GF(p))
    code, out, _ = run_cli(
        ["verify", "--field", "gfp:5", "--kind", "fft-batch", "--k", "2"], capsys)
    assert code == 0 and "exact-pass k=2 positions=6" in out  # C(4, 2) subsets
    code, out, _ = run_cli(
        ["verify", "--field", "gfp:3", "--kind", "horner", "--k", "3",
         "--seedlen", "2"], capsys)
    assert code == 1 and "exact-fail" in out
    # 64*64*(64+10000) field operations lie above the rank guard
    code, out, err = run_cli(
        ["verify", "--field", "gf2w:64", "--kind", "horner", "--k", "64",
         "--n", "256", "--max-positions", "10000"], capsys)
    assert code == 3 and out == "" and "guard" in err
    # a stream shorter than the checked length: the period of gfp:17 is 17
    code, out, err = run_cli(
        ["verify", "--field", "gfp:17", "--kind", "horner", "--k", "2", "--n", "40"], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_default_n_reaches_max_positions(capsys):
    # with no --n, the stream is long enough for --max-positions k-subsets
    # (k - 1 + 200 positions), not one
    code, out, _ = run_cli(
        ["verify", "--field", "gfp:2013265921", "--kind", "horner", "--k", "64"], capsys)
    assert code == 0 and out.startswith("verdict=exact-pass k=64 positions=200 ")


@pytest.mark.parametrize("field", ["gf2w:64", "gfp:2013265921"])
def test_verify_rank_at_word_size_fields(field, capsys):
    argv = ["verify", "--field", field, "--kind", "horner", "--k", "4", "--n", "12"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.startswith("verdict=exact-pass k=4 positions=200 ")
    code, out, _ = run_cli(argv + ["--seedlen", "6"], capsys)
    assert code == 0 and "exact-pass" in out
    code, out, _ = run_cli(argv + ["--seedlen", "3"], capsys)
    order = parse_field_spec(field).order
    assert code == 1 and out.startswith("verdict=exact-fail k=4 positions=1 ")
    assert out.rstrip().endswith(f"tuples={order ** 3}/{order ** 4}")


def test_verify_fft_batch_at_gfp_word_size(capsys):
    code, out, _ = run_cli(
        ["verify", "--field", "gfp:2013265921", "--kind", "fft-batch", "--k", "8",
         "--n", "16"], capsys)
    assert code == 0 and "exact-pass k=8 positions=200" in out


@pytest.mark.parametrize("extra", [["--n", "2"], ["--max-positions", "0"]])
def test_verify_refuses_vacuous_check(extra, capsys):
    code, out, err = run_cli(
        ["verify", "--field", "gfp:5", "--kind", "horner", "--k", "3", *extra],
        capsys)
    assert code == 2 and out == ""
    assert "would examine no 3-subset" in err


def test_verify_expander(capsys):
    code, out, _ = run_cli(
        ["verify", "--field", "gf2w:4", "--kind", "expander", "--k", "2",
         "--c", "2", "--m", "4", "--d", "2", "--inner", "horner",
         "--graph-seed", "12", "--max-positions", "12"], capsys)
    assert code in (0, 1)  # sampled graph may or may not pass; report prints
    assert "verdict=" in out


def test_verify_cascade(capsys):
    code, out, _ = run_cli(
        ["verify", "--field", "gf2w:4", "--kind", "cascade", "--k", "1",
         "--c", "2", "--m", "4", "--d", "2", "--t", "1", "--inner", "horner"],
        capsys)
    assert code in (0, 1)
    assert "verdict=exact-" in out


def test_search_csv_schema(capsys):
    code, out, _ = run_cli(
        ["search", "--k", "32", "--delta", "1e-7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,c,log2_m,d,log10_delta,predicted_ns"
    row = lines[1].split(",")
    assert row[0] == "32" and len(row) == 6


def test_search_full_grid_and_trivial_delta(capsys):
    code, out, _ = run_cli(
        ["search", "--k", "8", "--c", "2,4", "--d", "2,4", "--delta", "1.0",
         "--full"], capsys)
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 4
    assert all(line.split(",")[2] == "1" for line in lines)  # m = 2 everywhere


def test_search_infeasible_exit(capsys):
    code, out, err = run_cli(
        ["search", "--k", "1024", "--c", "2", "--d", "2", "--delta", "1e-30"], capsys)
    assert code == 1
    assert "no feasible" in err


def test_search_winner_fits_the_graph_guard(capsys):
    # (16, 2^20, 8) is 2^27 adjacency slots, exactly the guard; the cheaper
    # (64, 2^21, 8) is four times over it
    code, out, _ = run_cli(["search", "--k", "65536", "--delta", "1e-9"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("65536,16,20,8,-14.836,")


def test_loadbalance_cli_zero_overflow(capsys):
    code, out, err = run_cli(
        ["loadbalance", "--field", "gf2w:16", "--kind", "horner", "--k", "4",
         "--m-machines", "1", "--b", "64", "--eps", "0.5",
         "--workload", "burst:32", "--reps", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "run,seed,peak_0,overflow,bound"
    assert len(lines) == 6
    assert all(line.split(",")[3] == "0" for line in lines[1:])  # b >= t: no overflow
    assert "frequency=0" in err


def test_loadbalance_seeds_are_k_draws(capsys):
    # each run's machines come from a degree-(k-1) polynomial whose k
    # coefficients are k successive draws of random.Random(seed)
    from kgen.field import Gf2w
    from kgen.generator import HornerGenerator
    from kgen.loadbalance import assign, burst_workload, peak_loads

    code, out, _ = run_cli(
        ["loadbalance", "--field", "gf2w:16", "--kind", "horner", "--k", "8",
         "--m-machines", "4", "--b", "8", "--eps", "0.5",
         "--workload", "burst:16", "--reps", "6"], capsys)
    assert code == 0
    f, tasks = Gf2w(16), burst_workload(16)
    for line in out.splitlines()[1:]:
        cells = line.split(",")
        rng = random.Random(int(cells[1]))
        gen = HornerGenerator(f, 8, [f.random_element(rng) for _ in range(8)])
        want = peak_loads(tasks, assign(tasks, 4, gen), 4, 8).per_machine_peak
        assert [int(x) for x in cells[2:6]] == list(want)


def test_loadbalance_expander(capsys):
    # --m is the graph's right side; the machine count is --m-machines
    code, out, _ = run_cli(
        ["loadbalance", "--field", "gf2w:16", "--kind", "expander", "--k", "4",
         "--c", "2", "--m", "64", "--d", "2", "--m-machines", "2", "--b", "16",
         "--eps", "0.5", "--workload", "burst:8", "--reps", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "run,seed,peak_0,peak_1,overflow,bound"
    assert len(lines) == 4


def test_loadbalance_missing_m_is_config_error(capsys):
    code, _, err = run_cli(
        ["loadbalance", "--field", "gf2w:16", "--kind", "horner", "--k", "4",
         "--b", "8", "--eps", "0.5", "--workload", "burst:4", "--reps", "2"],
        capsys)
    assert code == 2
    assert "--m" in err


def test_bench_csv_schema(capsys):
    code, out, _ = run_cli(
        ["bench", "--field", "gf2w:16", "--k", "4,8", "--kinds",
         "horner,fft-batch", "--values", "64", "--reps", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,kind,setup_s,ns_per_value,inner_ns,lookup_ns"
    assert len(lines) == 5


def test_bench_lookup_times_the_gather_on_one_refills_values(capsys, monkeypatch):
    # --values is one block, so each timed stream refills once; lookup_ns
    # then times 1 + --reps further row_sums calls of its own (one warmup),
    # each on the inner values that refill gathers
    from kgen.expander import BipartiteGraph

    calls = []
    row_sums = BipartiteGraph.row_sums

    def recording(self, field, values):
        calls.append(list(values))
        return row_sums(self, field, values)

    monkeypatch.setattr(BipartiteGraph, "row_sums", recording)
    code, out, _ = run_cli(
        ["bench", "--field", "gfp:257", "--k", "2", "--kinds", "expander", "--c", "2",
         "--m", "16", "--d", "2", "--values", "32", "--reps", "3"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "k,kind,setup_s,ns_per_value,inner_ns,lookup_ns"
    assert float(row.split(",")[-1]) > 0
    assert len(calls) == 2 * (1 + 3)
    assert all(values == calls[0] for values in calls)


def test_bench_loads_numpy_random_before_the_timed_builds():
    # the first graph a process samples pays numpy.random's import and the
    # first touch of fresh pages; each row's untimed warmup build takes that,
    # and setup_s is the median of --reps builds, each between a pair of
    # clock reads.  The events are logged in order, in a fresh process.
    code = ("import sys, time, kgen.cli as cli, kgen.generator as g; events = []\n"
            "def logged(name, real):\n"
            "    def call(*args):\n"
            "        events.append(name)\n"
            "        return real(*args)\n"
            "    return call\n"
            "cli.build = logged('build', cli.build)\n"
            "g.sample_graph = logged('graph', g.sample_graph)\n"
            "time.perf_counter = logged('clock', time.perf_counter)\n"
            "code = cli.main(['bench', '--field', 'gfp:257', '--k', '2,4', '--kinds', "
            "'horner,expander', '--c', '2', '--m', '16', '--d', '2', '--values', '32', "
            "'--reps', '2'])\n"
            "print(events, file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    events = ast.literal_eval(proc.stderr.decode().strip())
    builds, clocks = [], 0  # (event index, timed) of each build
    for i, e in enumerate(events):
        clocks += e == "clock"
        if e == "build":
            builds.append((i, clocks % 2 == 1))
    assert [timed for _, timed in builds] == [False, True, True] * 4  # 4 rows
    first_graph = events.index("graph")
    assert not max(b for b in builds if b[0] < first_graph)[1]


_GRAPH = ["gen", "--field", "gfp:257", "--k", "2", "--c", "2", "--m", "16", "--d", "2",
          "--entropy", "--count", "4"]
_EXPANDER = _GRAPH + ["--kind", "expander"]
_CASCADE = _GRAPH + ["--kind", "cascade"]
_LOADBALANCE = ["loadbalance", "--field", "gf2w:16", "--kind", "horner", "--k", "4",
                "--m-machines", "1", "--b", "8", "--eps", "0.5", "--reps", "2"]
_BENCH = ["bench", "--field", "gf2w:16", "--k", "4"]

# argparse keeps the last occurrence of an option, so an appended option
# overrides the base command's value
_BAD_INPUT = {
    "workload-burst": _LOADBALANCE + ["--workload", "burst:abc"],
    "workload-poisson": _LOADBALANCE + ["--workload", "poisson:t=5;rate"],
    "workload-poisson-rate-0": _LOADBALANCE + ["--workload", "poisson:rate=0"],
    "workload-burst-0": _LOADBALANCE + ["--workload", "burst:0"],
    "workload-burst--3": _LOADBALANCE + ["--workload", "burst:-3"],
    "loadbalance-reps-0": _LOADBALANCE + ["--reps", "0"],
    "gen-count--1": ["gen", "--field", "gf2w:8", "--kind", "horner", "--k", "2",
                     "--seed", "0001", "--count", "-1"],
    "seed-not-hex": ["gen", "--field", "gf2w:8", "--kind", "horner", "--k", "2",
                     "--seed", "zz00", "--count", "1"],
    "bench-reps-0": _BENCH + ["--kinds", "horner", "--reps", "0"],
    "bench-values-0": _BENCH + ["--kinds", "expander", "--values", "0"],
    "expander-c-0": _EXPANDER + ["--c", "0"],
    "expander-d-0": _EXPANDER + ["--d", "0"],
    "expander-k-0": _EXPANDER + ["--k", "0"],
    "cascade-t-0": _CASCADE + ["--t", "0"],
    "cascade-t--1": _CASCADE + ["--t", "-1"],
    "cascade-d-0": _CASCADE + ["--t", "1", "--d", "0"],
    "verify-d-0": ["verify", "--field", "gf2w:4", "--kind", "expander", "--k", "2",
                   "--c", "2", "--m", "4", "--d", "0", "--inner", "horner"],
    "search-delta-0": ["search", "--k", "32", "--delta", "0"],
    "search-c-0": ["search", "--k", "32", "--c", "0", "--delta", "1e-7"],
    "search-k-empty": ["search", "--k", "", "--delta", "1e-3"],
    "bench-k-empty": ["bench", "--k", ""],
    # an explicit zero reaches the refusals, not the defaults
    "verify-n-0": ["verify", "--field", "gfp:5", "--kind", "horner", "--k", "3", "--n", "0"],
    "verify-seedlen-0": ["verify", "--field", "gfp:5", "--kind", "horner", "--k", "3",
                         "--seedlen", "0"],
    "bench-c-0": _BENCH + ["--kinds", "expander", "--c", "0"],
    "bench-m-0": _BENCH + ["--kinds", "expander", "--m", "0"],
    "bench-d-0": _BENCH + ["--kinds", "expander", "--d", "0"],
    # the kinds measured before a refused one print no rows
    "bench-kinds-c-0": _BENCH + ["--kinds", "horner,fft-batch,expander", "--c", "0"],
    "bench-kinds-unknown": _BENCH + ["--kinds", "horner,nosuch"],
    "bench-kinds-cascade": _BENCH + ["--kinds", "cascade", "--c", "4"],
    "search-k-0-after-32": ["search", "--k", "32,0", "--delta", "1e-7"],
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUT))
def test_bad_input_exits_config(case, capsys):
    # invalid input is a configuration error (exit 2): not a traceback, not
    # values, not a CSV header, and not the exit 1 that verify keeps for a
    # fail verdict
    code, out, err = run_cli(_BAD_INPUT[case], capsys)
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines()), err
    assert out == ""
    if case == "bench-kinds-cascade":  # refused by name, not for a missing --c
        assert "bench times horner, fft-batch and expander, not 'cascade'" in err


@pytest.mark.parametrize("argv,name", [
    (["gen", "--field", "gfp:257", "--kind", "horner", "--k", "4", "--c", "4", "--t", "9",
      "--entropy", "--count", "1"], "c"),
    (["gen", "--field", "gfp:257", "--kind", "fft-batch", "--k", "4", "--m", "16",
      "--entropy", "--count", "1"], "m"),
    (["verify", "--field", "gfp:5", "--kind", "horner", "--k", "3", "--d", "2"], "d"),
    (_EXPANDER + ["--t", "2"], "t"),
])
def test_shape_option_a_kind_ignores_is_refused(argv, name, capsys, monkeypatch):
    # an option the kind would drop is refused by name before any sampling
    import kgen.generator

    def no_sampling(*args):
        raise AssertionError("graph sampled before the shape check")

    monkeypatch.setattr(kgen.generator, "sample_graph", no_sampling)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"kind takes no --{name}" in err


def test_additive_fft_lane_table_guard(capsys, monkeypatch):
    # 2^18 points over GF(2^64) would take 1 GiB of lane tables; refused
    # (exit 3) before any level is built.  The expander's inner stream is
    # 8 * 32768 = 2^18-independent, and its 512 MiB graph is never drawn.
    import kgen.generator
    from kgen.field import Gf2w

    def no_levels(*args):
        raise AssertionError("field arithmetic ran before the lane-table guard")

    def no_sampling(*args):
        raise AssertionError("graph sampled before the inner stream was checked")

    monkeypatch.setattr(Gf2w, "inv", no_levels)
    monkeypatch.setattr(kgen.generator, "sample_graph", no_sampling)
    for shape in (["--kind", "fft-batch", "--k", "262144"],
                  ["--kind", "expander", "--k", "32768", "--c", "16", "--m", "1048576",
                   "--d", "8"]):
        code, out, err = run_cli(["gen", "--field", "gf2w:64", *shape, "--entropy",
                                  "--count", "1"], capsys)
        assert code == 3 and out == ""
        assert "1024 MiB of lane tables; the cap is 512 MiB" in err


@pytest.mark.parametrize("argv,name", [
    (_EXPANDER + ["--k", "0"], "k"),
    (_EXPANDER + ["--m", "0"], "m"),
    (_CASCADE + ["--t", "1", "--d", "0"], "d"),
    (_CASCADE + ["--t", "0"], "t"),
    (_BAD_INPUT["verify-seedlen-0"], "seedlen"),
])
def test_graph_shape_refused_before_sampling(argv, name, capsys, monkeypatch):
    # a shape parameter (or --seedlen) below 1 is refused by name before any
    # graph is drawn
    import kgen.generator

    def no_sampling(*args):
        raise AssertionError("graph sampled before the shape check")

    monkeypatch.setattr(kgen.generator, "sample_graph", no_sampling)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"error: need {name} >= 1, got --{name}=0" in err


def test_cli_option_count_pinned():
    # every option of every subcommand, --help aside; a new option changes
    # this count on purpose
    import argparse

    from kgen.cli import build_parser

    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [a for p in subs.choices.values() for a in p._actions
               if not isinstance(a, argparse._HelpAction)]
    assert len(options) == 55


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kgen", "gen", "--field", "gf2w:16",
         "--kind", "horner", "--k", "1", "--seed", "00ab", "--count", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["00ab", "00ab"]


@pytest.mark.parametrize("argv,first", [
    (["gen", "--field", "gf2w:32", "--kind", "fft-batch", "--k", "4",
      "--seed", "00000001000000020000000300000004", "--count", "2000000", "--format", "hex"],
     b"00000001\n"),
    (_LOADBALANCE + ["--m-machines", "2", "--b", "64", "--reps", "5000"],
     b"run,seed,peak_0,peak_1,overflow,bound\n"),
], ids=["gen", "loadbalance"])
def test_command_stops_quietly_when_the_reader_closes(argv, first):
    # `kgen gen ... | head -1`: no traceback, exit 0
    proc = subprocess.Popen([sys.executable, "-m", "kgen", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0, err
    assert err == b""


def test_cli_import_leaves_scipy_out():
    # scipy.stats alone would be most of kgen's start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kgen.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None; from kgen.cli import main; "
            "sys.exit(main(['verify', '--field', 'gf2w:64', '--kind', 'horner', "
            "'--k', '4', '--n', '8']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verdict=exact-pass k=4 positions=70 ")


@pytest.mark.parametrize("argv,loaded", [
    (["--field", "gf2w:64", "--kind", "fft-batch", "--k", "256"], False),
    (["--field", "gf2w:16", "--kind", "fft-batch", "--k", "128"], False),
    (["--field", "gfp:13", "--kind", "horner", "--k", "3"], False),
    (["--field", "gfp:2013265921", "--kind", "expander", "--k", "64", "--c", "4",
      "--m", "1024", "--d", "4", "--inner", "fft-batch"], True),
], ids=["fft-batch-gf2w64", "fft-batch-gf2w16", "horner", "expander"])
def test_numpy_random_is_loaded_only_by_graph_sampling(argv, loaded):
    # its import costs start-up time and resident memory, so a generator
    # without a graph never pays it
    code = ("import sys; from kgen.cli import main; "
            f"code = main(['gen', *{argv!r}, '--entropy', '--count', '1', "
            "'--format', 'bin', '--out', '-']); "
            "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().strip() == str(loaded)
