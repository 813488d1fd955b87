import io
import random
import subprocess
import sys

import pytest

from kgen.cli import main


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


def test_verify_threads_flag(capsys):
    code1, out1, _ = run_cli(
        ["verify", "--field", "gfp:5", "--kind", "horner", "--k", "2"], capsys)
    code2, out2, _ = run_cli(
        ["verify", "--field", "gfp:5", "--kind", "horner", "--k", "2",
         "--threads", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


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


@pytest.mark.parametrize("kind", ["expander", "cascade"])
def test_gen_graph_comes_from_graph_seed(tmp_path, capsys, kind):
    # gen must emit the graph verify certifies: spawn_rng(--graph-seed, "graph")
    from kgen.entropy import spawn_rng
    from kgen.field import Gfp
    from kgen.generator import (build_cascade_generator, build_expander_generator,
                                seed_to_hex, write_stream)

    f = Gfp(257)
    if kind == "expander":
        shape = ["--c", "2", "--m", "16", "--d", "2"]
        proto = build_expander_generator(f, 2, 2, 16, 2, inner_kind="fft-batch",
                                         rng=spawn_rng(7, "graph"))
    else:
        shape = ["--c", "2", "--m", "16", "--d", "2", "--t", "2"]
        proto = build_cascade_generator(f, 2, 2, 2, 2, base_kind="fft-batch",
                                        rng=spawn_rng(7, "graph"), m0=16)
    rng = random.Random(5)
    seed = [f.random_element(rng) for _ in range(proto.descriptor.seed_len)]
    want = io.BytesIO()
    write_stream(proto.fork(seed), want, 64)
    out_file = tmp_path / "stream.bin"
    code, _, _ = run_cli(
        ["gen", "--field", "gfp:257", "--kind", kind, "--k", "2", *shape,
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
    code, out, _ = run_cli(
        ["verify", "--field", "gfp:3", "--kind", "horner", "--k", "3",
         "--seedlen", "2"], capsys)
    assert code == 1 and "exact-fail" in out
    code, _, err = run_cli(
        ["verify", "--field", "gfp:101", "--kind", "horner", "--k", "4"], capsys)
    assert code == 3 and "guard" in err


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


def test_verify_screen(capsys):
    code, out, _ = run_cli(
        ["verify", "--field", "gf2w:16", "--kind", "horner", "--k", "2",
         "--screen", "--window", "16", "--trials", "500", "--seedlen", "4"],
        capsys)
    assert code == 0 and "screen-pass" in out


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
         "--full", "--log2-m-cap", "10"], capsys)
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 4
    assert all(line.split(",")[2] == "1" for line in lines)  # m = 2 everywhere


def test_search_infeasible_exit(capsys):
    code, out, err = run_cli(
        ["search", "--k", "1024", "--c", "2", "--d", "2", "--delta", "1e-30",
         "--log2-m-cap", "6"], capsys)
    assert code == 1
    assert "no feasible" in err


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
    assert lines[0] == "k,kind,ns_per_value,inner_ns,lookup_ns"
    assert len(lines) == 5


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kgen", "gen", "--field", "gf2w:16",
         "--kind", "horner", "--k", "1", "--seed", "00ab", "--count", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["00ab", "00ab"]
