"""Pinned sha256 hashes of small bin-format streams, one per kind and field
family: the bit-identical invariant every refactor of the stream paths
keeps.  The configurations and hashes are those of perfbench/golden.py
(default workload seed 1); a changed hash means kgen's output changed.
The benchmark's own self-test runs here too, as a subprocess.
"""

import hashlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from kgen.entropy import spawn_rng
from kgen.field import parse_field_spec
from kgen.generator import (
    FftBatchGenerator,
    HornerGenerator,
    build_cascade_generator,
    build_expander_generator,
    write_stream,
)

# name -> (field, parameters, values streamed, sha256 of the stream)
GOLDEN = {
    "horner/gf2w:64": (
        "gf2w:64", dict(k=8), 256,
        "c7fda4c2ae9f1a06854686d1c8fda9f80016326d00221335c032e46de9f0698f"),
    "horner/gfp:2013265921": (
        "gfp:2013265921", dict(k=8), 256,
        "3d36cb0df493f40c2787d12d3bf9e6721aba95905ea19b151f52e70b57d2b50d"),
    "fft-batch/gf2w:64": (
        "gf2w:64", dict(k=16), 64,
        "e3cae2298f58017fd9977f25f467ff344822093222920cfb8c33115a237c64ea"),
    "fft-batch/gfp:2013265921": (
        "gfp:2013265921", dict(k=16), 64,
        "b1ec461769eeeaceaed8946267dadf7b467cc019cca6f23e99af58118ac15306"),
    "expander/gf2w:16": (
        "gf2w:16", dict(k=8, c=4, m=256, d=4), 2048,
        "0d6591cf015e4d44601d59ac9825b19fea7d0efb5e1b41bc36b4a3519684f643"),
    "expander/gfp:2013265921": (
        "gfp:2013265921", dict(k=8, c=4, m=256, d=4), 2048,
        "c90406f311497d6d1cced9eecafef6b1305e1fe8a3fd50830f5871d113a25e6c"),
    "cascade/gf2w:8": (
        "gf2w:8", dict(k=2, c=2, d=2, t=2, m0=64, base="horner"), 512,
        "87182dff044aa05fca70f02c679b6af8a2057f02e297d7cccdbe5ac7e48bbd9b"),
    "cascade/gfp:257": (
        "gfp:257", dict(k=2, c=2, d=2, t=2, m0=64, base="fft-batch"), 512,
        "61877966ad95f36a1354123e2141fe74512991e031881b7cee5304270eada3cd"),
}


def small_stream(name: str, seed: int = 1) -> bytes:
    """Graphs from spawn_rng(seed, name, "graph"), generator seeds from
    spawn_rng(seed, name)."""
    spec, p, count, _ = GOLDEN[name]
    kind = name.split("/")[0]
    field = parse_field_spec(spec)
    rng = spawn_rng(seed, name)
    graph_rng = spawn_rng(seed, name, "graph")
    if kind == "horner":
        gen = HornerGenerator(field, p["k"], [field.random_element(rng) for _ in range(p["k"])])
    elif kind == "fft-batch":
        gen = FftBatchGenerator(field, p["k"], [field.random_element(rng) for _ in range(p["k"])])
    else:
        if kind == "expander":
            proto = build_expander_generator(field, p["k"], p["c"], p["m"], p["d"],
                                             "fft-batch", rng=graph_rng)
        else:
            proto = build_cascade_generator(field, p["k"], p["c"], p["d"], p["t"], p["base"],
                                            rng=graph_rng, m0=p["m0"])
        gen = proto.fork([field.random_element(rng) for _ in range(proto.descriptor.seed_len)])
    out = io.BytesIO()
    assert write_stream(gen, out, count) == count
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_hash_pinned(name):
    assert hashlib.sha256(small_stream(name)).hexdigest() == GOLDEN[name][3]


def test_perfbench_self_test_passes():
    # the benchmark's own tiny-scale run: its golden streams, the builder
    # keywords and layer probes it calls, and its fault gates (about 5 s, no
    # files written); a change that breaks what the benchmark reaches fails here
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout
