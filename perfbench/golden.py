"""Golden sha256 stream hashes: the bit-identical invariant every refactor of
kgen must keep.

Pinned are the bin-format streams of all four kinds (horner, fft-batch,
expander, cascade with an explicit m0) over both field families at small
configurations, and the output of each workload's first call, all at the
default workload seed.  A changed hash means kgen's output changed.

    python3 perfbench/golden.py     # print the hashes the current sources give
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# name -> (builder, field, parameters, values streamed)
SMALL = {
    "horner/gf2w:64": ("horner", "gf2w:64", dict(k=8), 256),
    "horner/gfp:2013265921": ("horner", "gfp:2013265921", dict(k=8), 256),
    "fft-batch/gf2w:64": ("fft-batch", "gf2w:64", dict(k=16), 64),
    "fft-batch/gfp:2013265921": ("fft-batch", "gfp:2013265921", dict(k=16), 64),
    "expander/gf2w:16": ("expander", "gf2w:16", dict(k=8, c=4, m=256, d=4), 2048),
    "expander/gfp:2013265921": ("expander", "gfp:2013265921",
                                dict(k=8, c=4, m=256, d=4), 2048),
    "cascade/gf2w:8": ("cascade", "gf2w:8",
                       dict(k=2, c=2, d=2, t=2, m0=64, base="horner"), 512),
    "cascade/gfp:257": ("cascade", "gfp:257",
                        dict(k=2, c=2, d=2, t=2, m0=64, base="fft-batch"), 512),
}


def _load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def expect(key: str, digest: str) -> list[str]:
    """[] when `digest` is the pinned hash for `key`, else one error line."""
    want = _load().get(key)
    if want == digest:
        return []
    return [f"golden {key}: got {digest}, pinned {want}"]


def small_stream(name: str, seed: int = DEFAULT_SEED) -> bytes:
    """The bin stream of one small configuration; graphs from
    spawn_rng(seed, name, "graph"), generator seeds from spawn_rng(seed, name)."""
    from kgen.entropy import spawn_rng
    from kgen.field import parse_field_spec
    from kgen.generator import (
        FftBatchGenerator,
        HornerGenerator,
        build_cascade_generator,
        build_expander_generator,
        write_stream,
    )

    kind, spec, p, count = SMALL[name]
    field = parse_field_spec(spec)
    rng = spawn_rng(seed, name)
    graph_rng = spawn_rng(seed, name, "graph")
    if kind == "horner":
        gen = HornerGenerator(field, p["k"], [field.random_element(rng) for _ in range(p["k"])])
    elif kind == "fft-batch":
        gen = FftBatchGenerator(field, p["k"], [field.random_element(rng) for _ in range(p["k"])])
    elif kind == "expander":
        gen = build_expander_generator(field, p["k"], p["c"], p["m"], p["d"], "fft-batch",
                                       rng=graph_rng)
    else:
        gen = build_cascade_generator(field, p["k"], p["c"], p["d"], p["t"], p["base"],
                                      rng=graph_rng, m0=p["m0"])
    if kind in ("expander", "cascade"):
        gen = gen.fork([field.random_element(rng) for _ in range(gen.descriptor.seed_len)])
    out = io.BytesIO()
    write_stream(gen, out, count)
    return out.getvalue()


def current() -> dict:
    """Hashes the current sources give, in golden.json's layout."""
    from workloads import WORKLOADS

    out = {f"stream/{name}": hashlib.sha256(small_stream(name)).hexdigest()
           for name in SMALL}
    for name, cls in WORKLOADS.items():
        w = cls(DEFAULT_SEED)
        w.setup()
        out[f"workload/{name}/op0"] = w.run_op(0, w.cfg["units"]).digest
    return out


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(current(), indent=2, sort_keys=True))
