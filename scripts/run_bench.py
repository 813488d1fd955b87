#!/usr/bin/env python3
"""Generation-time comparison: direct polynomial evaluation vs batch FFT vs
the graph-composed generator, in ns per value.

The direct/FFT comparison runs over GF(2^64) (where the crossover in k is
the interesting trend); the composed generator runs over an NTT-friendly
prime field so every batch size divides p-1.

Usage: python scripts/run_bench.py [max_log2_k]
"""

import sys

from kgen.cli import main

max_e = int(sys.argv[1]) if len(sys.argv) > 1 else 9
# fft-batch against horner from k=4, where one batch is a handful of values
fft_ks = ",".join(str(1 << e) for e in range(2, max_e + 1))
ks = ",".join(str(1 << e) for e in range(5, max_e + 1))

rc = main([
    "bench",
    "--field", "gf2w:64",
    "--k", fft_ks,
    "--kinds", "horner,fft-batch",
    "--values", "256",
    "--reps", "3",
])
rc |= main([
    "bench",
    "--field", "gfp:2013265921",
    "--k", ks,
    "--kinds", "expander",
    "--c", "16", "--m", str(1 << 13), "--d", "8",
    "--values", "1048576",
    "--reps", "3",
])
sys.exit(rc)
