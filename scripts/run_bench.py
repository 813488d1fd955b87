#!/usr/bin/env python3
"""Generation-time comparison: direct polynomial evaluation vs batch FFT vs
the graph-composed generator, in ns per value.

The direct/FFT comparison runs over GF(2^64) (where the crossover in k is
the interesting trend) for k = 4 ... 2^max_log2_k.  The composed generator
runs over an NTT-friendly prime field so every batch size divides p-1, for
k = 2^8 ... 2^16: the range over which its ns/value should stay flat.

Usage: python scripts/run_bench.py [max_log2_k]
"""

import sys

from kgen.cli import main

C, M, D = 16, 1 << 13, 8
EXPANDER_LOG2_K = range(8, 17)
# c * d * 2^16 values, so that k = 2^16 takes the whole output of its
# d*k = 2^19-point inner batch; `kgen bench` caps each smaller k at its own
# inner batch's output
EXPANDER_VALUES = C * D << 16

max_e = int(sys.argv[1]) if len(sys.argv) > 1 else 9
# fft-batch against horner from k=4, where one batch is a handful of values
fft_ks = ",".join(str(1 << e) for e in range(2, max_e + 1))
ks = ",".join(str(1 << e) for e in EXPANDER_LOG2_K)

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
    "--c", str(C), "--m", str(M), "--d", str(D),
    "--values", str(EXPANDER_VALUES),
    "--reps", "3",
])
sys.exit(rc)
