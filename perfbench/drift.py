#!/usr/bin/env python3
"""Host drift probe: the same fixed numpy kernel, timed block after block.

    python3 perfbench/drift.py --seconds 60

Each block runs 3 600 small SVD + eigvalsh pairs, the inner step of the
support enumeration, on fixed inputs with one BLAS thread.  The work never
changes, so the spread of the block times (wall and CPU) is the host's own
drift; the benchmark's bounds have to sit above it.  Prints every block's
wall time in ms, then min / quartiles / max.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import statistics
import time

import numpy as np


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=float, default=60.0)
    args = p.parse_args()
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((16, 4)) for _ in range(3600)]
    a = rng.standard_normal((320, 16))
    wall, cpu = [], []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        w0, c0 = time.perf_counter(), time.process_time()
        for m in blocks:
            u = np.linalg.svd(m, full_matrices=False)[0]
            image = a @ u
            np.linalg.eigvalsh(image.T @ image)
        wall.append(1e3 * (time.perf_counter() - w0))
        cpu.append(1e3 * (time.process_time() - c0))
    print(" ".join("%.0f" % w for w in wall))
    for name, xs in (("wall", wall), ("cpu", cpu)):
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        print("%s ms: blocks %d min %.1f q1 %.1f median %.1f q3 %.1f max %.1f "
              "max/min %.2f" % (name, len(xs), min(xs), q1, q2, q3, max(xs),
                                max(xs) / min(xs)))


if __name__ == "__main__":
    main()
