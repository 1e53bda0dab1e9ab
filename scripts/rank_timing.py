#!/usr/bin/env python3
"""Cost of one batched rank decision: ``linalg.rank_decision`` against LAPACK's SVD.

The batches are the shapes the residuals decompose: 289 1x2 matrices (the
H_P field of a scalar map on a 17^2 grid), 1089 and 4624 2x2 matrices (a
vectorial map on 33^2 and 68^2 nodes), and 200 3x3 matrices.  Entries are
standard normal, and every third matrix of a batch with N, n >= 2 is made
rank 1, as H_P is at the rank-deficient nodes.  "svd" is one
``np.linalg.svd`` call with U, the LAPACK reference of the tests;
"rotations" is one ``rank_decision`` call, which rotates rows instead.

Timings use stdlib ``timeit``.  The rounds interleave every timed
statement, and each figure is the best of ``--rounds`` rounds of
``--number`` calls, so that a busy spell on a shared host inflates no
single figure.

Usage: python scripts/rank_timing.py [--number 50] [--rounds 7]
"""

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from linfvar.linalg import rank_decision  # noqa: E402

SHAPES = ((289, 1, 2), (1089, 2, 2), (4624, 2, 2), (200, 3, 3))


def batch(shape):
    """Standard normal matrices, every third one rank 1 when both sides are at least 2."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=shape)
    if min(shape[1:]) >= 2:
        A[::3] = A[::3, :, :1] * rng.normal(size=(len(A[::3]), 1, shape[2]))
    return A


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--number", type=int, default=50, help="calls per timed run")
    ap.add_argument("--rounds", type=int, default=7, help="timed runs per statement; the best is reported")
    args = ap.parse_args()
    timed = {}
    for shape in SHAPES:
        A = batch(shape)
        timed[shape, "svd"] = lambda A=A: np.linalg.svd(A)
        timed[shape, "rotations"] = lambda A=A: rank_decision(A)
    best = {key: float("inf") for key in timed}
    for _ in range(args.rounds):
        for key, fn in timed.items():
            best[key] = min(best[key], timeit.timeit(fn, number=args.number) / args.number)
    print(f"{'batch':>12} {'svd ms':>8} {'rotations ms':>13}")
    for shape in SHAPES:
        print(f"{'x'.join(map(str, shape)):>12} {best[shape, 'svd'] * 1e3:>8.3f}"
              f" {best[shape, 'rotations'] * 1e3:>13.3f}")


if __name__ == "__main__":
    main()
