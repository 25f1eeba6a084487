"""Host speed reference for normalizing CPU times.

On a 2-vCPU virtual machine shared with other tenants, the speed of the
processor itself drifted by +-20% within seconds and between runs (two
vCPUs of unequal load), so raw CPU times of the same documents spread by
up to 25% from run to run. `kernel` is a fixed
pure-Python workload shaped like priocover's hot loops (a Fraction tableau
pivot and an interval DP over a dict); over blocks of about 2 s its time
tracked the documents' time with correlation 0.95. Every measured CPU time
is divided by the kernel time measured around it and multiplied by
REFERENCE_S, so reported seconds are seconds at the speed where the
kernel takes REFERENCE_S, about that machine's typical speed.

The kernel is part of the benchmark, not of priocover: it must stay
unchanged, or normalized times stop being comparable across commits.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.0065


def kernel():
    tab = [[Fraction((i * 7 + j * 3) % 11 - 3, 1 + (i + j) % 4) for j in range(14)] for i in range(9)]
    for p in range(7):
        r, c = p, (p * 5) % 14
        piv = tab[r][c] or Fraction(1)
        tab[r] = [a / piv for a in tab[r]]
        for i in range(9):
            f = tab[i][c]
            if i != r and f:
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
    n = 28
    cost = {(l, r): (l * 13 + r * 7) % 17 + 1 for l in range(1, n + 1) for r in range(l, n + 1)}
    opt = {}
    for length in range(1, n + 1):
        for l in range(1, n - length + 2):
            r = l + length - 1
            best = cost[(l, r)]
            for m in range(l, r):
                v = opt[(l, m)] + opt[(m + 1, r)]
                if v < best:
                    best = v
            opt[(l, r)] = best
    return tab, opt


def sample():
    """CPU seconds one kernel run takes now."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def factor(before, after):
    """Scale for a CPU time measured between two kernel samples."""
    return REFERENCE_S / ((before + after) / 2)
