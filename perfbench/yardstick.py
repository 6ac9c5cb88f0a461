"""A fixed unit of host speed, timed next to every measured sample.

The host shares its cores and slows the whole machine by up to 60%, in
bursts of seconds and in spells of minutes; CPU time equals wall time
throughout, so the slowdown is not time spent off the CPU.  No statistic
over one run removes a spell that outlasts the run.  The benchmark
therefore times this kernel, which never changes, just before and just
after each sample, and reports every time scaled to the host speed at
which the kernel takes REFERENCE_S seconds.

The kernel does what the engine's hot loops do, in its own code: sparse
polynomials as dicts from exponent tuples to Python ints, multiplied term
by term.  It expands the elementary symmetric functions of the 20 roots of
Sym^3 of a rank-4 bundle (sums of three of four formal roots), three times.
Adjacent samples of it and of a pass correlate by 0.7 to 0.9 on this kind
of host.
"""

from __future__ import annotations

import time
from itertools import combinations_with_replacement

# The kernel's seconds at the reference host speed (a 2.1 GHz Xeon vCPU with
# a quiet host).  It fixes only the scale of the reported times; a
# comparison between two commits does not depend on it.
REFERENCE_S = 0.15
RANK, POWER, REPEATS = 4, 3, 3


def _expand() -> list:
    zero = (0,) * RANK
    roots = []
    for combo in combinations_with_replacement(range(RANK), POWER):
        root = {}
        for i in combo:
            x = tuple(int(j == i) for j in range(RANK))
            root[x] = root.get(x, 0) + 1
        roots.append(root)
    # coefficients of prod (1 + root * t); slot i is e_i of the roots
    coeffs = [{zero: 1}]
    for root in roots:
        new = [coeffs[0]]
        for i in range(1, len(coeffs) + 1):
            acc = dict(coeffs[i]) if i < len(coeffs) else {}
            for ea, ca in coeffs[i - 1].items():
                for eb, cb in root.items():
                    key = tuple(a + b for a, b in zip(ea, eb))
                    acc[key] = acc.get(key, 0) + ca * cb
            new.append(acc)
        coeffs = new
    return coeffs


# e_20 of the roots is their product; its value at x = (1, 1, 1, 1) is 3^20
CHECK = 3 ** 20


def run() -> float:
    """Seconds of one kernel run; raises if the kernel computed a wrong
    answer."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        coeffs = _expand()
    seconds = time.perf_counter() - t0
    if sum(coeffs[-1].values()) != CHECK:
        raise RuntimeError("the yardstick kernel computed a wrong answer")
    return seconds


def scale(seconds: float, before: float, after: float) -> float:
    """A sample's seconds at reference host speed, from the kernel runs
    just before and just after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
