"""Host-speed references: fixed computations timed between units of work.

The machines this benchmark runs on change speed by 20-40% over seconds to
minutes (shared cores), in CPU time as much as in wall-clock time.  So each
run times a reference kernel between units of the program's work and scales
every timed sample by

    REF_S[kernel] / (median kernel time around that sample)

Scaled times read as seconds on a host that runs the kernel in REF_S, about
what the 2-core box the benchmark was defined on took when quiet.  A host
slowdown hits different kinds of Python work by different amounts, so each
workload has a kernel in the style of the work it measures, sharing no code
with the program:

  rational  exact Fraction arithmetic and tuple counting (the planner)
  search    depth-first backtracking over list budgets (the exact-cover search)
  parse     splitting certificate text into sorted 4-tuples and counting
            them and their vertex degrees (parse and verify)
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

WINDOW = 3  # probes on each side of a sample that set its scale


def rational() -> int:
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, 2 * i + 1)
    counts = Counter(combinations(range(14), 4))
    return acc.denominator % 7 + len(sorted((b[0] * 7 + b[3]) % 13 for b in counts))


def search(n: int = 8) -> int:
    """Count the placements of n non-attacking queens, with apply/undo budgets."""
    cols, diag, anti = [0] * n, [0] * (2 * n), [0] * (2 * n)

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for c in range(n):
            if cols[c] or diag[row - c + n] or anti[row + c]:
                continue
            cols[c] = diag[row - c + n] = anti[row + c] = 1
            found += place(row + 1)
            cols[c] = diag[row - c + n] = anti[row + c] = 0
        return found

    return place(0)


_TEXT = "\n".join(
    f"{i + 1}: " + ", ".join(" ".join(map(str, b)) for b in chunk)
    for i, chunk in enumerate(
        [list(combinations(range(1, 13), 4))[k::5] for k in range(5)]))


def parse() -> int:
    blocks = []
    for line in _TEXT.splitlines():
        _, _, body = line.partition(":")
        blocks.extend(tuple(sorted(int(x) for x in chunk.split()))
                      for chunk in body.split(","))
    counts = Counter(blocks)
    degree = [0] * 13
    for b in blocks:
        for v in b:
            degree[v] += 1
    return len(counts) + sum(degree)


KERNELS = {"rational": rational, "search": search, "parse": parse}
REF_S = {"rational": 0.0013, "search": 0.0013, "parse": 0.0007}


class SpeedProbe:
    """Kernel times in the order taken; samples refer to them by index."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.run = KERNELS[kernel]
        self.times: list[float] = []

    def probe(self) -> int:
        """Time the kernel once; the index to tag the next samples with."""
        t0 = time.perf_counter()
        self.run()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def scale(self, index: int) -> float:
        """Factor turning a raw time taken after probe ``index`` into reference time."""
        window = self.times[max(0, index - WINDOW + 1):index + WINDOW + 1]
        return REF_S[self.kernel] / statistics.median(window)

    def median_s(self) -> float:
        return statistics.median(self.times)
