"""A fixed block of reference work, timed around every timed command.

The machine this benchmark was written on is a few cores of a shared
host, and the speed it gives one process drifts: the same pure-Python
loop took from 20 to 46 ms within a minute. The drift slows the program
and this block alike, so a command's time divided by the time of the
blocks run around it measures the program with most of the drift taken
out. The benchmark reports that ratio times
``NOMINAL_S``, the block's median time on that machine, so the values
read as seconds at its median speed.

The block mixes the kinds of work pipescope does: interpreted Python
with dicts and floats, numpy calls on small arrays, a small dense solve,
and a pass over a few megabytes of memory. Its work is fixed; nothing in
it comes from pipescope, so a change to the program cannot change it.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

NOMINAL_S = 0.02  # median time of one block on the 2-core Xeon of README.md
NEIGHBOURS = 5  # blocks on each side of a command that give its speed reading


@functools.cache
def _inputs():
    rng = np.random.default_rng(20190912)
    matrix = rng.random((96, 96)) + 96.0 * np.eye(96)
    return matrix, rng.random(96), rng.random(400), rng.random(500_000)  # the last 4 MB


def _work() -> float:
    matrix, rhs, small, large = _inputs()
    acc, table = 0.0, {}
    for i in range(30000):
        acc += (i * 0.5) % 3.0
        table[i & 255] = acc
    for _ in range(50):
        x = np.linalg.solve(matrix, rhs)
        y = np.sort(small) * 0.5
        acc += float(x[0] + (y[:-1] + y[1:]).max())
    for _ in range(10):
        acc += float((large * 1.0001).sum())
    return acc


def block() -> float:
    """Seconds one block of reference work takes now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def scaled_times(walls: list[float], blocks: list[float]) -> list[float]:
    """Wall times of commands run one after another as seconds at the nominal speed.

    Command k ran between ``blocks[k]`` and ``blocks[k + 1]``, so there is
    one more block than commands. One block is a noisy reading of the
    speed, so a command is scaled by the median of the ``NEIGHBOURS``
    blocks on each side of it (fewer at the ends of the run): a steadier
    reading that still follows drift over tens of seconds.
    """
    if len(blocks) != len(walls) + 1:
        raise ValueError(f"{len(walls)} commands need {len(walls) + 1} blocks, not {len(blocks)}")
    return [
        wall * NOMINAL_S / statistics.median(blocks[max(0, k + 1 - NEIGHBOURS):k + 1 + NEIGHBOURS])
        for k, wall in enumerate(walls)
    ]
