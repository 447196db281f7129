"""How fast this machine runs Python right now.

Benchmark machines are often shared: other work on the same host can
make every Python instruction slower, by a third and more, for seconds
to minutes at a time.  `kernel` is a fixed pure-Python workload that
imports nothing from the program under test and exercises what the
engine spends its time on: small objects, tuples, dict copies,
isinstance checks, recursion and generator resumption.  Sampling it
between queries measures the current speed, so a timing can be scaled to
a reference machine on which one kernel call takes REFERENCE_S seconds:

    scaled = measured * REFERENCE_S / mean(kernel samples just before and after)

A change to the program does not change the kernel, so the scaling
removes only the machine's drift.
"""

import time

REFERENCE_S = 0.001


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def _length(cell) -> int:
    return 0 if cell is None else 1 + _length(cell.tail)


def _pairs(n: int):
    for i in range(n):
        yield i, i + 1


def kernel() -> int:
    acc = 0
    table: dict = {}
    for i in range(200):
        cell = None
        for j in range(12):
            cell = _Cell((j, i), cell)
        acc += _length(cell)
        grown = dict(table)
        grown[i] = cell
        table = grown if i % 40 else {}
        for a, b in _pairs(6):
            if isinstance(cell.head, tuple):
                acc += a * b
    return acc


def sample(out: list) -> None:
    """Time one kernel call and append the seconds it took to `out`."""
    t0 = time.perf_counter()
    kernel()
    out.append(time.perf_counter() - t0)
