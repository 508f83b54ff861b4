"""Per-vertex brute-force oracles: the test-only reference.

The package's oracles are bit-sliced sweeps over Python ints. These are
per-vertex numpy sweeps, kept unchanged as the reference those oracles are
compared against: every 2^n bitmask in plain binary order, with the
per-vertex work vectorised over mask blocks.
"""

from __future__ import annotations

import numpy as np

from sldgf.family import SLD, Graph
from sldgf.oracle import _check_cap

_BLOCK_BITS = 20


def sld_bruteforce_colouring(g: Graph) -> SLD:
    """Sector lengths by enumerating black/white colourings.

    A vertex is admissible when it is white and has an even number of black
    neighbours; a colouring with w admissible vertices increments A_(n-w).
    """
    _check_cap(g)
    n = g.vertex_count
    if n == 0:
        return SLD((1,))
    masks = np.zeros(n, dtype=np.uint64)
    for a, b in g.edges:
        masks[a] |= np.uint64(1 << b)
        masks[b] |= np.uint64(1 << a)
    counts = np.zeros(n + 1, dtype=np.int64)
    block = 1 << min(_BLOCK_BITS, n)
    for start in range(0, 1 << n, block):
        colouring = np.arange(start, start + block, dtype=np.uint64)
        admissible = np.zeros(block, dtype=np.int64)
        for v in range(n):
            white = (colouring >> np.uint64(v)) & np.uint64(1) == 0
            black_neighbours = np.bitwise_count(colouring & masks[v])
            admissible += (white & (black_neighbours % 2 == 0)).astype(np.int64)
        counts += np.bincount(admissible, minlength=n + 1)
    sectors = tuple(int(counts[n - k]) for k in range(n + 1))
    return SLD(sectors)


def sld_bruteforce_stabilizer(g: Graph) -> SLD:
    """Sector lengths by enumerating the stabilizer group.

    The generator for vertex i acts as X on i and Z on its neighbours; the
    product over a generator subset S has X-support S and Z-support given by
    neighbour-count parities. A_k counts elements of Hamming weight k
    (phases are irrelevant to the weight).
    """
    _check_cap(g)
    n = g.vertex_count
    if n == 0:
        return SLD((1,))
    neighbour_bits = np.zeros(n, dtype=np.uint64)
    for a, b in g.edges:
        neighbour_bits[a] |= np.uint64(1 << b)
        neighbour_bits[b] |= np.uint64(1 << a)
    counts = np.zeros(n + 1, dtype=np.int64)
    block = 1 << min(_BLOCK_BITS, n)
    for start in range(0, 1 << n, block):
        subset = np.arange(start, start + block, dtype=np.uint64)
        support = np.zeros(block, dtype=np.int64)
        for q in range(n):
            x_bit = (subset >> np.uint64(q)) & np.uint64(1) == 1
            z_bit = np.bitwise_count(subset & neighbour_bits[q]) % 2 == 1
            support += (x_bit | z_bit).astype(np.int64)
        counts += np.bincount(support, minlength=n + 1)
    return SLD(tuple(int(c) for c in counts))
