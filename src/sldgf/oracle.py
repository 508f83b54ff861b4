"""Two independent brute-force sector-length computations.

Both oracles sweep all 2^n bitmasks as split tables. The n vertices are cut
into a low half of L = ceil(n/2) bits and a high half of n - L bits; a mask
is a low part ORed with a shifted high part, and each oracle builds one
table of at most 2^12 words per half. A block of high rows is broadcast
against the low row, so every mask costs a fixed handful of array passes
(XOR, OR, OR, popcount, bincount) whatever n is, in chunks of at most
2^_BLOCK_BITS masks. Words are uint32, which holds every vertex up to the
cap.

The two oracles share no admissibility or weight logic and build their
own tables: the first packs, for every colouring of a half, each vertex's
black-neighbour parity into that vertex's bit and counts colourings by
their inadmissible vertices; the second builds the Z-supports of
generator products by doubling, Z(S + {j}) = Z(S) ^ N_j, and counts
stabilizer-group elements by Hamming weight. Agreement of the two is the
ground truth every symbolic result is checked against.
"""

from __future__ import annotations

from .family import SLD, Graph

DEFAULT_VERTEX_CAP = 24
_BLOCK_BITS = 20


class VertexCapExceeded(ValueError):
    """Graph with more than DEFAULT_VERTEX_CAP vertices, too many for a
    2^n sweep."""


def _check_cap(g: Graph) -> None:
    if g.vertex_count > DEFAULT_VERTEX_CAP:
        raise VertexCapExceeded(f"{g.vertex_count} vertices exceed the "
                                f"brute-force cap of {DEFAULT_VERTEX_CAP}")


def sld_bruteforce_colouring(g: Graph) -> SLD:
    """Sector lengths by enumerating black/white colourings.

    A vertex is admissible when it is white and has an even number of black
    neighbours; a colouring with k inadmissible vertices increments A_k.
    Each half's table holds, for every colouring c of that half, the word
    whose bit v is popcount(c & N_v) & 1. Black-neighbour parities add
    over the halves, so the inadmissible vertices of a whole colouring are
    the 1 bits of c | (P_lo ^ P_hi).
    """
    import numpy as np

    _check_cap(g)
    n = g.vertex_count
    if n == 0:
        return SLD((1,))
    low = (n + 1) // 2
    masks = np.zeros(n, dtype=np.uint32)
    for a, b in g.edges:
        masks[a] |= np.uint32(1 << b)
        masks[b] |= np.uint32(1 << a)
    vertex_bit = np.uint32(1) << np.arange(n, dtype=np.uint32)
    lo_black = np.arange(1 << low, dtype=np.uint32)
    hi_black = np.arange(1 << (n - low), dtype=np.uint32) << np.uint32(low)
    lo_parity, hi_parity = (
        np.bitwise_or.reduce(
            (np.bitwise_count(black[:, None] & masks) & 1) * vertex_bit, axis=1)
        for black in (lo_black, hi_black))
    col_bits = min(low, _BLOCK_BITS)
    rows, cols = 1 << min(n - low, _BLOCK_BITS - col_bits), 1 << col_bits
    counts = np.zeros(n + 1, dtype=np.int64)
    for h in range(0, len(hi_black), rows):
        for c in range(0, len(lo_black), cols):
            bad = hi_parity[h:h + rows, None] ^ lo_parity[c:c + cols]
            bad |= lo_black[c:c + cols]
            bad |= hi_black[h:h + rows, None]
            counts += np.bincount(np.bitwise_count(bad).ravel(),
                                  minlength=n + 1)
    return SLD(tuple(int(a) for a in counts))


def sld_bruteforce_stabilizer(g: Graph) -> SLD:
    """Sector lengths by enumerating the stabilizer group.

    The generator for vertex j acts as X on j and Z on its neighbours N_j;
    the product over a generator subset S has X-support S and Z-support
    the XOR of N_j over j in S. Each half's Z table is built by doubling,
    Z(S + {j}) = Z(S) ^ N_j, which is group multiplication, and a whole
    product's Z-support is Z_lo ^ Z_hi. A_k counts elements of Hamming
    weight popcount(X | Z) = k (phases are irrelevant to the weight).
    """
    import numpy as np

    _check_cap(g)
    n = g.vertex_count
    if n == 0:
        return SLD((1,))
    low = (n + 1) // 2
    neighbour_bits = [0] * n
    for a, b in g.edges:
        neighbour_bits[a] |= 1 << b
        neighbour_bits[b] |= 1 << a
    tables = []
    for generators in (neighbour_bits[:low], neighbour_bits[low:]):
        z = np.zeros(1 << len(generators), dtype=np.uint32)
        for j, word in enumerate(generators):
            z[1 << j:2 << j] = z[:1 << j] ^ np.uint32(word)
        tables.append(z)
    lo_z, hi_z = tables
    lo_x = np.arange(1 << low, dtype=np.uint32)
    hi_x = np.arange(1 << (n - low), dtype=np.uint32) << np.uint32(low)
    col_bits = min(low, _BLOCK_BITS)
    rows, cols = 1 << min(n - low, _BLOCK_BITS - col_bits), 1 << col_bits
    counts = np.zeros(n + 1, dtype=np.int64)
    for h in range(0, len(hi_z), rows):
        for c in range(0, len(lo_z), cols):
            support = hi_z[h:h + rows, None] ^ lo_z[c:c + cols]
            support |= lo_x[c:c + cols]
            support |= hi_x[h:h + rows, None]
            counts += np.bincount(np.bitwise_count(support).ravel(),
                                  minlength=n + 1)
    return SLD(tuple(int(a) for a in counts))
