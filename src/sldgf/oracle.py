"""Two independent brute-force sector-length computations.

Both oracles sweep all 2^n bitmasks, bit-sliced over Python ints. The masks
are cut into chunks of 2^B, B = min(n, _CHUNK_BITS): a chunk fixes the bits
of the vertices at or above B and runs through every setting of the B low
ones. A plane is a 2^B-bit int whose bit c holds one vertex's property in
the chunk's mask c, so one int operation acts on all 2^B masks of a chunk
at once. Within a chunk a high vertex is constant, which makes its planes
all-zero or all-one; a high vertex in the mask is counted once per chunk as
an offset to k, and otherwise only flips the planes it touches.

The two oracles share no plane, counter or readout code. The first builds
each low vertex's black plane from a periodic byte pattern and a vertex's
black-neighbour parity plane as the XOR of its low neighbours' black planes;
in each chunk every vertex selects one of two precomputed inadmissible
planes and adds it into a bit-sliced ripple counter, which is read off by
splitting on the counter planes. The second builds the X and Z planes of
the low generators' products by group doubling, Z(S + {j}) = Z(S) ^ N_j,
walks the high generators in Gray-code order, sums the support planes by a
pairwise adder tree and reads the weights off by equality masks. Both count
with int.bit_count. Agreement of the two is the ground truth every symbolic
result is checked against.
"""

from __future__ import annotations

from .family import SLD, Graph

DEFAULT_VERTEX_CAP = 24
_CHUNK_BITS = 16


class VertexCapExceeded(ValueError):
    """Graph with more than DEFAULT_VERTEX_CAP vertices, too many for a
    2^n sweep."""


def _check_cap(g: Graph) -> None:
    if g.vertex_count > DEFAULT_VERTEX_CAP:
        raise VertexCapExceeded(f"{g.vertex_count} vertices exceed the "
                                f"brute-force cap of {DEFAULT_VERTEX_CAP}")


def _neighbour_bits(g: Graph) -> list[int]:
    bits = [0] * g.vertex_count
    for a, b in g.edges:
        bits[a] |= 1 << b
        bits[b] |= 1 << a
    return bits


def _black_plane(v: int, width: int) -> int:
    """Bit c set when bit v of c is, for c < 2^width, from a byte pattern:
    below bit 3 one byte repeats, from bit 3 on 2^(v-3) zero bytes alternate
    with as many 0xFF bytes."""
    if v < 3:
        pattern = bytes(((0xAA, 0xCC, 0xF0)[v],))
    else:
        run = 1 << (v - 3)
        pattern = b"\x00" * run + b"\xff" * run
    repeats = max(1, (1 << width) // (8 * len(pattern)))
    full = (1 << (1 << width)) - 1
    return int.from_bytes(pattern * repeats, "little") & full


def sld_bruteforce_colouring(g: Graph) -> SLD:
    """Sector lengths by enumerating black/white colourings.

    A vertex is admissible when it is white and has an even number of black
    neighbours; a colouring with k inadmissible vertices increments A_k.
    Within a chunk, vertex v is inadmissible on black_v | parity_v, where
    the low neighbours give the parity plane and the black high neighbours
    flip it as a whole; a black high vertex is inadmissible throughout and
    is counted as an offset. Each chunk adds its inadmissible planes into a
    ripple counter, one plane per bit of k, and splits its masks by k.
    """
    _check_cap(g)
    n = g.vertex_count
    width = min(n, _CHUNK_BITS)
    full = (1 << (1 << width)) - 1
    neighbours = _neighbour_bits(g)
    black = [_black_plane(v, width) for v in range(width)]
    # inadmissible[v][p]: where v is inadmissible when its black high
    # neighbours have parity p
    inadmissible = []
    for v in range(n):
        parity = 0
        for u in range(width):
            if neighbours[v] >> u & 1:
                parity ^= black[u]
        own = black[v] if v < width else 0
        inadmissible.append((own | parity, own | (full ^ parity)))
    counts = [0] * (n + 1)
    for high in range(0, 1 << n, 1 << width):
        counter = []
        for v in range(n):
            if high >> v & 1:
                continue
            plane = inadmissible[v][(high & neighbours[v]).bit_count() & 1]
            level = 0
            while plane:
                if level == len(counter):
                    counter.append(plane)
                    break
                carry = counter[level] & plane
                counter[level] ^= plane
                plane = carry
                level += 1
        groups = [full]
        for level_plane in reversed(counter):
            split = []
            for masks in groups:
                ones = masks & level_plane
                split += (masks ^ ones, ones)
            groups = split
        offset = high.bit_count()
        for k, masks in enumerate(groups):
            if masks:
                counts[offset + k] += masks.bit_count()
    return SLD(tuple(counts))


def _plane_sum(a: list[int], b: list[int]) -> list[int]:
    """Bit-sliced a + b, each a list of planes from the least bit up."""
    if len(a) < len(b):
        a, b = b, a
    out = []
    carry = 0
    for i, x in enumerate(a):
        y = b[i] if i < len(b) else 0
        half = x ^ y
        out.append(half ^ carry)
        carry = (x & y) | (carry & half)
    if carry:
        out.append(carry)
    return out


def sld_bruteforce_stabilizer(g: Graph) -> SLD:
    """Sector lengths by enumerating the stabilizer group.

    The generator for vertex j acts as X on j and Z on its neighbours N_j;
    the product over a generator subset S has X-support S and Z-support
    the XOR of N_j over j in S. The X and Z planes over the products of
    the low generators are built by doubling, Z(S + {j}) = Z(S) ^ N_j,
    which is group multiplication. Each chunk multiplies them by one
    product of the high generators, taken in Gray-code order so that one
    generator changes per chunk. A_k counts elements of Hamming weight
    popcount(X | Z) = k (phases are irrelevant to the weight).
    """
    _check_cap(g)
    n = g.vertex_count
    width = min(n, _CHUNK_BITS)
    neighbours = _neighbour_bits(g)
    x, z = [0] * n, [0] * n
    span, ones = 1, 1
    for j in range(width):
        for q in range(n):
            x[q] |= x[q] << span
            z[q] |= (z[q] ^ (ones if neighbours[j] >> q & 1 else 0)) << span
        x[j] |= ones << span
        span, ones = 2 * span, ones | ones << span
    # support[q][f]: where q is in the support when the high product's
    # Z-support holds q (f = 1) or not (f = 0)
    support = [(x[q] | z[q], x[q] | (ones ^ z[q])) for q in range(n)]
    counts = [0] * (n + 1)
    high_x = high_z = 0
    for step in range(1 << (n - width)):
        if step:
            j = width + (step & -step).bit_length() - 1
            high_x ^= 1 << j
            high_z ^= neighbours[j]
        summands = [[support[q][high_z >> q & 1]]
                    for q in range(n) if not high_x >> q & 1]
        heaviest = len(summands)
        while len(summands) > 1:
            summands = [_plane_sum(*summands[i:i + 2])
                        if i + 1 < len(summands) else summands[i]
                        for i in range(0, len(summands), 2)]
        weight = summands[0] if summands else []
        complement = [ones ^ plane for plane in weight]
        offset = high_x.bit_count()
        # no mask weighs more than the summands; an empty top carry plane
        # is dropped, so the planes may bound k more tightly
        for k in range(min(heaviest + 1, 1 << len(weight))):
            equal = ones
            for i, plane in enumerate(weight):
                equal &= plane if k >> i & 1 else complement[i]
            if equal:
                counts[offset + k] += equal.bit_count()
    return SLD(tuple(counts))
