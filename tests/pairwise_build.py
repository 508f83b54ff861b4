"""The paper's 4^k-state transfer build: the test-only reference.

The paper gives every boundary vertex four states, its colour and its
external parity, and a k-vertex boundary 4^k of them. The package builds
on three letters, white-even, white-odd and black: a black vertex is never
admissible and its parity enters no other vertex's count, so black-even
and black-odd are interchangeable, and merging them is an exact
(backward-lumpable) reduction of the paper's matrix. This module keeps
the paper's matrix, built apart from the package: every fill of every
boundary state is a list of (colour, parity) pairs, one per vertex,
restricted onto the next boundary vertex by vertex. The tests check
TransferSystem.columns and .vector against it through the merge
(merge_state): P^T T4 = T3 P^T and v3 = P^T v4, term by term.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from sldgf.algebra import LaurentPoly3, PolyMatrix
from sldgf.family import FamilySpec, Graph


def decode_states(index: int, size: int) -> list[tuple[int, int]]:
    """Split a base-4 composite index into (colour, parity) pairs,
    position 0 most significant."""
    out = []
    for pos in range(size):
        s = (index >> (2 * (size - 1 - pos))) & 3
        out.append((s >> 1, s & 1))
    return out


def merge_state(index: int, size: int) -> int:
    """The package's state of a base-4 composite index: each position's
    letter, white-even 0, white-odd 1 or black 2 whatever its parity, as
    a base-3 digit, position 0 most significant."""
    out = 0
    for colour, parity in decode_states(index, size):
        out = 3 * out + (2 if colour else parity)
    return out


def encode_states(states: Sequence[tuple[int, int]]) -> int:
    index = 0
    for colour, parity in states:
        index = (index << 2) | (colour << 1) | parity
    return index


def colouring_weight(g: Graph, colours: Sequence[int],
                     parities: Sequence[int]) -> int:
    """Number of admissible vertices: white, with even total black parity.

    The total parity of a vertex is its external parity plus the number of
    its black neighbours inside g.
    """
    if len(colours) != g.vertex_count or len(parities) != g.vertex_count:
        raise ValueError("colour/parity vectors must cover every vertex")
    masks = g.neighbour_masks
    colour_mask = 0
    for v, c in enumerate(colours):
        if c:
            colour_mask |= 1 << v
    weight = 0
    for v in range(g.vertex_count):
        if colours[v]:
            continue
        black = bin(masks[v] & colour_mask).count("1") + parities[v]
        if black % 2 == 0:
            weight += 1
    return weight


def neighbours(g: Graph, v: int) -> list[int]:
    out = [b for a, b in g.edges if a == v]
    out += [a for a, b in g.edges if b == v]
    return sorted(out)


def _restriction(g: Graph, retained: Sequence[int]):
    """Map a full state of g, one (colour, parity) pair per vertex, onto the
    composite index of the ordered vertex list ``retained``: a retained
    vertex keeps its colour and adds the black count of its dropped
    neighbours to its parity."""
    kept = set(retained)
    dropped = [[u for u in neighbours(g, v) if u not in kept] for v in retained]

    def restrict(pairs: Sequence[tuple[int, int]]) -> int:
        return encode_states(
            [(pairs[v][0], (pairs[v][1] + sum(pairs[u][0] for u in d)) % 2)
             for v, d in zip(retained, dropped)])
    return restrict


def pairwise_terms(spec: FamilySpec) -> tuple[list[dict], list[Counter]]:
    """The integer term maps (columns, vector) of spec's step matrix and
    initial vector, counted over lists of (colour, parity) pairs."""
    spec.validate()
    g, j, k = spec.base_graph, spec.replacement, len(spec.boundary)
    h = g.induced(spec.boundary)
    phi = [spec.glue_map[b] for b in spec.boundary]
    image = set(phi)
    fresh = [u for u in range(j.vertex_count) if u not in image]
    growth = len(fresh)
    to_next = _restriction(j, [spec.next_boundary_map[b] for b in spec.boundary])
    columns = [{} for _ in range(4 ** k)]
    for state, column in enumerate(columns):
        pairs = decode_states(state, k)
        w_h = colouring_weight(h, [c for c, _ in pairs], [p for _, p in pairs])
        full = [(0, 0)] * j.vertex_count
        for u, pair in zip(phi, pairs):
            full[u] = pair
        for fill in range(1 << growth):
            for i, u in enumerate(fresh):
                full[u] = ((fill >> i) & 1, 0)
            d = colouring_weight(j, [c for c, _ in full],
                                 [p for _, p in full]) - w_h
            column.setdefault(to_next(full), Counter())[d, growth - d, 0] += 1
    n = g.vertex_count
    to_boundary = _restriction(g, spec.boundary)
    vector = [Counter() for _ in range(4 ** k)]
    for mask in range(1 << n):
        colours = [(mask >> u) & 1 for u in range(n)]
        w = colouring_weight(g, colours, [0] * n)
        vector[to_boundary([(c, 0) for c in colours])][w, n - w, 0] += 1
    return columns, vector


def pairwise_matrices(spec: FamilySpec) -> tuple[PolyMatrix, PolyMatrix]:
    """The paper's step matrix T and initial vector v of spec, dense."""
    columns, vector = pairwise_terms(spec)
    return (PolyMatrix([[LaurentPoly3(c.get(i)) for c in columns]
                        for i in range(len(columns))]),
            PolyMatrix([[LaurentPoly3(terms)] for terms in vector]))
