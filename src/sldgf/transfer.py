"""Transfer-matrix construction for graph-family weight enumerators.

Every boundary vertex carries a state out of four: its colour (white/black)
and its external parity, the parity of black neighbours already absorbed
into the removed part of the graph. States are indexed 2*colour + parity
(white-even 0, white-odd 1, black-even 2, black-odd 3); a k-vertex boundary
is indexed base 4 with position 0 most significant.

One cut-and-glue step maps each boundary state and each colouring of the
fresh replacement vertices (external parity zero) onto the next boundary:
everything outside it is dropped, and dropped black neighbours fold into
the parities. The step matrix is built from that map in one pass, with
2^fresh entries per column, never enumerating the full replacement-graph
state space. The weight enumerator of member r is the component sum
1^T T^r v of the step matrix iterated on the base graph's state vector.

Most boundary states are interchangeable for that sum. The states are
partitioned into the coarsest backward-lumpable blocks (Kemeny & Snell,
Finite Markov Chains, ch. 6): for every block C and state s, the sum of
T[i][s] over the rows i in C depends only on the block of s. With P the
state-to-block indicator matrix this is P^T T = T' P^T, and with 1^T =
1^T P^T and v' = P^T v every member is 1^T T'^r v' exactly. The partition
is found by refinement on exact column-block sums, and the identity is
checked entry by entry whenever a TransferSystem is made. Every member,
generating function and certificate is computed on the quotient T'; T and
v stay the paper's matrix and vector.

The family generating function is derived from the minimal linear
recurrence of the members: Berlekamp-Massey on exact specialised iterates
gives the reduced denominator at sample points, which is interpolated back
to a trivariate polynomial inside a window bounded by the cycle means of
T'. The result is reduced by construction and certified against the exact
members (Cayley-Hamilton on T' bounds how many must agree) before it is
returned. Certifying on T' is sound because its members are the members,
by the checked identity. The fraction-free solve of (I - zT) u = v that
this replaced is kept as a test-only reference in tests/fraction_free.py,
and the iteration of the unlumped T in tests/unlumped.py.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import (CertificateError, LaurentPoly3,
                      NonConstantLeadingTermError, PolyMatrix, RatFunc3,
                      _berlekamp_massey, _interpolate_laurent,
                      ratfunc_normalize, series_coefficients)
from .family import FamilySpec, Graph

WHITE_EVEN, WHITE_ODD, BLACK_EVEN, BLACK_ODD = range(4)


def decode_states(index: int, size: int) -> list[tuple[int, int]]:
    """Split a base-4 composite index into (colour, parity) pairs,
    position 0 most significant."""
    out = []
    for pos in range(size):
        s = (index >> (2 * (size - 1 - pos))) & 3
        out.append((s >> 1, s & 1))
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
    masks = g.neighbour_masks()
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


def _restriction(g: Graph, retained: Sequence[int]):
    """Map a full state of g, one (colour, parity) pair per vertex, onto the
    composite index of the ordered vertex list ``retained``: a retained
    vertex keeps its colour and adds the black count of its dropped
    neighbours to its parity."""
    kept = set(retained)
    dropped = [[u for u in g.neighbours(v) if u not in kept] for v in retained]

    def restrict(pairs: Sequence[tuple[int, int]]) -> int:
        return encode_states(
            [(pairs[v][0], (pairs[v][1] + sum(pairs[u][0] for u in d)) % 2)
             for v, d in zip(retained, dropped)])
    return restrict


@dataclass(frozen=True)
class Quotient:
    """Exactly lumped step operator: block_of[s] is the block of boundary
    state s, rows[C] lists the nonzero entries (D, T'[C][D]) of the
    quotient step matrix, and v[C] sums the initial vector over block C."""

    block_of: tuple[int, ...]
    rows: tuple[tuple[tuple[int, LaurentPoly3], ...], ...]
    v: tuple[LaurentPoly3, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _block_sums(t: PolyMatrix, block_of: Sequence[int],
                state: int) -> dict[int, LaurentPoly3]:
    """Nonzero sums of column `state` of t over the rows of each block."""
    sums: dict[int, LaurentPoly3] = {}
    for i, row in enumerate(t.data):
        if not row[state].is_zero():
            b = block_of[i]
            sums[b] = sums.get(b, LaurentPoly3.zero()) + row[state]
    return {b: e for b, e in sums.items() if not e.is_zero()}


def _block_vector(v: PolyMatrix, block_of: Sequence[int],
                  count: int) -> tuple[LaurentPoly3, ...]:
    """P^T v: the initial vector summed over each of the count blocks."""
    out = [LaurentPoly3.zero()] * count
    for i, e in enumerate(v.column(0)):
        out[block_of[i]] = out[block_of[i]] + e
    return tuple(out)


def _lump(t: PolyMatrix, v: PolyMatrix) -> Quotient:
    """Coarsest backward-lumpable partition of the states and its quotient.

    Starting from one block, each round splits a block by the column-block
    sums of its states. Any lumpable partition refines every round's, so
    the first round that splits nothing gives the coarsest one. Blocks are
    numbered in the order of their first state. The quotient is checked by
    _check_lumping before it is returned.
    """
    n = t.rows
    block_of, count = [0] * n, 1
    while True:
        keys: dict = {}
        split = [keys.setdefault((block_of[s], frozenset(
            _block_sums(t, block_of, s).items())), len(keys))
            for s in range(n)]
        if len(keys) == count:
            break
        block_of, count = split, len(keys)
    first = {}
    for s, b in enumerate(block_of):
        first.setdefault(b, s)
    columns = [_block_sums(t, block_of, first[d]) for d in range(count)]
    rows = tuple(tuple((d, columns[d][c]) for d in range(count)
                       if c in columns[d]) for c in range(count))
    q = Quotient(tuple(block_of), rows, _block_vector(v, block_of, count))
    _check_lumping(t, v, q)
    return q


def _check_lumping(t: PolyMatrix, v: PolyMatrix, q: Quotient) -> None:
    """Check P^T T = T' P^T and v' = P^T v entry by entry, reading T' as
    the iteration does (repeated entries of a row add up); raise
    CertificateError if either fails or q.block_of is not a partition."""
    n, m = t.rows, q.dimension
    if len(q.block_of) != n or set(q.block_of) != set(range(m)):
        raise CertificateError("lumping is not a partition of the states")
    columns = [{} for _ in range(m)]
    for c, row in enumerate(q.rows):
        for d, e in row:
            if not 0 <= d < m:
                raise CertificateError(
                    f"lumped step matrix names block {d} of {m}")
            columns[d][c] = columns[d].get(c, LaurentPoly3.zero()) + e
    columns = [{c: e for c, e in col.items() if not e.is_zero()}
               for col in columns]
    for s in range(n):
        if _block_sums(t, q.block_of, s) != columns[q.block_of[s]]:
            raise CertificateError(
                f"lumped step matrix fails P^T T = T' P^T at state {s}")
    if _block_vector(v, q.block_of, m) != q.v:
        raise CertificateError("lumped initial vector is not P^T v")


@dataclass(frozen=True)
class TransferSystem:
    """Step matrix, initial vector, their exact quotient, and prefix data
    of one family.

    t, v and dimension are the paper's 4^k-state matrix and vector. The
    quotient is derived from them when the system is made, and checked
    against them entry by entry (P^T T = T' P^T, v' = P^T v, raising
    CertificateError otherwise); every member, generating function and
    certificate is computed from it. The system is frozen, so the quotient
    and the cached generating function always belong to t and v.
    """

    t: PolyMatrix
    v: PolyMatrix
    prefix_weps: tuple[LaurentPoly3, ...]
    z_shift: int
    spec: FamilySpec
    quotient: Quotient = field(init=False, repr=False, compare=False)
    _gf: RatFunc3 | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        object.__setattr__(self, "quotient", _lump(self.t, self.v))

    @property
    def dimension(self) -> int:
        return self.t.rows


def build_transfer_system(spec: FamilySpec) -> TransferSystem:
    """Assemble the transfer system of a validated family description.

    Column s of the step matrix T extends boundary state s into the
    replacement graph: the glued vertices inherit the boundary pairs, and
    each fill of the fresh vertices (external parity zero) adds the monomial
    x^d y^(growth - d), d the admissible-count difference, at the row of its
    restriction onto the next boundary. The initial vector v weights every
    colouring of the base graph by x^(admissible) y^(rest) at the row of
    its restriction onto the boundary.
    """
    spec.validate()
    g, j, k = spec.base_graph, spec.replacement, len(spec.boundary)
    h = g.induced(spec.boundary)
    phi = [spec.glue_map[b] for b in spec.boundary]
    image = set(phi)
    fresh = [u for u in range(j.vertex_count) if u not in image]
    growth = len(fresh)
    to_next = _restriction(j, [spec.next_boundary_map[b] for b in spec.boundary])
    t = PolyMatrix.zeros(4 ** k, 4 ** k)
    for state in range(4 ** k):
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
            row = to_next(full)
            t.data[row][state] = t.data[row][state] + LaurentPoly3.monomial(
                d, growth - d, 0)
    n = g.vertex_count
    to_boundary = _restriction(g, spec.boundary)
    v = PolyMatrix.zeros(4 ** k, 1)
    for mask in range(1 << n):
        colours = [(mask >> u) & 1 for u in range(n)]
        w = colouring_weight(g, colours, [0] * n)
        row = to_boundary([(c, 0) for c in colours])
        v.data[row][0] = v.data[row][0] + LaurentPoly3.monomial(w, n - w, 0)
    return TransferSystem(t=t, v=v, prefix_weps=spec.prefix_weps,
                          z_shift=spec.recursion_start, spec=spec)


def _weps(sys: TransferSystem, r_max: int, point=None):
    """Yield W_0 .. W_r_max by iterating the quotient step matrix.

    Without a point the members are exact polynomials; with point =
    (x0, y0) every entry is first evaluated there, so the same recursion
    runs over exact rationals and yields the values W_r(x0, y0).
    """
    if point is None:
        zero, at = LaurentPoly3.zero(), (lambda e: e)
    else:
        x0, y0 = Fraction(point[0]), Fraction(point[1])
        zero, at = Fraction(0), (lambda e: e.eval_xy(x0, y0))
    for w in sys.prefix_weps[:r_max + 1]:
        yield at(w)
    if r_max < sys.z_shift:
        return
    rows = [[(k, at(e)) for k, e in row] for row in sys.quotient.rows]
    vec = [at(e) for e in sys.quotient.v]
    for r in range(sys.z_shift, r_max + 1):
        if r > sys.z_shift:
            vec = [sum((c * vec[k] for k, c in row), zero) for row in rows]
        yield sum(vec, zero)


def wep_by_iteration(sys: TransferSystem, r: int) -> LaurentPoly3:
    """Exact weight enumerator of member r by iterating the step matrix."""
    if r < 0:
        raise ValueError("member index must be nonnegative")
    return deque(_weps(sys, r), maxlen=1).pop()


def iter_weps(sys: TransferSystem, r_max: int):
    """Yield the exact weight enumerators of members 0..r_max in order."""
    yield from _weps(sys, r_max)


def wep_values_by_iteration(sys: TransferSystem, x0, y0,
                            r_max: int) -> list:
    """Exact values W_r(x0, y0) for r = 0..r_max by specialised iteration.

    Same recursion as wep_by_iteration with the step matrix evaluated at
    exact rational (x0, y0); much faster for long sweeps.
    """
    return list(_weps(sys, r_max, (x0, y0)))


def _min_cycle_mean(rows, weight) -> Fraction | None:
    """Least mean weight over the cycles of the graph with an edge c -> d of
    weight weight(e) for each entry (d, e) of rows[c]; None without a cycle.

    Karp (1978), with walks starting anywhere: D_k(v) is the least weight
    of a k-edge walk ending at v, and the least cycle mean is the minimum
    over v of max_k (D_n(v) - D_k(v)) / (n - k). O(n m) in exact arithmetic.
    """
    n = len(rows)
    walks = [[0] * n]
    for _ in range(n):
        last, nxt = walks[-1], [None] * n
        for c, row in enumerate(rows):
            if last[c] is not None:
                for d, e in row:
                    w = last[c] + weight(e)
                    if nxt[d] is None or w < nxt[d]:
                        nxt[d] = w
        walks.append(nxt)
    return min((max(Fraction(walks[n][v] - walks[k][v], n - k)
                    for k in range(n))
                for v in range(n) if walks[n][v] is not None), default=None)


def _minimal_denominator(sys: TransferSystem) -> tuple[LaurentPoly3, int]:
    """Reduced denominator of sum_k W_(start+k) z^k and its recurrence order.

    From the recursion start on, W_r is homogeneous of degree n0 + s (r -
    start) with s the qubit step, so the series is x^n0 G(y/x, x^s z). At
    points t the values W_r(1, t) obey the minimal recurrence whose
    connection polynomial is the reduced denominator Q(t, u) of G, normalised
    to Q(t, 0) = 1; Berlekamp-Massey finds it from 2 dim T' values. Points
    where the order drops below the largest seen are skipped.

    Q divides det(I - u T'(1, t)), and with both normalised to 1 at u = 0
    the Newton polygon of Q lies inside that of the determinant. The u^k
    coefficient of the determinant sums over covers of k states by disjoint
    cycles, so its t-exponents lie between k m_min and k m_max, the least
    and greatest cycle means of T' weighted by its least and greatest
    y-exponents. Each coefficient of Q is interpolated as a Laurent
    polynomial over [ceil(k m_min), floor(k m_max)] and re-homogenised.
    Without a cycle T' is nilpotent, the members stop after start + dim T'
    - 1, and the denominator is 1.
    """
    q = sys.quotient
    n, start, step = q.dimension, sys.z_shift, sys.spec.qubit_step
    m_min = _min_cycle_mean(q.rows, lambda e: min(ey for _, ey, _ in e.terms))
    if m_min is None:
        return LaurentPoly3.const(1), n
    m_max = -_min_cycle_mean(q.rows,
                             lambda e: -max(ey for _, ey, _ in e.terms))
    windows = [(math.ceil(k * m_min), math.floor(k * m_max))
               for k in range(n + 1)]
    order, samples, t = 0, [], Fraction(1)
    while not samples or len(samples) < max(
            hi - lo + 1 for lo, hi in windows[:order + 1]):
        t += 1
        seq = wep_values_by_iteration(sys, 1, t, start + 2 * n - 1)[start:]
        c, length = _berlekamp_massey(seq)
        if length > order:
            order, samples = length, []
        if length == order:
            samples.append((t, c + [Fraction(0)] * (order + 1 - len(c))))
    points = [t for t, _ in samples]
    terms = {}
    for k in range(order + 1):
        lo, hi = windows[k]
        if lo > hi:
            continue
        q_k = _interpolate_laurent(points, [c[k] for _, c in samples], lo, hi)
        for e, coeff in q_k.items():
            terms[(step * k - e, e, k)] = coeff
    return LaurentPoly3(terms), order


def certify_family_gf(sys: TransferSystem, gf: RatFunc3) -> None:
    """Prove that gf is the family's generating function, or raise.

    The members from the recursion start on satisfy the Cayley-Hamilton
    recurrence of order dim T' (the quotient's members are the members), so
    gf minus the true function has a numerator of z-degree at most
    M = max(deg_z p + dim T', deg_z q + start + dim T' - 1); agreement of
    the series on z^0 .. z^M therefore proves the identity.
    Raises CertificateError on the first member that disagrees, or when gf
    has no power series because q(x, y, 0) is not a nonzero constant.
    """
    n = sys.quotient.dimension
    bound = max(gf.num.max_degree_z() + n,
                gf.den.max_degree_z() + sys.z_shift + n - 1)
    try:
        series = series_coefficients(gf, bound)
    except NonConstantLeadingTermError as exc:
        raise CertificateError(f"{sys.spec.name}: {exc}") from exc
    for r, wep in enumerate(iter_weps(sys, bound)):
        if series[r] != wep:
            raise CertificateError(
                f"{sys.spec.name}: closed form disagrees with member {r}")


def family_gf(sys: TransferSystem) -> RatFunc3:
    """Closed-form generating function of the family's weight enumerators.

    The denominator is the reduced one of the minimal recurrence the members
    obey (see _minimal_denominator); the numerator is that denominator times
    the first start + order members, truncated below z^(start + order). The
    pair is therefore reduced by construction, canonicalised, and certified
    against the exact members by certify_family_gf before it is returned.
    """
    if sys._gf is not None:
        return sys._gf
    den, order = _minimal_denominator(sys)
    cut = sys.z_shift + order
    head = LaurentPoly3.zero()
    for r, wep in enumerate(iter_weps(sys, cut - 1)):
        head = head + wep.shift((0, 0, r))
    num = LaurentPoly3({e: c for e, c in (den * head).terms.items()
                        if e[2] < cut})
    gf = ratfunc_normalize(num, den)
    certify_family_gf(sys, gf)
    object.__setattr__(sys, "_gf", gf)
    return gf
