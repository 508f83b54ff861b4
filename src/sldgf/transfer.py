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

The quotient is iterated over Python integers only, in one loop (_sums).
Its entries are homogeneous with nonnegative integer coefficients (a
system whose entries are not is refused with AlgebraError), so after the
shift T'' = x^alpha y^beta T', alpha, beta >= 0 clearing the x^-1 and
y^-1 entries, it can be evaluated at an integer point. A value at
(x0, y0) = (a, b)/d iterates T''(a, b) and makes one Fraction per member,
dividing by d^n a^(alpha m) b^(beta m). A symbolic member is read off by
Kronecker substitution (Harvey, JSC 2009): T'' is iterated at (1, 2^B),
and the base-2^B digits of the component sum are the member's
coefficients. A coefficient is at most the member's value at (1, 1),
2^n for a family since every column of T' sums to 2^growth there; the
same loop gives those values first, and 2^B is taken above the largest.
The digits of each decoded member must add up to its value at (1, 1)
again, or CertificateError is raised: a carry between digits lowers the
sum, so it cannot pass silently. Where the division above is undefined,
at a zero coordinate with alpha or beta positive, the decoded members are
evaluated instead.

The family generating function is derived from the minimal linear
recurrence of the members, read off the same loop: Berlekamp-Massey on
the sums at one Kronecker point (1, 2^B) gives the reduced denominator's
connection coefficients as integers, whose balanced base-2^B digits are
its coefficients (see _minimal_denominator). The result is reduced by
construction and certified against the exact members (Cayley-Hamilton on
T' bounds how many must agree) before it is returned. Certifying on T' is
sound because its members are the members, by the checked identity. The
fraction-free solve of (I - zT) u = v that this replaced is kept as a
test-only reference in tests/fraction_free.py, and the iteration of the
unlumped T in tests/unlumped.py.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import (AlgebraError, CertificateError, LaurentPoly3,
                      NonConstantLeadingTermError, PolyMatrix, RatFunc3,
                      _berlekamp_massey, _rational,
                      ratfunc_normalize, series_coefficients)
from .family import FamilySpec, Graph

WHITE_EVEN, WHITE_ODD, BLACK_EVEN, BLACK_ODD = range(4)

_FIRST_DIGIT_BITS = 16  # first digit width tried by _minimal_denominator

# the concentratable entanglement of a member is 1 - W_r at this (x, y)
CE_POINT = (Fraction(3, 4), Fraction(1, 4))


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
    """Step matrix, initial vector and their exact quotient for the family
    described by spec, which also gives the prefix members and the
    recursion start.

    t, v and dimension are the paper's 4^k-state matrix and vector. The
    quotient is derived from them when the system is made, and checked
    against them entry by entry (P^T T = T' P^T, v' = P^T v, raising
    CertificateError otherwise); every member, generating function and
    certificate is computed from it. The system is frozen, so the quotient
    and the cached generating function always belong to t and v.
    """

    t: PolyMatrix
    v: PolyMatrix
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
    return TransferSystem(t=t, v=v, spec=spec)


class _Homogenised(NamedTuple):
    """The quotient shifted to polynomials with nonnegative int coefficients.

    rows[C] lists (D, terms of T''[C][D]) and vec[C] the terms of v''[C],
    a term (i, j, c) standing for c x^i y^j, where T'' = x^alpha y^beta T'
    and v'' = x^alpha0 y^beta0 v'. With step = (alpha, beta, degree of T')
    and start = (alpha0, beta0, degree of v'), member start + m has degree
    degree0 + m degree and equals the component sum of T''^m v'' divided by
    x^(alpha m + alpha0) y^(beta m + beta0).
    """

    rows: list[list[tuple[int, list[tuple[int, int, int]]]]]
    vec: list[list[tuple[int, int, int]]]
    step: tuple[int, int, int]
    start: tuple[int, int, int]


def _shifted(entries: Sequence[LaurentPoly3]):
    """(alpha, beta, degree) and the terms of x^alpha y^beta e for each
    entry e, alpha and beta the least shifts that clear negative exponents.

    Raises AlgebraError unless every term is z-free with a nonnegative
    integer coefficient and all terms share one total degree, as every
    step matrix and initial vector of a family does (they count colourings).
    """
    terms = [e.terms.items() for e in entries]
    flat = [exp for ts in terms for exp, _ in ts]
    if len({ex + ey for ex, ey, _ in flat}) > 1 or any(ez for *_, ez in flat) \
            or any(c.denominator != 1 or c < 0 for ts in terms for _, c in ts):
        raise AlgebraError("the members need homogeneous, z-free entries with "
                           "nonnegative integer coefficients")
    alpha = max([0] + [-ex for ex, _, _ in flat])
    beta = max([0] + [-ey for _, ey, _ in flat])
    degree = flat[0][0] + flat[0][1] if flat else 0
    return (alpha, beta, degree), [
        [(ex + alpha, ey + beta, c.numerator) for (ex, ey, _), c in ts]
        for ts in terms]


def _homogenise(q: Quotient) -> _Homogenised:
    step, entries = _shifted([e for row in q.rows for _, e in row])
    start, vec = _shifted(q.v)
    it = iter(entries)
    rows = [[(d, next(it)) for d, _ in row] for row in q.rows]
    return _Homogenised(rows, vec, step, start)


def _at(h: _Homogenised, a: int, b: int):
    """T''(a, b) as sparse int rows and v''(a, b) as an int vector."""
    def value(terms):
        return sum(c * a ** i * b ** j for i, j, c in terms)
    return ([[(d, value(ts)) for d, ts in row] for row in h.rows],
            [value(ts) for ts in h.vec])


def _sums(rows, vec, steps: int):
    """Yield the component sums of vec, rows vec, ..., rows^steps vec: the
    one iteration loop behind every member and value, over Python ints."""
    yield sum(vec)
    for _ in range(steps):
        vec = [sum([c * vec[d] for d, c in row]) for row in rows]
        yield sum(vec)


def _digit_bytes(bound: int) -> int:
    """Bytes per Kronecker digit for coefficients of at most bound."""
    return max(1, -(-bound.bit_length() // 8))


def _members(h: _Homogenised, steps: int, first: int = 0):
    """Yield the exact members start + first .. start + steps, decoded from
    Kronecker digits of 8 width bits (see _weps); digit k of member
    start + m is the coefficient of y^(k - beta m - beta0)."""
    ones = list(_sums(*_at(h, 1, 1), steps))
    width = _digit_bytes(max(ones))
    (_, beta, degree), (_, beta0, degree0) = h.step, h.start
    sums = _sums(*_at(h, 1, 1 << 8 * width), steps)
    for m, (s, one) in enumerate(zip(sums, ones)):
        if m < first:
            continue
        raw = s.to_bytes(-(-s.bit_length() // 8), "little")
        n, shift, terms, total = degree0 + m * degree, beta * m + beta0, {}, 0
        for k in range(0, len(raw), width):
            c = int.from_bytes(raw[k:k + width], "little")
            if c:
                e = k // width - shift
                terms[(n - e, e, 0)] = Fraction(c)
                total += c
        if total != one:
            raise CertificateError(
                f"member digits sum to {total}, not {one}: a carry crossed "
                f"a {8 * width}-bit digit")
        yield LaurentPoly3(terms)


def _values(h: _Homogenised, x0: Fraction, y0: Fraction, steps: int) -> list:
    """Exact values at (x0, y0) of members start .. start + steps.

    With (x0, y0) = (a, b)/d over the least common denominator, member
    start + m is the component sum of T''(a, b)^m v''(a, b) divided by
    d^(degree0 + m degree) a^(alpha m + alpha0) b^(beta m + beta0). Where
    that divisor vanishes the members themselves are evaluated instead.
    """
    (alpha, beta, degree), (alpha0, beta0, degree0) = h.step, h.start
    d = math.lcm(x0.denominator, y0.denominator)
    a, b = int(x0 * d), int(y0 * d)
    if (a == 0 and (alpha or alpha0)) or (b == 0 and (beta or beta0)):
        return [w.eval_xy(x0, y0) for w in _members(h, steps)]
    per_step = d ** degree * a ** alpha * b ** beta
    den, out = d ** degree0 * a ** alpha0 * b ** beta0, []
    for s in _sums(*_at(h, a, b), steps):
        out.append(Fraction(s, den))
        den *= per_step
    return out


def _weps(sys: TransferSystem, r_max: int, r_min: int = 0):
    """Yield the exact members W_r_min .. W_r_max.

    The prefix members are given; the rest come from the integer kernel.
    The quotient is shifted to T'' = x^alpha y^beta T', a matrix of
    polynomials with nonnegative integer coefficients, and iterated at the
    Kronecker point (1, 2^B) over Python ints (_sums). Member start + m is
    the base-2^B digits of the component sum, shifted back by y^(beta m).
    The same loop at (1, 1) first gives each member's value there, which
    bounds every coefficient (2^n for a family), and 2^B is taken above
    the largest. The digits of each decoded member must add up to that
    value again; a carry between digits lowers the sum, so a shortfall
    raises CertificateError. Values at a rational point run the same loop
    (see _values).
    """
    if r_max < 0:
        raise ValueError("member index must be nonnegative")
    start = sys.spec.recursion_start
    yield from sys.spec.prefix_weps[r_min:r_max + 1]
    if r_max >= start:
        yield from _members(_homogenise(sys.quotient), r_max - start,
                            max(r_min - start, 0))


def wep_by_iteration(sys: TransferSystem, r: int) -> LaurentPoly3:
    """Exact weight enumerator of member r by iterating the step matrix."""
    return deque(_weps(sys, r, r), maxlen=1).pop()


def iter_weps(sys: TransferSystem, r_max: int):
    """Yield the exact weight enumerators of members 0..r_max in order."""
    yield from _weps(sys, r_max)


def wep_values_by_iteration(sys: TransferSystem, x0, y0,
                            r_max: int) -> list:
    """Exact values W_r(x0, y0) for r = 0..r_max by specialised iteration.

    The step matrix is evaluated at the numerators of (x0, y0) over their
    common denominator, and each member makes one Fraction (see _values).
    """
    if r_max < 0:
        raise ValueError("member index must be nonnegative")
    x0, y0 = _rational(x0), _rational(y0)
    start = sys.spec.recursion_start
    out = [w.eval_xy(x0, y0) for w in sys.spec.prefix_weps[:r_max + 1]]
    if r_max >= start:
        out += _values(_homogenise(sys.quotient), x0, y0, r_max - start)
    return out


def _balanced_digits(value: int, bits: int) -> list[int]:
    """Digits d_e in [-2^(bits-1), 2^(bits-1)), least significant first,
    with value = sum_e d_e 2^(bits e)."""
    digits, half, mask = [], 1 << bits - 1, (1 << bits) - 1
    while value:
        d = ((value + half) & mask) - half
        digits.append(d)
        value = (value - d) >> bits
    return digits


def _minimal_denominator(sys: TransferSystem) -> tuple[LaurentPoly3, int]:
    """Reduced denominator of sum_k W_(start+k) z^k and its recurrence order.

    From the recursion start on, W_r is homogeneous of degree n0 + s (r -
    start) with s the qubit step, so the series is x^n0 G(y/x, x^s z). The
    homogenised sums a_m(t) = 1^T T''(1, t)^m v''(1, t) are W_(start+m)(1,
    t) times t^(beta m + beta0), so their minimal recurrence has the
    connection polynomial Q(t, t^beta u) with Q the reduced denominator of
    G, normalised to 1 at u = 0. It divides det(I - u T''(1, t)), which
    lies in Z[t][u] and is 1 at u = 0, so by Gauss's lemma its coefficients
    c_k(t) lie in Z[t]. At the Kronecker point t = 2^B, Berlekamp-Massey
    on 2 dim T' sums gives the integers c_k(2^B), and their balanced
    base-2^B digits are the coefficients of c_k: digit e of c_k is the
    coefficient of x^(s k - e + beta k) y^(e - beta k) z^k.

    The width B starts at _FIRST_DIGIT_BITS and doubles while some c_k is
    not an integer, or while the decoded polynomial at t = 2 fails to
    annihilate the sums at t = 2 from index order on. The loop ends: once
    every coefficient is below 2^(B-1) in size and 2^B is no root of the
    finitely many polynomials whose vanishing lowers the order, the digits
    are the coefficients, and the true Q passes the check. The check only
    spares wasted certificates; certify_family_gf is the proof.
    """
    h = _homogenise(sys.quotient)
    beta, step = h.step[1], sys.spec.qubit_step
    steps = 2 * sys.quotient.dimension - 1
    at_two = list(_sums(*_at(h, 1, 2), steps))
    bits = _FIRST_DIGIT_BITS
    while True:
        c, order = _berlekamp_massey(list(_sums(*_at(h, 1, 1 << bits), steps)))
        if all(c_k.denominator == 1 for c_k in c):
            digits = [_balanced_digits(c_k.numerator, bits) for c_k in c]
            c_two = [sum(d << e for e, d in enumerate(ds)) for ds in digits]
            if not any(sum(c_k * at_two[m - k] for k, c_k in enumerate(c_two))
                       for m in range(order, steps + 1)):
                break
        bits *= 2
    return LaurentPoly3({(step * k - e + beta * k, e - beta * k, k): d
                         for k, ds in enumerate(digits)
                         for e, d in enumerate(ds) if d}), order


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
                gf.den.max_degree_z() + sys.spec.recursion_start + n - 1)
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
    cut = sys.spec.recursion_start + order
    head = LaurentPoly3.zero()
    for r, wep in enumerate(iter_weps(sys, cut - 1)):
        head = head + wep.shift((0, 0, r))
    num = LaurentPoly3({e: c for e, c in (den * head).terms.items()
                        if e[2] < cut})
    gf = ratfunc_normalize(num, den)
    certify_family_gf(sys, gf)
    object.__setattr__(sys, "_gf", gf)
    return gf
