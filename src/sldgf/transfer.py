"""Transfer-matrix construction for graph-family weight enumerators.

Every boundary vertex carries a letter: white-even 0, white-odd 1 or black
2, the parity being that of the black neighbours absorbed into the removed
part of the graph. The paper's four states also split black by parity, but
a black vertex is never admissible and its parity enters no other count, so
its 4^k-state matrix merges exactly onto these 3^k (tests/pairwise_build.py
keeps it as the reference). A k-vertex boundary is indexed base 3 with
position 0 most significant.

One cut-and-glue step maps each boundary state and each colouring of the
fresh replacement vertices (external parity zero) onto the next boundary:
everything outside it is dropped, and dropped black neighbours fold into
the parities. The step matrix is built from that map in one pass, with
2^fresh terms per column, never enumerating the full replacement-graph
state space. A colouring is counted as a colour bitmask and a parity
bitmask: the parities its black vertices add are the XOR of their
neighbour masks (linear over GF(2)), so its admissible count is the
popcount of ~(colours | parities ^ odd) on the graph's vertices, and the
XOR of each fill of the fresh vertices is computed once per build. The
weight enumerator of member r is the component sum
1^T T^r v of the step matrix iterated on the base graph's state vector.
T and v are stored once, as the integer term maps of their nonzero
entries (TransferSystem.columns and .vector); the dense PolyMatrix of
each is made only on request (.t, .v).

Most boundary states are interchangeable for that sum. The states are
partitioned into the coarsest backward-lumpable blocks (Kemeny & Snell,
Finite Markov Chains, ch. 6): for every block C and state s, the sum of
T[i][s] over the rows i in C depends only on the block of s. With P the
state-to-block indicator matrix this is P^T T = T' P^T, and with 1^T =
1^T P^T and v' = P^T v every member is 1^T T'^r v' exactly. The partition
is found by refinement on exact column-block sums over the nonzero
entries of T, and the identity is checked term by term whenever a
TransferSystem is made. Every member and generating function is computed
on T'.

The entries of T and v are homogeneous with int exponents and nonnegative
integer coefficients, or the system is refused with AlgebraError when it
is made, by a check that only reads them. Lumping and its check sum the
stored term maps. Only the quotient is shifted, by the least x^alpha
y^beta clearing its x^-1 and y^-1 entries: one loop (_sums) iterates T''
= x^alpha y^beta T' (Quotient) over Python ints.
A value at (x0, y0) = (a, b)/d iterates T''(a, b) and makes one
Fraction per member, dividing by d^n a^(alpha m) b^(beta m). The power of
2 that the sum and that divisor share is shifted out by bit counts first,
which roughly halves what Fraction's gcd is left to reduce at a dyadic
point; odd common factors are left to Fraction. A symbolic
member is read off by Kronecker substitution (Harvey, JSC 2009): T'' is
iterated at (1, 2^B), and the base-2^B digits of the component sum are
the member's coefficients. A coefficient is at most the member's value at
(1, 1), 2^n for a family since every column of T' sums to 2^growth there;
the same loop gives those values first, and 2^B is taken above the
largest. The digits of each decoded member must add up to its value at
(1, 1) again, or CertificateError is raised: a carry between digits
lowers the sum, so it cannot pass silently. These digits and the terms of
the prefix members form the one integer stream of every member
(_sector_lengths); the weight enumerators, the analysis layer's sector
lengths and the values where the division above is undefined (at a zero
coordinate with alpha or beta positive) all read it.

The family generating function is derived from the minimal linear
recurrence of the members, read off the same loop: Berlekamp-Massey on
the sums at one Kronecker point (1, 2^B) gives the reduced denominator's
connection coefficients as integers, whose balanced base-2^B digits are
its coefficients (see _minimal_denominator). The decoded recurrence is
proven on the sums at a second Kronecker point before it is used
(_annihilates), so the numerator is exact by construction; proving it on
T' is sound because its members are the members, by the checked
identity. The fraction-free solve of (I - zT) u = v that this replaced is
kept as a test-only reference in tests/fraction_free.py, and the
iteration of the unlumped T in tests/unlumped.py.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .algebra import (AlgebraError, CertificateError, LaurentPoly3,
                      PolyMatrix, RatFunc3, _berlekamp_massey, _rational,
                      ratfunc_normalize)
from .family import FamilySpec, Graph, _Frozen, sld_from_wep

_FIRST_DIGIT_BITS = 16  # first digit width tried by _minimal_denominator

# the concentratable entanglement of a member is 1 - W_r at this (x, y)
CE_POINT = (Fraction(3, 4), Fraction(1, 4))


def _state_masks(index: int, vertices: Sequence[int]) -> tuple[int, int]:
    """The colour and parity masks, bit v for vertex v, of the state index
    over the ordered vertices, position 0 most significant; a black vertex
    has parity 0."""
    colours = parities = 0
    for v in reversed(vertices):
        index, letter = divmod(index, 3)
        colours |= (letter >> 1) << v
        parities |= (letter & 1) << v
    return colours, parities


def _gather(mask: int, vertices: Sequence[int]) -> int:
    """The bits of mask at the ordered vertices, vertices[0] most
    significant: a position mask, linear over XOR."""
    out = 0
    for v in vertices:
        out = out << 1 | mask >> v & 1
    return out


def _odd(masks: Sequence[int], colours: int) -> int:
    """XOR of masks[v] over the black vertices v of colours; with neighbour
    masks, the parity mask of each vertex's black neighbours."""
    odd = 0
    while colours:
        v = colours.bit_length() - 1
        odd ^= masks[v]
        colours ^= 1 << v
    return odd


def _admissible(g: Graph, colours: int, parities: int) -> int:
    """Number of admissible vertices of g: white, with even parity once the
    external parities and the black neighbours inside g are added."""
    odd = parities ^ _odd(g.neighbour_masks, colours)
    return (~(colours | odd) & ((1 << g.vertex_count) - 1)).bit_count()


_Terms = tuple[tuple[int, int, int], ...]  # (i, j, c) stands for c x^i y^j


class Quotient(_Frozen):
    """Exactly lumped step operator, shifted to nonnegative integer terms.

    block_of[s] is the block of boundary state s, rows[C] lists the nonzero
    entries (D, terms of T''[C][D]) of the quotient step matrix, and v[C]
    the terms of v''[C], the initial vector summed over block C. Here T'' =
    x^alpha y^beta T' and v'' = x^alpha0 y^beta0 v' with step = (alpha,
    beta, degree of T') and start = (alpha0, beta0, degree of v'), so member
    start + m has degree degree0 + m degree and equals the component sum of
    T''^m v'' divided by x^(alpha m + alpha0) y^(beta m + beta0).
    """

    _fields = ("block_of", "rows", "v", "step", "start")

    def __init__(self, block_of: tuple[int, ...],
                 rows: tuple[tuple[tuple[int, _Terms], ...], ...],
                 v: tuple[_Terms, ...], step: tuple[int, int, int],
                 start: tuple[int, int, int]) -> None:
        vars(self).update(block_of=block_of, rows=rows, v=v, step=step,
                          start=start)

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _check_terms(columns: Sequence[dict], vector: Sequence[dict]) -> None:
    """Raise AlgebraError unless the term maps of T and v have n entries,
    int rows 0..n-1 and z-free terms with int exponents and nonnegative int
    or integral Fraction coefficients (a bool is no int), of one total
    degree in T and one in v, as a family's have: they count colourings."""
    n = len(columns)
    if len(vector) != n or any(type(i) is not int or not 0 <= i < n
                               for c in columns for i in c):
        raise AlgebraError(f"a {n}-state system needs {n} vector entries "
                           f"and rows 0..{n - 1}")
    for entries in ([e for c in columns for e in c.values()], vector):
        # each term's total degree, or None if it cannot count colourings
        degrees = {ex + ey if type(ex) is type(ey) is type(ez) is int
                   and not ez and type(c) in (int, Fraction)
                   and c.denominator == 1 and c >= 0 else None
                   for e in entries for (ex, ey, ez), c in e.items()}
        if len(degrees) > 1 or None in degrees:
            raise AlgebraError("the members need homogeneous, z-free entries "
                               "with int exponents and nonnegative integer "
                               "coefficients")


def _block_sums(pairs, block_of: Sequence[int]) -> dict[int, _Terms]:
    """Sum the term maps of (state, term map) pairs over the states of each
    block; each nonzero sum as its sorted terms (i, j, c), z dropped."""
    acc: dict[int, dict] = {}
    for s, terms in pairs:
        poly = acc.setdefault(block_of[s], {})
        for exp, c in terms.items():
            poly[exp] = poly.get(exp, 0) + c
    return {b: terms for b, poly in acc.items() if (terms := tuple(
        sorted((i, j, c) for (i, j, _), c in poly.items() if c)))}


def _lifted(entries: dict) -> tuple[tuple[int, int, int], dict]:
    """(alpha, beta, degree) and each entry times x^alpha y^beta, with int
    coefficients, for entries of terms (i, j, c) of one total degree (0 if
    none); alpha, beta >= 0 are the least that clear negative exponents."""
    flat = [t for terms in entries.values() for t in terms]
    alpha = max([0] + [-i for i, _, _ in flat])
    beta = max([0] + [-j for _, j, _ in flat])
    return (alpha, beta, flat[0][0] + flat[0][1] if flat else 0), {
        key: tuple((i + alpha, j + beta, int(c)) for i, j, c in terms)
        for key, terms in entries.items()}


def _lump(columns: Sequence[dict], vector: Sequence[dict]) -> Quotient:
    """Coarsest backward-lumpable partition of the states and its quotient.

    Each round, starting from one block, splits a block by the column-block
    sums of T's term maps at its states. Any lumpable partition refines
    every round's, so the first round that splits nothing gives the
    coarsest one, its blocks numbered in the order of their first state,
    and its sums are T'. T' and v' = P^T v are lifted by their own least
    shifts (_lifted), those of T and v as sums of counts cancel no term.
    _check_lumping checks the quotient before it is returned.
    """
    block_of, count = [0] * len(columns), 1
    while True:
        keys: dict = {}
        split = [keys.setdefault((block_of[s], frozenset(
            _block_sums(column.items(), block_of).items())), len(keys))
            for s, column in enumerate(columns)]
        if len(keys) == count:
            break
        block_of, count = split, len(keys)
    # nothing split, so key d holds block d and its column of T'
    step, cells = _lifted({(c, d): terms for d, (_, column)
                           in enumerate(keys) for c, terms in column})
    start, vec = _lifted(_block_sums(enumerate(vector), block_of))
    rows = tuple(tuple((d, cells[c, d]) for d in range(count)
                       if (c, d) in cells) for c in range(count))
    q = Quotient(tuple(block_of), rows,
                 tuple(vec.get(c, ()) for c in range(count)), step, start)
    _check_lumping(columns, vector, q)
    return q


def _check_lumping(columns: Sequence[dict], vector: Sequence[dict],
                   q: Quotient) -> None:
    """Check q against the term maps of T and v: each term of q.rows and
    q.v nonnegative and, shifted back by q.step or q.start, of its total
    degree, and then P^T T = T' P^T and v' = P^T v term by term, reading
    q.rows as the iteration does (repeated entries and terms add up). Raise
    CertificateError if any fails or q.block_of is not a partition."""
    n, m = len(columns), q.dimension
    if len(q.block_of) != n or set(q.block_of) != set(range(m)):
        raise CertificateError("lumping is not a partition of the states")

    def back(terms: _Terms, shift) -> Counter:
        out, (alpha, beta, degree) = Counter(), shift
        for i, j, c in terms:
            if min(i, j) < 0 or i - alpha + j - beta != degree:
                raise CertificateError(
                    f"lumped term x^{i} y^{j} does not fit shift {shift}")
            out[i - alpha, j - beta, 0] += c
        return out
    entries = [[] for _ in range(m)]
    for c, row in enumerate(q.rows):
        for d, terms in row:
            if not 0 <= d < m:
                raise CertificateError(
                    f"lumped step matrix names block {d} of {m}")
            entries[d].append((c, back(terms, q.step)))
    # the column sums of q.rows, each quotient block its own block
    expected = [_block_sums(pairs, range(m)) for pairs in entries]
    for s, (column, b) in enumerate(zip(columns, q.block_of)):
        if _block_sums(column.items(), q.block_of) != expected[b]:
            raise CertificateError(
                f"lumped step matrix fails P^T T = T' P^T at state {s}")
    if len(q.v) != m or _block_sums(enumerate(vector), q.block_of) != \
            _block_sums([(c, back(ts, q.start)) for c, ts in enumerate(q.v)],
                        range(m)):
        raise CertificateError("lumped initial vector is not P^T v")


class TransferSystem(_Frozen):
    """Step matrix, initial vector and their exact quotient for the family
    described by spec, which also gives the prefix members and the
    recursion start.

    T and v, on the 3^k states of a k-vertex boundary (the paper's 4^k
    with black parity merged), are stored once, as integer term maps:
    columns[s] maps each row i of a nonzero entry to the terms {(ex, ey,
    ez): coefficient} of T[i][s] (as in LaurentPoly3.terms), and vector[i]
    holds the terms of v[i]. The properties t and v make the
    dense PolyMatrix of each on request. An entry that is not homogeneous,
    z-free, with int exponents and nonnegative integer coefficients, a row
    that is no int state, or a vector of another length is refused with
    AlgebraError when the system is made, by a check that only reads the
    term maps. The quotient is lumped from them, shifted to integer terms
    and checked against them term by term once shifted back (P^T T = T' P^T,
    v' = P^T v and its degrees, else CertificateError); every member and
    generating function, with its proof, is computed from it. The system is
    frozen, so the quotient, the cached generating function and its
    denominator's cached partials always belong to columns and vector.
    """

    # the quotient and the cached _gf and _gf_partials (None until made)
    # are derived from columns and vector
    _fields = ("columns", "vector", "spec")
    __hash__ = None  # unhashable: the term maps are dicts

    def __init__(self, columns: Sequence[dict], vector: Sequence[dict],
                 spec: FamilySpec) -> None:
        _check_terms(columns, vector)
        vars(self).update(columns=columns, vector=vector, spec=spec,
                          quotient=_lump(columns, vector), _gf=None,
                          _gf_partials=None)

    @property
    def dimension(self) -> int:
        return len(self.columns)

    @property
    def t(self) -> PolyMatrix:
        """The step matrix T as a dense PolyMatrix, made on each call."""
        return PolyMatrix([[LaurentPoly3(c.get(i)) for c in self.columns]
                           for i in range(self.dimension)])

    @property
    def v(self) -> PolyMatrix:
        """The initial vector v as a dense one-column PolyMatrix."""
        return PolyMatrix([[LaurentPoly3(terms)] for terms in self.vector])


def build_transfer_system(spec: FamilySpec) -> TransferSystem:
    """Assemble the transfer system of a validated family description.

    Column s of the step matrix T extends boundary state s into the
    replacement graph: the glued vertices inherit the boundary states, and
    each fill of the fresh vertices (external parity zero) adds the monomial
    x^d y^(growth - d), d the admissible-count difference, at the row of its
    restriction onto the next boundary. The initial vector v weights every
    colouring of the base graph by x^(admissible) y^(rest) at the row of
    its restriction onto the boundary. Both are counted straight into the
    integer term maps that TransferSystem stores.

    Colourings are colour and parity bitmasks. The parities that black
    vertices add are odd, the XOR of their neighbour masks, so the
    admissible count is the popcount of ~(colours | parities ^ odd), and
    the restricted parities are parities XOR the neighbour masks of the
    dropped black vertices only. Both XORs, and so the position masks of
    the next boundary's colours and parities, split into a part of the
    boundary state and a part of the fill, and the fill parts are computed
    once per build. A table of their base-3 readings gives the row.
    """
    spec.validate()
    g, j, k = spec.base_graph, spec.replacement, len(spec.boundary)
    h = g.induced(spec.boundary)
    glued = [spec.glue_map[b] for b in spec.boundary]
    retained = [spec.next_boundary_map[b] for b in spec.boundary]
    fresh = sorted(set(range(j.vertex_count)) - set(glued))
    growth, masks = len(fresh), j.neighbour_masks
    dropped = ~sum(1 << u for u in retained)
    # the state of position masks c and p is ternary[c] + ternary[c | p]
    ternary = [int(f"{m:b}", 3) for m in range(1 << k)]

    def parts(colours: int, parities: int) -> tuple[int, int, int, int]:
        # colours and the parity mask of j of one part, and its position
        # masks of the next boundary's colours and parities
        restricted = parities ^ _odd(masks, colours & dropped)
        return (colours, parities ^ _odd(masks, colours),
                _gather(colours, retained), _gather(restricted, retained))
    fills = [parts(sum(1 << u for i, u in enumerate(fresh) if fill >> i & 1),
                   0) for fill in range(1 << growth)]
    every = (1 << j.vertex_count) - 1
    columns = [{} for _ in range(3 ** k)]
    for state, column in enumerate(columns):
        w_h = _admissible(h, *_state_masks(state, range(k)))
        colours, odd, black, parity = parts(*_state_masks(state, glued))
        for fill_colours, fill_odd, fill_black, fill_parity in fills:
            d = (~(colours | fill_colours | odd ^ fill_odd)
                 & every).bit_count() - w_h
            c = black | fill_black
            column.setdefault(ternary[c] + ternary[c | parity ^ fill_parity],
                              Counter())[d, growth - d, 0] += 1
    n, base_masks = g.vertex_count, g.neighbour_masks
    outside = ~sum(1 << u for u in spec.boundary)
    vector = [Counter() for _ in range(3 ** k)]
    for colours in range(1 << n):
        w = _admissible(g, colours, 0)
        c = _gather(colours, spec.boundary)
        p = _gather(_odd(base_masks, colours & outside), spec.boundary)
        vector[ternary[c] + ternary[c | p]][w, n - w, 0] += 1
    return TransferSystem(columns=columns, vector=vector, spec=spec)


def _at(q: Quotient, a: int, b: int):
    """T''(a, b) as sparse int rows and v''(a, b) as an int vector."""
    def value(terms):
        return sum(c * a ** i * b ** j for i, j, c in terms)
    return ([[(d, value(ts)) for d, ts in row] for row in q.rows],
            [value(ts) for ts in q.v])


def _sums(rows, vec, steps: int):
    """Yield the component sums of vec, rows vec, ..., rows^steps vec, none
    if steps < 0: the one iteration loop behind every member and value,
    over Python ints."""
    for m in range(steps + 1):
        if m:
            vec = [sum([c * vec[d] for d, c in row]) for row in rows]
        yield sum(vec)


def _digit_bytes(bound: int) -> int:
    """Bytes per Kronecker digit for coefficients of at most bound."""
    return max(1, -(-bound.bit_length() // 8))


def _member_index(r) -> int:
    """r as an int, or ValueError for a bool or for anything operator.index
    refuses (2.5, 3.0, Fraction(5, 2))."""
    if not isinstance(r, bool):
        try:
            return operator.index(r)
        except TypeError:
            pass
    raise ValueError(f"member index must be an integer, not {r!r}")


def _sector_lengths(sys: TransferSystem, r_max: int, r_min: int = 0):
    """Yield (n, shift, digits) for the members r_min .. r_max, the one
    decode of every member (see the module docstring): member r has degree
    n and digits[e + shift] is its coefficient of x^(n - e) y^e, so its
    sector lengths A_k are digits[shift:] if its exponents are nonnegative.
    Kronecker digits are 8 width bits, 2^(8 width) above every member's
    value at (1, 1); digits that do not add up to that value again show a
    carry and raise CertificateError."""
    r_max, r_min = _member_index(r_max), _member_index(r_min)
    if r_max < 0:
        raise ValueError("member index must be nonnegative")
    q, start = sys.quotient, sys.spec.recursion_start
    for w in sys.spec.prefix_weps[r_min:r_max + 1]:
        sld = sld_from_wep(w)
        yield sld.n, 0, sld.sectors
    steps = r_max - start
    ones = list(_sums(*_at(q, 1, 1), steps))
    width = _digit_bytes(max(ones, default=0))
    (_, beta, degree), (_, beta0, degree0) = q.step, q.start
    sums = _sums(*_at(q, 1, 1 << 8 * width), steps)
    for m, (s, one) in enumerate(zip(sums, ones)):
        if m < r_min - start:
            continue
        raw = s.to_bytes(-(-s.bit_length() // 8), "little")
        digits = [int.from_bytes(raw[k:k + width], "little")
                  for k in range(0, len(raw), width)]
        if sum(digits) != one:
            raise CertificateError(
                f"member digits sum to {sum(digits)}, not {one}: a carry "
                f"crossed a {8 * width}-bit digit")
        yield degree0 + m * degree, beta * m + beta0, digits


def _member(n: int, shift: int, digits: list[int]) -> LaurentPoly3:
    """The member of degree n with the digits of _sector_lengths."""
    return LaurentPoly3({(n - e, e, 0): Fraction(c)
                         for e, c in enumerate(digits, -shift) if c})


def _members(sys: TransferSystem, r_max: int, r_min: int = 0):
    """Yield the exact members r_min .. r_max, read off their digits
    (_sector_lengths)."""
    for member in _sector_lengths(sys, r_max, r_min):
        yield _member(*member)


def _value_at_zero(n: int, shift: int, digits: list[int], x0: Fraction,
                   y0: Fraction) -> Fraction:
    """W(x0, y0) of the member with these digits (_sector_lengths) where x0
    or y0 is 0: only its term c x^n survives y0 = 0, and only c y^n
    survives x0 = 0. A member with a negative exponent is evaluated whole
    (eval_xy), so that 0 to a negative power raises as it does there."""
    if any(digits[:shift]) or any(digits[n + shift + 1:]):
        return _member(n, shift, digits).eval_xy(x0, y0)
    e = 0 if y0 == 0 else n
    c = digits[e + shift] if e + shift < len(digits) else 0
    return c * x0 ** (n - e) * y0 ** e


def wep_by_iteration(sys: TransferSystem, r: int) -> LaurentPoly3:
    """Exact weight enumerator of member r by iterating the step matrix."""
    return next(_members(sys, r, r))


def iter_weps(sys: TransferSystem, r_max: int):
    """Yield the exact weight enumerators of members 0..r_max in order."""
    yield from _members(sys, r_max)


def wep_values_by_iteration(sys: TransferSystem, x0, y0,
                            r_max: int) -> list:
    """Exact values W_r(x0, y0) for r = 0..r_max by specialised iteration.

    With (x0, y0) = (a, b)/d over the least common denominator, member
    start + m is the component sum of T''(a, b)^m v''(a, b) divided by
    d^(degree0 + m degree) a^(alpha m + alpha0) b^(beta m + beta0), one
    Fraction per member. The power of 2 common to a sum and its divisor is
    stripped first: the lowest set bit of their OR is the lower of their
    two lowest set bits (that of the divisor for a zero sum), and shifting
    both by it is exact. Odd common factors are left to Fraction, which
    still reduces the rest, so every value is the same reduced fraction.
    Where that divisor vanishes, at a zero coordinate, one term of each
    member survives, and its coefficient is read off the member's digits
    (_value_at_zero).
    """
    r_max = _member_index(r_max)
    if r_max < 0:
        raise ValueError("member index must be nonnegative")
    x0, y0 = _rational(x0), _rational(y0)
    q, start = sys.quotient, sys.spec.recursion_start
    (alpha, beta, degree), (alpha0, beta0, degree0) = q.step, q.start
    d = math.lcm(x0.denominator, y0.denominator)
    a, b = int(x0 * d), int(y0 * d)
    if (a == 0 and (alpha or alpha0)) or (b == 0 and (beta or beta0)):
        return [_value_at_zero(*member, x0, y0)
                for member in _sector_lengths(sys, r_max)]
    out = [w.eval_xy(x0, y0) for w in sys.spec.prefix_weps[:r_max + 1]]
    per_step = d ** degree * a ** alpha * b ** beta
    den = d ** degree0 * a ** alpha0 * b ** beta0
    for s in _sums(*_at(q, a, b), r_max - start):
        low = s | den
        v = (low & -low).bit_length() - 1
        out.append(Fraction(s >> v, den >> v))
        den *= per_step
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
    start) with s the degree of T' (the qubit step), so the series is
    x^n0 G(y/x, x^s z). The
    homogenised sums a_m(t) = 1^T T''(1, t)^m v''(1, t) are W_(start+m)(1,
    t) times t^(beta m + beta0), so their minimal recurrence has the
    connection polynomial Q(t, t^beta u) with Q the reduced denominator of
    G, normalised to 1 at u = 0. It divides det(I - u T''(1, t)), which
    lies in Z[t][u] and is 1 at u = 0, so by Gauss's lemma its coefficients
    c_k(t) lie in Z[t]. At the Kronecker point t = 2^B, Berlekamp-Massey
    on 2 dim T' sums gives the integers c_k(2^B), and their balanced
    base-2^B digits are the coefficients of c_k: digit e of c_k is the
    coefficient of x^(s k - e + beta k) y^(e - beta k) z^k.

    The width B starts at _FIRST_DIGIT_BITS and doubles until every c_k is
    an integer and _annihilates proves the decoded recurrence, so a wrong
    decode is never returned. The loop ends: once every coefficient is
    below 2^(B-1) in size and 2^B is no root of the finitely many
    polynomials whose vanishing lowers the order, the digits are those of
    the true Q. BM's order at one point is at most the generic order, and a
    proven recurrence of that order bounds the generic order by it, so the
    denominator is the reduced one.
    """
    q = sys.quotient
    _, beta, step = q.step
    steps = 2 * q.dimension - 1
    ones = list(_sums(*_at(q, 1, 1), steps))
    bits = _FIRST_DIGIT_BITS
    while True:
        c, order = _berlekamp_massey(list(_sums(*_at(q, 1, 1 << bits), steps)))
        if all(c_k.denominator == 1 for c_k in c):
            digits = [_balanced_digits(c_k.numerator, bits) for c_k in c]
            if _annihilates(q, digits, order, ones):
                break
        bits *= 2
    return LaurentPoly3({(step * k - e + beta * k, e - beta * k, k): d
                         for k, ds in enumerate(digits)
                         for e, d in enumerate(ds) if d}), order


def _annihilates(q: Quotient, digits: list[list[int]], order: int,
                 ones: list[int]) -> bool:
    """Whether c_k(t) = sum_e digits[k][e] t^e give P_m = sum_k c_k a_(m-k)
    = 0 in Z[t] for every m >= order, a_j(t) the sums of T''(1, t) and
    ones[j] = a_j(1). T'' has nonnegative terms, so each coefficient of P_m
    is at most sum_k |c_k|_1 a_(m-k)(1) in size, below 2^(B-1) for the B
    taken: P_m(2^B) = 0, checked by one sweep for m = order .. order + dim
    T' - 1, forces P_m = 0. P_(order+j) = 1^T T''(1, t)^j w for one vector
    w, so by Cayley-Hamilton those zeros make every later P_m zero."""
    last = order + q.dimension - 1
    norms = [sum(map(abs, ds)) for ds in digits]
    bits = max(sum(norm * ones[m - k] for k, norm in enumerate(norms))
               for m in range(order, last + 1)).bit_length() + 1
    sums = list(_sums(*_at(q, 1, 1 << bits), last))
    at_point = [sum(d << bits * e for e, d in enumerate(ds)) for ds in digits]
    return not any(sum(c_k * sums[m - k] for k, c_k in enumerate(at_point))
                   for m in range(order, last + 1))


def family_gf(sys: TransferSystem) -> RatFunc3:
    """Closed-form generating function of the family's weight enumerators.

    The denominator is the reduced one of the minimal recurrence the members
    obey, proven to annihilate them from the recursion start on (see
    _minimal_denominator). So its product with the series has no term from
    z^(start + order) on: the numerator is that denominator times the first
    start + order members, below z^(start + order), and the pair is exact
    and reduced by construction, and canonicalised. Only the term pairs
    whose z-exponents sum below that cut are multiplied.
    """
    if sys._gf is not None:
        return sys._gf
    den, order = _minimal_denominator(sys)
    cut = sys.spec.recursion_start + order
    head = sorted(((e[:2], r + e[2], c)
                   for r, wep in enumerate(iter_weps(sys, cut - 1))
                   for e, c in wep.terms.items()), key=lambda t: t[1])
    terms = {}
    for (ax, ay, az), ac in den.terms.items():
        for (bx, by), bz, bc in head:
            if az + bz >= cut:
                break
            exp = ax + bx, ay + by, az + bz
            terms[exp] = terms.get(exp, 0) + ac * bc
    gf = ratfunc_normalize(LaurentPoly3(terms), den)
    object.__setattr__(sys, "_gf", gf)
    return gf


def _gf_den_partials(sys: TransferSystem) -> tuple[LaurentPoly3, LaurentPoly3]:
    """The partials Q_x and Q_y of family_gf's denominator Q, made once per
    system; the asymptotic criterion specialises them at every noise
    strength it visits."""
    if sys._gf_partials is None:
        den = family_gf(sys).den
        object.__setattr__(sys, "_gf_partials",
                           (den.partial("x"), den.partial("y")))
    return sys._gf_partials
