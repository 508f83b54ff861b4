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
state space. The weight enumerator of member r is the component sum of the
step matrix iterated on the base graph's state vector. The family
generating function is derived from the minimal linear recurrence of the
members: Berlekamp-Massey on exact specialised iterates gives the reduced
denominator at sample points, which is interpolated back to a trivariate
polynomial. The result is reduced by construction and certified against the
exact members (Cayley-Hamilton bounds how many must agree) before it is
returned. The fraction-free solve of (I - zT) u = v that this replaced is
kept as a test-only reference in tests/fraction_free.py.
"""

from __future__ import annotations

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


@dataclass
class TransferSystem:
    """Step matrix, initial vector, and prefix data of one family."""

    t: PolyMatrix
    v: PolyMatrix
    prefix_weps: tuple[LaurentPoly3, ...]
    z_shift: int
    spec: FamilySpec
    _gf: RatFunc3 | None = field(default=None, repr=False, compare=False)

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
    """Yield W_0 .. W_r_max by iterating the step matrix on sparse rows.

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
    rows = [[(k, at(e)) for k, e in enumerate(row) if not e.is_zero()]
            for row in sys.t.data]
    vec = [at(e) for e in sys.v.column(0)]
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


def _minimal_denominator(sys: TransferSystem) -> tuple[LaurentPoly3, int]:
    """Reduced denominator of sum_k W_(start+k) z^k and its recurrence order.

    From the recursion start on, W_r is homogeneous of degree n0 + s (r -
    start) with s the qubit step, so the series is x^n0 G(y/x, x^s z). At
    points t the values W_r(1, t) obey the minimal recurrence whose
    connection polynomial is the reduced denominator Q(t, u) of G, normalised
    to Q(t, 0) = 1; Berlekamp-Massey finds it from 2 dim values. Points where
    the order drops below the largest seen are skipped. Q divides
    det(I - u T(1, t)), whose u^k coefficient has t-exponents between k e_lo
    and k e_hi (the extreme y-exponents of T), so each coefficient of Q is
    interpolated as a Laurent polynomial over that range and re-homogenised.
    """
    n, start, step = sys.dimension, sys.z_shift, sys.spec.qubit_step
    ey = [e[1] for row in sys.t.data for entry in row for e in entry.terms]
    lo, hi = min(ey), max(ey)
    order, samples, t = 0, [], Fraction(1)
    while not samples or len(samples) <= order * (hi - lo):
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
        q_k = _interpolate_laurent(points, [c[k] for _, c in samples],
                                   k * lo, k * hi)
        for e, coeff in q_k.items():
            terms[(step * k - e, e, k)] = coeff
    return LaurentPoly3(terms), order


def certify_family_gf(sys: TransferSystem, gf: RatFunc3) -> None:
    """Prove that gf is the family's generating function, or raise.

    The members from the recursion start on satisfy the Cayley-Hamilton
    recurrence of order dim T, so gf minus the true function has a numerator
    of z-degree at most M = max(deg_z p + dim, deg_z q + start + dim - 1);
    agreement of the series on z^0 .. z^M therefore proves the identity.
    Raises CertificateError on the first member that disagrees, or when gf
    has no power series because q(x, y, 0) is not a nonzero constant.
    """
    n = sys.dimension
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
    sys._gf = gf
    return gf
