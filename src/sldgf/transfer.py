"""Transfer-matrix construction for graph-family weight enumerators.

Every boundary vertex carries a state out of four: its colour (white/black)
and its external parity, the parity of black neighbours already absorbed
into the removed part of the graph. States are indexed 2*colour + parity
(white-even 0, white-odd 1, black-even 2, black-odd 3); a k-vertex boundary
is indexed base 4 with position 0 most significant.

One cut-and-glue step is the product of an evolution matrix (boundary state
extends to a full replacement-graph state, fresh vertices start at external
parity zero) and a restriction matrix (drop everything outside the next
boundary, folding dropped black neighbours into the parities). The weight
enumerator of member r is the component sum of the step matrix iterated on
the base graph's state vector. The family generating function is derived
from the minimal linear recurrence of the members: Berlekamp-Massey on exact
specialised iterates gives the reduced denominator at sample points, which
is interpolated back to a trivariate polynomial. The result is reduced by
construction and certified against the exact members (Cayley-Hamilton bounds
how many must agree) before it is returned.
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


@dataclass(frozen=True)
class VertexState:
    """Colour (0 white, 1 black) and external parity (0 even, 1 odd)."""

    colour: int
    parity: int

    @property
    def index(self) -> int:
        return 2 * self.colour + self.parity

    @staticmethod
    def from_index(index: int) -> "VertexState":
        return VertexState(index >> 1, index & 1)


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


def evolution_matrix(h: Graph, j: Graph, phi: Sequence[int]) -> PolyMatrix:
    """Evolution from boundary subgraph h into replacement graph j.

    phi[v] is the j-vertex that inherits h-vertex v. The (j-state, h-state)
    entry is the monomial x^d y^(|j|-|h|-d) with d the admissible-count
    difference, for every j-state that agrees with the h-state on phi's
    image and gives all fresh vertices external parity zero; other entries
    are zero.
    """
    if len(phi) != h.vertex_count:
        raise ValueError("phi must map every boundary vertex")
    if len(set(phi)) != len(phi):
        raise ValueError("phi must be injective")
    image = set(phi)
    fresh = [v for v in range(j.vertex_count) if v not in image]
    growth = j.vertex_count - h.vertex_count
    out = PolyMatrix.zeros(4 ** j.vertex_count, 4 ** h.vertex_count)
    for state_h in range(4 ** h.vertex_count):
        pairs = decode_states(state_h, h.vertex_count)
        w_h = colouring_weight(h, [c for c, _ in pairs], [p for _, p in pairs])
        for fill in range(1 << len(fresh)):
            j_states: list[tuple[int, int]] = [(0, 0)] * j.vertex_count
            for hv, (c, p) in enumerate(pairs):
                j_states[phi[hv]] = (c, p)
            for t, v in enumerate(fresh):
                j_states[v] = ((fill >> t) & 1, 0)
            w_j = colouring_weight(j, [c for c, _ in j_states],
                                   [p for _, p in j_states])
            delta = w_j - w_h
            state_j = encode_states(j_states)
            out.data[state_j][state_h] = LaurentPoly3.monomial(
                delta, growth - delta, 0)
    return out


def restriction_matrix(j: Graph, retained: Sequence[int]) -> PolyMatrix:
    """Restriction of graph j to the ordered vertex list ``retained``.

    0/1 matrix: a retained vertex keeps its colour and adds the black count
    of its dropped neighbours to its parity.
    """
    if len(set(retained)) != len(retained):
        raise ValueError("retained vertices must be distinct")
    if any(not 0 <= v < j.vertex_count for v in retained):
        raise ValueError("retained vertex outside the graph")
    retained_set = set(retained)
    dropped_neighbours = {v: [u for u in j.neighbours(v) if u not in retained_set]
                          for v in retained}
    one = LaurentPoly3.const(1)
    out = PolyMatrix.zeros(4 ** len(retained), 4 ** j.vertex_count)
    for state_j in range(4 ** j.vertex_count):
        pairs = decode_states(state_j, j.vertex_count)
        new_states = []
        for v in retained:
            c, p = pairs[v]
            p = (p + sum(pairs[u][0] for u in dropped_neighbours[v])) % 2
            new_states.append((c, p))
        out.data[encode_states(new_states)][state_j] = one
    return out


def initial_state_column(g: Graph, boundary: Sequence[int]) -> PolyMatrix:
    """State vector of a fully built graph g, restricted to the boundary.

    Enumerates all colourings of g (with nothing outside the graph, every
    external parity is zero), weights each by x^(admissible) y^(rest), and
    folds the result through the restriction onto the boundary.
    """
    n = g.vertex_count
    column = PolyMatrix.zeros(4 ** n, 1)
    zeros = [0] * n
    for mask in range(1 << n):
        colours = [(mask >> v) & 1 for v in range(n)]
        w = colouring_weight(g, colours, zeros)
        state = encode_states([(c, 0) for c in colours])
        column.data[state][0] = column.data[state][0] + LaurentPoly3.monomial(
            w, n - w, 0)
    return restriction_matrix(g, boundary) @ column


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
    """Assemble the transfer system of a validated family description."""
    spec.validate()
    h = spec.base_graph.induced(spec.boundary)
    phi = [spec.glue_map[v] for v in spec.boundary]
    next_boundary = [spec.next_boundary_map[v] for v in spec.boundary]
    t = restriction_matrix(spec.replacement, next_boundary) @ \
        evolution_matrix(h, spec.replacement, phi)
    v = initial_state_column(spec.base_graph, spec.boundary)
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
