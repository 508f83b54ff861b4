"""Reference computations made apart from sldgf.

Nothing here imports the program. Polynomials are plain dicts from
exponent tuples to ints or Fractions, the published closed forms are
transcribed from the paper (the same forms tests/golden_forms.py records),
and member graphs are built from their textbook descriptions. The
benchmark checks the program's outputs against these values.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

# -- trivariate polynomials as {(e_x, e_y, e_z): coefficient} ---------------


def _add(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _neg(p):
    return {e: -c for e, c in p.items()}


def _mul(*polys):
    out = {(0, 0, 0): 1}
    for p in polys:
        acc = {}
        for (a, b, c), u in out.items():
            for (d, e, f), v in p.items():
                key = (a + d, b + e, c + f)
                acc[key] = acc.get(key, 0) + u * v
        out = {e: c for e, c in acc.items() if c}
    return out


def _terms(rows):
    return {(ex, ey, ez): c for ex, ey, ez, c in rows}


_ONE = {(0, 0, 0): 1}
_X = {(1, 0, 0): 1}
_Y = {(0, 1, 0): 1}
_Z = {(0, 0, 1): 1}


def _c(value):
    return {(0, 0, 0): value}


def _published():
    x_minus_y = _add(_X, _neg(_Y))
    x_plus_y = _add(_X, _Y)
    q_path = _add(_ONE, _neg(_mul(_Z, x_plus_y,
                                  _add(_ONE, _neg(_mul(x_minus_y, _Y, _Z, _Z))))))
    p_path = _add(_ONE, _neg(_mul(_c(2), x_minus_y, _Y, _Z, _Z)))
    f1 = _add(_ONE, _neg(_mul(_c(2), _Y, _Z)))
    f2 = _add(_ONE, _neg(_mul(x_plus_y, _Z)))
    f3 = _add(_ONE, _neg(_mul(x_minus_y, _Z)))
    p_star = _add(_mul(_Y, _Z, f2, f3), _mul(_c(Fraction(1, 2)), f1, _add(f2, f3)))
    q_star = _mul(f1, f2, f3)
    p_cycle = _add(_ONE, _neg(_mul(_c(2), x_minus_y, x_plus_y, _Y, _Z, _Z, _Z)))
    q_bip = _terms([
        (2, 1, 3, -2), (2, 0, 2, 1), (1, 1, 2, 4), (1, 0, 1, -2),
        (0, 3, 3, 2), (0, 2, 2, -1), (0, 1, 1, -2), (0, 0, 0, 1)])
    p_bip = _add(_terms([
        (3, 2, 5, -2), (3, 1, 4, 4), (3, 0, 3, -1),
        (2, 3, 5, 2), (2, 2, 4, 4), (2, 1, 3, -8), (2, 0, 2, 2),
        (1, 4, 5, 2), (1, 3, 4, -4), (1, 2, 3, -3), (1, 1, 2, 6), (1, 0, 1, -2),
        (0, 5, 5, -2), (0, 4, 4, -4), (0, 3, 3, 4), (0, 1, 1, -2), (0, 0, 0, 1),
    ]), _mul(x_plus_y, _Z, q_bip))
    p_puste = _terms([
        (5, 1, 3, 2), (5, 0, 2, -1), (4, 2, 3, 3), (4, 1, 2, -2), (4, 0, 1, 1),
        (3, 3, 3, 4), (3, 2, 2, -8), (2, 4, 3, 2), (2, 3, 2, -6), (2, 2, 1, 6),
        (2, 1, 3, -2), (2, 0, 2, 1), (1, 5, 3, -6), (1, 4, 2, -7), (1, 1, 2, 4),
        (1, 0, 1, -2), (0, 6, 3, -5), (0, 5, 2, -8), (0, 4, 1, 9), (0, 3, 3, 2),
        (0, 2, 2, -1), (0, 1, 1, -2), (0, 0, 0, 1)])
    p_js = _terms([
        (6, 1, 2, 1), (5, 2, 2, 3), (5, 1, 2, -1), (4, 3, 2, 4), (4, 2, 2, -2),
        (4, 0, 1, -1), (3, 4, 2, 2), (3, 3, 2, -2), (3, 0, 1, 1), (2, 5, 2, -3),
        (2, 2, 1, -2), (2, 1, 1, 1), (1, 6, 2, -5), (1, 5, 2, 3), (1, 3, 1, -8),
        (1, 2, 1, 3), (0, 7, 2, -2), (0, 6, 2, 2), (0, 4, 1, -5), (0, 3, 1, 3),
        (0, 0, 0, -1)])
    q_js = _terms([
        (5, 1, 2, -1), (4, 2, 2, -2), (3, 3, 2, -2), (3, 0, 1, 1), (2, 1, 1, 1),
        (1, 5, 2, 3), (1, 2, 1, 3), (0, 6, 2, 2), (0, 3, 1, 3), (0, 0, 0, -1)])
    p_grid = _terms([
        (6, 4, 5, -4), (5, 5, 5, 8), (4, 6, 5, 4), (4, 2, 3, 3), (3, 7, 5, -16),
        (2, 8, 5, 4), (2, 4, 3, -6), (2, 2, 2, 4), (1, 9, 5, 8), (1, 3, 2, -8),
        (0, 10, 5, -4), (0, 6, 3, 3), (0, 4, 2, 4), (0, 0, 0, -1)])
    q_grid = _terms([
        (8, 4, 6, 1), (6, 6, 6, -4), (6, 2, 4, -1), (4, 8, 6, 6), (4, 4, 4, -1),
        (4, 2, 3, -2), (2, 10, 6, -4), (2, 6, 4, 5), (2, 4, 3, 4), (2, 0, 1, 1),
        (0, 12, 6, 1), (0, 8, 4, -3), (0, 6, 3, -2), (0, 2, 1, 3), (0, 0, 0, -1)])
    return {
        "path": (p_path, q_path),
        "star": (p_star, q_star),
        "cycle": (p_cycle, q_path),
        "pusteblume": (p_puste, q_bip),
        "complete_bipartite_2": (p_bip, q_bip),
        "joint_squares": (p_js, q_js),
        "grid_2": (p_grid, q_grid),
    }


PUBLISHED = _published()
"""Published (numerator, denominator) of each built-in family's GF."""


def equals_published(family: str, num: dict, den: dict) -> bool:
    """num/den equals the published form, by cross-multiplication."""
    p, q = PUBLISHED[family]
    return _mul(num, q) == _mul(p, den)


# -- specialisations and series --------------------------------------------


def specialise(poly: dict, x0, y0) -> list[Fraction]:
    """Coefficients in z of poly at exact (x0, y0), lowest degree first."""
    x0, y0 = Fraction(x0), Fraction(y0)
    out = [Fraction(0)] * (max(e[2] for e in poly) + 1)
    for (ex, ey, ez), c in poly.items():
        out[ez] += c * x0 ** ex * y0 ** ey
    return out


def univariate_series(p: list, q: list, r_max: int) -> list[Fraction]:
    """Coefficients 0..r_max of p/q: the solution of the recurrence with
    characteristic polynomial q and initial terms fixed by p."""
    out = []
    for r in range(r_max + 1):
        acc = p[r] if r < len(p) else Fraction(0)
        for j in range(1, min(r, len(q) - 1) + 1):
            acc -= q[j] * out[r - j]
        out.append(acc / q[0])
    return out


def published_values(family: str, x0, y0, r_max: int) -> list[Fraction]:
    """W_r(x0, y0) for r = 0..r_max from the published closed form."""
    p, q = PUBLISHED[family]
    return univariate_series(specialise(p, x0, y0), specialise(q, x0, y0), r_max)


def published_weps(family: str, r_max: int) -> list[dict]:
    """Weight enumerators W_r(x, y) as {(e_x, e_y): coeff}, r = 0..r_max."""
    p, q = PUBLISHED[family]

    def z_slice(poly, r):
        return {(ex, ey): c for (ex, ey, ez), c in poly.items() if ez == r}

    q_slices = [z_slice(q, j) for j in range(max(e[2] for e in q) + 1)]
    (q0,) = q_slices[0].values()
    if q0 not in (1, -1):
        raise ValueError("published denominators have q(x, y, 0) = +-1")
    out = []
    for r in range(r_max + 1):
        acc = dict(z_slice(p, r))
        for j in range(1, min(r, len(q_slices) - 1) + 1):
            for (a, b), u in q_slices[j].items():
                for (c, d), v in out[r - j].items():
                    key = (a + c, b + d)
                    acc[key] = acc.get(key, 0) - u * v
        out.append({e: c * q0 for e, c in acc.items() if c})
    return out


def sld_of_wep(wep: dict) -> list[int]:
    """Sector lengths A_0..A_n of a homogeneous weight enumerator."""
    (n,) = {ex + ey for ex, ey in wep}
    sld = [0] * (n + 1)
    for (_, ey), c in wep.items():
        if Fraction(c).denominator != 1:
            raise ValueError("non-integer weight enumerator coefficient")
        sld[ey] = int(c)
    return sld


def sld_is_valid(sld) -> bool:
    return sld[0] == 1 and sum(sld) == 2 ** (len(sld) - 1) and min(sld) >= 0


# -- member graphs and their sector lengths by counting ----------------------


def member_graph(family: str, r: int) -> tuple[int, list[tuple[int, int]]]:
    """(vertex count, edges) of member r, built from the family's shape."""
    if r == 0:
        return 0, []
    if family in ("path", "star", "cycle", "complete_bipartite_2") and r == 1:
        return 1, []
    if family in ("cycle", "complete_bipartite_2") and r == 2:
        return 2, []
    if family == "path":
        return r, [(i, i + 1) for i in range(r - 1)]
    if family == "star":
        return r, [(0, i) for i in range(1, r)]
    if family == "cycle":
        return r, [(i, (i + 1) % r) for i in range(r)]
    if family == "complete_bipartite_2":
        return r, [(h, v) for h in (0, 1) for v in range(2, r)]
    if family == "pusteblume":
        # centre 0 with leaves 1, 2 and a hub 3 carrying r - 1 further leaves
        return r + 3, [(0, 1), (0, 2), (0, 3)] + [(3, v) for v in range(4, r + 3)]
    if family == "joint_squares":
        # r squares in a chain, each joined to the next at opposite corners
        edges = []
        for s in range(r):
            a, b, c, d = 3 * s, 3 * s + 1, 3 * s + 2, 3 * s + 3
            edges += [(a, b), (b, d), (a, c), (c, d)]
        return 3 * r + 1, edges
    if family == "grid_2":
        edges = [(2 * i, 2 * i + 1) for i in range(r)]
        edges += [(2 * i + s, 2 * i + 2 + s) for i in range(r - 1) for s in (0, 1)]
        return 2 * r, edges
    raise ValueError(family)


def stabilizer_sld(n: int, edges) -> list[int]:
    """Sector lengths of the graph state by counting stabilizer weights.

    The product of the generators in a subset S acts as X on S and as Z on
    every vertex with an odd number of neighbours in S; its weight is the
    size of the union of the two supports.
    """
    neighbours = [0] * n
    for a, b in edges:
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    sld = [0] * (n + 1)
    for subset in range(1 << n):
        z_support = 0
        for v in range(n):
            if (subset & neighbours[v]).bit_count() & 1:
                z_support |= 1 << v
        sld[(subset | z_support).bit_count()] += 1
    return sld


# -- purity criterion ----------------------------------------------------------


def criterion_coeffs(sld) -> list[int]:
    """Integer criterion polynomial sum_k (n - 2k) A_k mu^k."""
    n = len(sld) - 1
    return [(n - 2 * k) * a for k, a in enumerate(sld)]


def sign_at(coeffs, mu: Fraction) -> int:
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * mu + c
    return (value > 0) - (value < 0)


def crosses_at(coeffs, lam: float, window: float) -> bool:
    """The criterion is negative at mu = 1 and changes sign from positive
    to negative between (lam - window)^2 and (lam + window)^2."""
    lo, hi = Fraction(lam - window) ** 2, Fraction(lam + window) ** 2
    return (sign_at(coeffs, Fraction(1)) < 0 and sign_at(coeffs, lo) > 0
            and sign_at(coeffs, hi) < 0)


def largest_root_lambda(coeffs, steps: int = 64, bits: int = 48) -> float:
    """sqrt of the largest sign change of the criterion in (0, 1): a scan
    down from mu = 1 in 1/steps, then exact bisection to 2^-bits."""
    hi = Fraction(1)
    if sign_at(coeffs, hi) >= 0:
        raise ValueError("criterion is not negative at mu = 1")
    lo = None
    for k in range(steps - 1, -1, -1):
        if sign_at(coeffs, Fraction(k, steps)) >= 0:
            lo, hi = Fraction(k, steps), Fraction(k + 1, steps)
            break
    for _ in range(bits):
        mid = (lo + hi) / 2
        if sign_at(coeffs, mid) >= 0:
            lo = mid
        else:
            hi = mid
    return float(mp.sqrt(mp.mpf(lo.numerator) / lo.denominator))


def star_threshold(r: int) -> float:
    """Critical noise strength of star member r from its closed form:
    the root in (0, 1) of (1+mu)^(r-1) (1-mu) + (1-mu)^(r-1) (1+mu) = 2^r mu^r,
    which is unique, so bisection over all of (0, 1) finds it."""
    with mp.workdps(40):
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(100):
            mu = (lo + hi) / 2
            excess = ((1 + mu) ** (r - 1) * (1 - mu) + (1 - mu) ** (r - 1) * (1 + mu)
                      - 2 ** r * mu ** r)
            if excess > 0:
                lo = mu
            else:
                hi = mu
        return float(mp.sqrt((lo + hi) / 2))


def star_fidelity(lam: Fraction, r: int) -> Fraction:
    """Star member r is the r-qubit GHZ-class state:
    F_r = (lam^r + ((1+lam)/2)^r + ((1-lam)/2)^r) / 2 for r >= 1."""
    if r == 0:
        return Fraction(1)
    return (lam ** r + ((1 + lam) / 2) ** r + ((1 - lam) / 2) ** r) / 2


# -- dominant pole of a specialised closed form ------------------------------


def _trim(a: list) -> list:
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of univariate polynomials, lowest degree
    first; b has a nonzero leading coefficient."""
    a, quotient = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for shift in range(len(a) - len(b), -1, -1):
        factor = a[shift + len(b) - 1] / b[-1]
        quotient[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    return quotient, _trim(a[:len(b) - 1] or [Fraction(0)])


def reduced_specialisation(family: str, x0, y0) -> tuple[list, list]:
    """Published GF at (x0, y0) as p/q in z, common factors divided out."""
    p, q = (_trim(specialise(poly, x0, y0)) for poly in PUBLISHED[family])
    g, h = q, p
    while any(h):
        g, h = h, _divmod(g, h)[1]
    return _divmod(p, g)[0], _divmod(q, g)[0]


def to_mpf(value: Fraction):
    return mp.mpf(value.numerator) / value.denominator


def leading_term(family: str, x0, y0, r: int):
    """(z0, -p(z0)/q'(z0) z0^(-r-1)): the pole of smallest modulus of the
    reduced specialisation, from mpmath.polyroots, and its residue term."""
    p, q = reduced_specialisation(family, x0, y0)
    with mp.workdps(40):
        roots = mp.polyroots([to_mpf(c) for c in reversed(q)], maxsteps=400,
                             extraprec=200)
        z0 = min(roots, key=abs)

        def value(poly, z):
            return sum(to_mpf(c) * z ** j for j, c in enumerate(poly))

        dq = [j * c for j, c in enumerate(q)][1:]
        return z0, mp.re(-value(p, z0) / value(dq, z0) * z0 ** (-r - 1))


# -- calibration -------------------------------------------------------------


def calibration_work() -> dict:
    """A fixed product of published polynomials with rational coefficients:
    the kind of work sldgf does (Fractions, big ints, dicts of exponent
    tuples), used to measure how fast the machine runs at the moment."""
    p = _mul(PUBLISHED["complete_bipartite_2"][0], PUBLISHED["grid_2"][1])
    for k in range(2, 11):
        p = _mul(p, {(0, 0, 0): Fraction(k, 7), (1, 0, 1): Fraction(1, k)})
    return p
