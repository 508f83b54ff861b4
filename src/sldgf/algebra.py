"""Exact arithmetic kernel.

Sparse trivariate Laurent polynomials in x, y, z over arbitrary-precision
rationals, rational functions p/q, the dense polynomial-matrix container
that holds transfer matrices, the Berlekamp-Massey recurrence finder from
which the family generating functions are built, and the polynomials in z
that a generating function leaves at a point: plain lists of Python ints,
low degree first, with an exact integer gcd and quotient. No linear solve
lives here: the fraction-free (Bareiss/Montante) solve that once derived
the generating functions is a test-only reference in tests/fraction_free.py.

Conventions baked in here and relied on everywhere else:

* a polynomial is a map {(e_x, e_y, e_z): coefficient}; zero coefficients are
  never stored and the zero polynomial is the empty map. LaurentPoly3._of,
  through which every arithmetic result is built, is the one unchecked path,
* e_x and e_y may be negative (Laurent terms such as x^-1 y^2 show up in
  transfer matrices), e_z is always >= 0,
* term iteration order is ascending lexicographic on the exponent triple, so
  every rendering (JSON, LaTeX, text) is byte-stable,
* rational-function canonicalisation clears Laurent monomials and integer
  content and fixes a sign, but never attempts a multivariate gcd; equality
  is decided by cross-multiplication. Family generating functions need none:
  they are built reduced, so their canonical pairs compare exactly,
* outside numbers become exact only through _rational (a float by its
  decimal rendering) and integers through _integer, which never truncates.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, int, int]

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}


class AlgebraError(ValueError):
    """Base class for errors raised by the exact-arithmetic layer."""


class ZeroDenominatorError(AlgebraError):
    """A rational function was built with a zero denominator."""


class NonConstantLeadingTermError(AlgebraError):
    """Series extraction needs q(x, y, 0) to be a nonzero constant."""


class CertificateError(AlgebraError):
    """A closed form disagrees with the exact members it must reproduce."""


def _rational(value: int | Fraction | str | float) -> Fraction:
    """Exact rational from an int, a Fraction, a string such as "4/5" or
    "0.8", or a float read by its decimal rendering (0.1 is 1/10); raises
    TypeError on any other type (a bool too, though Python counts it an
    int), ValueError on a string that is no number or has a zero
    denominator."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _integer(value: int | Fraction | str | float) -> int:
    """_rational(value) as an int; AlgebraError if it is not integral."""
    exact = _rational(value)
    if exact.denominator != 1:
        raise AlgebraError(f"{value!r} is not an integer")
    return exact.numerator


class LaurentPoly3:
    """Sparse polynomial in x, y, z with rational coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values can be shared freely across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _rational(coeff)
                if not coeff:
                    continue
                ex, ey, ez = exp
                if (type(ex), type(ey), type(ez)) != (int, int, int):
                    ex, ey, ez = map(_integer, exp)
                if ez < 0:
                    raise AlgebraError(f"negative z exponent in term {exp}")
                clean[ex, ey, ez] = coeff
        self.terms = clean

    @staticmethod
    def _of(terms: dict[Exponent, Fraction]) -> "LaurentPoly3":
        """Wrap terms unchecked, the one path past __init__'s checks: every
        exponent must be an int triple with e_z >= 0, every coefficient a
        nonzero Fraction, and the dict must be the result's own."""
        result = LaurentPoly3.__new__(LaurentPoly3)
        result.terms = terms
        return result

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly3":
        return LaurentPoly3()

    @staticmethod
    def const(value: int | Fraction | str | float) -> "LaurentPoly3":
        return LaurentPoly3({(0, 0, 0): _rational(value)})

    @staticmethod
    def monomial(e_x: int, e_y: int, e_z: int,
                 coeff: int | Fraction = 1) -> "LaurentPoly3":
        return LaurentPoly3({(e_x, e_y, e_z): _rational(coeff)})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0, 0)}

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {(0, 0, 0)}:
            raise AlgebraError("polynomial is not constant")
        return self.terms[(0, 0, 0)]

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in ascending lexicographic exponent order."""
        return sorted(self.terms.items())

    def min_exponents(self) -> Exponent:
        """Componentwise minimum exponent; (0, 0, 0) for the zero polynomial."""
        if not self.terms:
            return (0, 0, 0)
        keys = self.terms.keys()
        return (min(k[0] for k in keys), min(k[1] for k in keys),
                min(k[2] for k in keys))

    def max_degree_z(self) -> int:
        if not self.terms:
            return 0
        return max(k[2] for k in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _merge(self, other: "LaurentPoly3", op) -> "LaurentPoly3":
        """self op other term by term, for op operator.add or operator.sub;
        a term that cancels is dropped."""
        if not other.terms:
            return self
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = op(out.get(exp, 0), coeff)
            if acc:
                out[exp] = acc
            else:
                del out[exp]
        return LaurentPoly3._of(out)

    def __add__(self, other: "LaurentPoly3") -> "LaurentPoly3":
        return self._merge(other, operator.add)

    def __sub__(self, other: "LaurentPoly3") -> "LaurentPoly3":
        return self._merge(other, operator.sub)

    def __neg__(self) -> "LaurentPoly3":
        return LaurentPoly3._of({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly3 | int | Fraction | float"
                ) -> "LaurentPoly3":
        if not isinstance(other, LaurentPoly3):
            return self.scale(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly3()
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponent, Fraction] = {}
        get = out.get
        for (ax, ay, az), ac in a.items():
            for (bx, by, bz), bc in b.items():
                exp = (ax + bx, ay + by, az + bz)
                acc = get(exp)
                prod = ac * bc
                if acc is None:
                    out[exp] = prod
                else:
                    acc = acc + prod
                    if acc:
                        out[exp] = acc
                    else:
                        del out[exp]
        return LaurentPoly3._of(out)

    __rmul__ = __mul__

    def scale(self, factor: int | Fraction | float) -> "LaurentPoly3":
        factor = _rational(factor)
        if factor == 0:
            return LaurentPoly3()
        return LaurentPoly3._of({e: c * factor for e, c in self.terms.items()})

    def shift(self, by: Exponent) -> "LaurentPoly3":
        """Multiply by the monomial x^a y^b z^c where by = (a, b, c)."""
        dx, dy, dz = by
        if dx == 0 and dy == 0 and dz == 0:
            return self
        return LaurentPoly3._of({(ex + dx, ey + dy, ez + dz): c
                                 for (ex, ey, ez), c in self.terms.items()})

    def __pow__(self, power: int) -> "LaurentPoly3":
        if power < 0:
            raise AlgebraError("negative powers are not defined for polynomials")
        out = LaurentPoly3.const(1)
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base
            power >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly3):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- calculus and evaluation ---------------------------------------------

    def partial(self, name: str) -> "LaurentPoly3":
        """Formal partial derivative with respect to x, y or z. Lowering one
        exponent keeps distinct terms distinct, so none collide or cancel."""
        i = _VAR_INDEX[name]
        return LaurentPoly3._of({
            (*exp[:i], exp[i] - 1, *exp[i + 1:]): coeff * exp[i]
            for exp, coeff in self.terms.items() if exp[i]})

    def eval_xy(self, x0: int | Fraction, y0: int | Fraction) -> Fraction:
        """Evaluate a z-free polynomial at exact (x0, y0); raise AlgebraError
        for 0 to a negative power."""
        if self.max_degree_z():
            raise AlgebraError("eval_xy called on a polynomial involving z")
        (coeffs,), scale = _integer_z_coefficients((self,), x0, y0)
        return Fraction(coeffs[0], scale)

    def z_slice(self, r: int) -> "LaurentPoly3":
        """The coefficient of z^r, as a polynomial in x and y only."""
        return LaurentPoly3._of({(ex, ey, 0): coeff
                                 for (ex, ey, ez), coeff in self.terms.items()
                                 if ez == r})

    # -- rendering -----------------------------------------------------------

    def to_json(self) -> dict:
        """Shared polynomial JSON encoding (terms sorted lexicographically)."""
        terms = []
        for (ex, ey, ez), coeff in self.sorted_terms():
            terms.append({"e": [ex, ey, ez], "c": str(coeff)})
        return {"vars": ["x", "y", "z"], "terms": terms}

    @staticmethod
    def from_json(data: Mapping) -> "LaurentPoly3":
        if not isinstance(data, dict) or data.get("vars") != ["x", "y", "z"]:
            raise AlgebraError("polynomial JSON must be an object declaring "
                               "vars [x, y, z]")
        if not isinstance(data.get("terms"), list):
            raise AlgebraError("polynomial JSON terms must be a list")
        terms: dict[Exponent, Fraction] = {}
        for item in data["terms"]:
            if not isinstance(item["e"], list) or len(item["e"]) != 3:
                raise AlgebraError(f"bad exponent triple {item['e']!r}")
            key = tuple(map(_integer, item["e"]))
            coeff = _rational(item["c"])
            if key in terms:
                raise AlgebraError(f"duplicate exponent triple {key}")
            if coeff != 0:
                terms[key] = coeff
        return LaurentPoly3(terms)

    def _render(self, mul: str, pow_open: str, pow_close: str) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for (ex, ey, ez), coeff in self.sorted_terms():
            factors: list[str] = []
            for sym, e in (("x", ex), ("y", ey), ("z", ez)):
                if e == 0:
                    continue
                if e == 1:
                    factors.append(sym)
                else:
                    factors.append(f"{sym}{pow_open}{e}{pow_close}")
            mag = abs(coeff)
            body = mul.join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}{mul}{body}" if mul else f"{mag} {body}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self._render("*", "^", "")

    def latex(self) -> str:
        return self._render(" ", "^{", "}")

    def __repr__(self) -> str:
        return f"LaurentPoly3({self})"


def poly_from_terms(terms: Iterable[tuple]) -> LaurentPoly3:
    """Build a polynomial from (e_x, e_y, e_z, coefficient) tuples; each
    coefficient is read by _rational."""
    acc: dict[Exponent, Fraction] = {}
    for ex, ey, ez, c in terms:
        key = (ex, ey, ez)
        acc[key] = acc.get(key, Fraction(0)) + _rational(c)
    return LaurentPoly3(acc)


def _normalise_pair(p: LaurentPoly3, q: LaurentPoly3,
                    sign: Fraction) -> tuple[LaurentPoly3, LaurentPoly3]:
    """Scale p and q by one rational so that their coefficients become
    integers with joint content 1 and the coefficient ``sign`` of q turns
    positive. The ratio p/q is unchanged."""
    coeffs = [*p.terms.values(), *q.terms.values()]
    denom_lcm = lcm(*(c.denominator for c in coeffs))
    numer_gcd = gcd(*(c.numerator * (denom_lcm // c.denominator) for c in coeffs))
    factor = Fraction(denom_lcm, numer_gcd)
    if sign < 0:
        factor = -factor
    return p.scale(factor), q.scale(factor)


class RatFunc3:
    """Ratio p/q of trivariate polynomials with nonnegative exponents.

    Construct through :func:`ratfunc_normalize`; the canonical form has
    integer coefficients with joint content 1, no common monomial factor,
    and a fixed sign (q(x, y, 0) positive whenever it is a nonzero constant).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly3, den: LaurentPoly3):
        self.num = num
        self.den = den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc3):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def latex(self) -> str:
        return f"\\frac{{{self.num.latex()}}}{{{self.den.latex()}}}"

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc3({self})"


def ratfunc_normalize(p: LaurentPoly3, q: LaurentPoly3) -> RatFunc3:
    """Canonicalise a polynomial pair into a RatFunc3.

    Clears Laurent exponents by the minimal joint monomial, removes joint
    integer content, and fixes the sign. Deliberately no multivariate gcd:
    common polynomial factors survive and equality testing goes through
    cross-multiplication instead.
    """
    if q.is_zero():
        raise ZeroDenominatorError("rational function with zero denominator")
    if p.is_zero():
        return RatFunc3(LaurentPoly3.zero(), LaurentPoly3.const(1))
    pm = p.min_exponents()
    qm = q.min_exponents()
    shift = (-min(pm[0], qm[0]), -min(pm[1], qm[1]), -min(pm[2], qm[2]))
    p = p.shift(shift)
    q = q.shift(shift)
    q0 = q.z_slice(0)
    if q0.is_constant() and not q0.is_zero():
        sign = q0.constant_value()
    else:
        # Fallback sign convention: make the lex-leading coefficient of q positive.
        sign = max(q.terms.items())[1]
    return RatFunc3(*_normalise_pair(p, q, sign))


def ratfunc_equal(f: RatFunc3, g: RatFunc3) -> bool:
    """Mathematical equality through cross-multiplication."""
    return (f.num * g.den - g.num * f.den).is_zero()


def series_coefficients(f: RatFunc3, r_max: int) -> list[LaurentPoly3]:
    """First r_max + 1 coefficients of f as a power series in z.

    Solves q * (sum_r W_r z^r) = p order by order; requires q(x, y, 0) to be
    a nonzero constant. The returned W_r are exact bivariate polynomials.
    """
    q0 = f.den.z_slice(0)
    if not q0.is_constant() or q0.is_zero():
        raise NonConstantLeadingTermError(
            "series extraction requires a nonzero constant q(x, y, 0)")
    c0 = q0.constant_value()
    deg_q = f.den.max_degree_z()
    q_slices = [f.den.z_slice(i) for i in range(deg_q + 1)]
    coeffs: list[LaurentPoly3] = []
    inv_c0 = 1 / c0
    for r in range(r_max + 1):
        acc = f.num.z_slice(r)
        for i in range(1, min(r, deg_q) + 1):
            acc = acc - q_slices[i] * coeffs[r - i]
        coeffs.append(acc.scale(inv_c0))
    return coeffs


class PolyMatrix:
    """Dense LaurentPoly3 matrix; zeros() fills it with one shared zero."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[LaurentPoly3]]):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise AlgebraError("ragged matrix")

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix([[LaurentPoly3.zero()] * cols] * rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.data == other.data

    def column(self, j: int = 0) -> list[LaurentPoly3]:
        return [row[j] for row in self.data]


# -- univariate sequences over the rationals ---------------------------------


def _berlekamp_massey(seq: Sequence[Fraction]) -> tuple[list[Fraction], int]:
    """Shortest linear recurrence of a sequence (Massey 1969).

    Returns (c, order) with c[0] = 1 and len(c) <= order + 1 such that
    sum_i c[i] seq[n - i] = 0 for every order <= n < len(seq). The pair is
    unique once len(seq) >= 2 * order.
    """
    c, prev = [Fraction(1)], [Fraction(1)]
    order, gap, prev_disc = 0, 1, Fraction(1)
    for n, s in enumerate(seq):
        disc = s + sum(c[i] * seq[n - i] for i in range(1, len(c)))
        if disc == 0:
            gap += 1
            continue
        factor = disc / prev_disc
        new = c + [Fraction(0)] * max(0, len(prev) + gap - len(c))
        for i, b in enumerate(prev):
            new[i + gap] -= factor * b
        if 2 * order <= n:
            prev, prev_disc, order, gap = c, disc, n + 1 - order, 1
        else:
            gap += 1
        c = new
    while c[-1] == 0:
        c.pop()
    return c, order


# -- polynomials in z: integer coefficient lists -----------------------------


def _primitive(coeffs: list[int]) -> list[int]:
    """coeffs without trailing zeros, divided by their positive content."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _cleared(coeffs: Sequence[int | Fraction]) -> list[int]:
    """The rational coefficients coeffs times the lcm of their
    denominators, made primitive."""
    scale = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (scale // c.denominator)
                       for c in coeffs])


def _integer_pair(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """The integer lists p and q, q nonzero, without trailing zeros and
    divided by one integer: their joint content, negated where the lowest
    nonzero coefficient of q is negative. Pairs that differ by a rational
    factor give the same pair."""
    g = gcd(*p, *q)
    if next(c for c in q if c) < 0:
        g = -g
    p, q = [c // g for c in p], [c // g for c in q]
    for f in (p, q):
        while f and not f[-1]:
            f.pop()
    return p, q


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of the integer polynomial a by b, both low degree
    first, as a primitive integer polynomial that is a positive multiple of
    the classical remainder: |lc b|^(deg a - deg b + 1) a = Q b + R in
    integers, R divided by its content; [] where b divides a."""
    if b[-1] < 0:
        b = [-c for c in b]
    lead, db, r = b[-1], len(b) - 1, list(a)
    for i in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        r = [x * lead for x in r]
        if c:
            for j in range(db):
                r[i - db + j] -= c * b[j]
    return _primitive(r)


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer lists, by long division in integers; AlgebraError
    unless b divides a with an integer quotient (an inexact digit leaves a
    nonzero remainder too)."""
    r, db, out = list(a), len(b) - 1, []
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] // b[-1]
        out.append(c)
        for j in range(db + 1):
            r[i - db + j] -= c * b[j]
    if any(r):
        raise AlgebraError("univariate division is not exact")
    return out[::-1]


def uni_gcd(a: Sequence[int | Fraction],
            b: Sequence[int | Fraction]) -> list[int]:
    """gcd of two polynomials in z, given as rational coefficient lists low
    degree first: the last nonzero entry of the primitive remainder
    sequence of their integer multiples, a primitive integer list with a
    positive leading coefficient; [] where both are zero."""
    a, b = _cleared(a), _cleared(b)
    while b:
        a, b = b, _remainder(a, b)
    return [-c for c in a] if a and a[-1] < 0 else a


def uni_reduce(p: Sequence[int | Fraction], q: Sequence[int | Fraction]
               ) -> tuple[list[int], list[int]]:
    """Cancel the common factor of two polynomials in z, rational
    coefficient lists low degree first, keeping p/q: both are cleared to
    integers by one lcm, and each is divided by their primitive gcd
    (uni_gcd) exactly in integers, as Gauss's lemma allows (von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 6). The pair is returned as
    _integer_pair leaves it; ZeroDenominatorError where q is zero."""
    if not any(q):
        raise ZeroDenominatorError("univariate pair with zero denominator")
    scale = lcm(*(c.denominator for c in (*p, *q)))
    p, q = ([c.numerator * (scale // c.denominator) for c in f]
            for f in (p, q))
    if any(p):
        g = uni_gcd(p, q)
        if len(g) > 1:
            p, q = _quotient(p, g), _quotient(q, g)
    return _integer_pair(p, q)


def _integer_z_coefficients(polys: Sequence[LaurentPoly3], x0: int | Fraction,
                            y0: int | Fraction) -> tuple[list[list[int]], int]:
    """The polynomials in z left by substituting exact (x0, y0) into each of
    polys, all scaled by one positive integer S into integers: their
    coefficient lists, low degree first, and S.

    With x0 = a/b in lowest terms and lo <= 0 <= hi bounding every x
    exponent, x0^ex is a^(ex - lo) b^(hi - ex) over a^-lo b^hi, and y0^ey
    likewise; so each term c x0^ex y0^ey is an integer product of two
    power-table entries over the one scale S, the product of both tables'
    scales and the lcm of the coefficients' denominators. Raises
    AlgebraError for 0 to a negative power, naming the coordinate; polys
    are checked in turn, x before y.
    """
    x0, y0 = _rational(x0), _rational(y0)
    for poly in polys:
        for idx, value in enumerate((x0, y0)):
            if value == 0 and any(exp[idx] < 0 for exp in poly.terms):
                raise AlgebraError(f"evaluating at {'xy'[idx]} = 0 with a "
                                   "negative exponent")
    common = lcm(*(c.denominator for poly in polys for c in poly.terms.values()))
    scale, tables = common, []
    for idx, value in enumerate((x0, y0)):
        exps = {0, *(exp[idx] for poly in polys for exp in poly.terms)}
        lo, hi = min(exps), max(exps)
        nums, dens = [1], [1]
        for _ in range(hi - lo):
            nums.append(nums[-1] * value.numerator)
            dens.append(dens[-1] * value.denominator)
        tables.append({e: nums[e - lo] * dens[hi - e] for e in exps})
        scale *= nums[-lo] * dens[hi]
    xs, ys = tables
    out = []
    for poly in polys:
        coeffs = [0] * (poly.max_degree_z() + 1)
        for (ex, ey, ez), c in poly.terms.items():
            coeffs[ez] += (c.numerator * (common // c.denominator)
                           * xs[ex] * ys[ey])
        out.append(coeffs)
    return out, scale


def uni_specialize(f: RatFunc3, x0: int | Fraction,
                   y0: int | Fraction) -> tuple[list[int], list[int]]:
    """Specialise a rational function at exact (x0, y0) to a pair of
    polynomials in z, integer coefficient lists low degree first, with no
    cancellation of common factors (see uni_reduce): the integers of
    _integer_z_coefficients, whose one scale keeps p/q, as _integer_pair
    leaves them. ZeroDenominatorError where q vanishes at the point."""
    (p, q), _ = _integer_z_coefficients((f.num, f.den), x0, y0)
    if not any(q):
        raise ZeroDenominatorError("denominator vanishes at the given point")
    return _integer_pair(p, q)
