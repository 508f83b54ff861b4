"""Iteration of the unlumped step matrix: the test-only reference.

The package iterates the exactly lumped quotient of the step matrix. This
is the iteration of the full 3^k-state matrix T on the initial vector v
that it replaced, run over the stored term maps of T and v, as the
reference the lumped members are compared against.
"""

from __future__ import annotations

from fractions import Fraction

from sldgf.algebra import LaurentPoly3


def _mul_into(acc: dict, a: dict, b: dict) -> None:
    """Add the product of the term maps a and b into acc."""
    for (i, j, k), c in a.items():
        for (p, q, r), d in b.items():
            e = (i + p, j + q, k + r)
            acc[e] = acc.get(e, 0) + c * d


def unlumped_weps(sys, r_max: int, point=None):
    """Yield W_0 .. W_r_max by iterating the step matrix on its columns.

    Without a point the members are exact polynomials, iterated as term
    maps {(ex, ey, ez): coefficient} and yielded as LaurentPoly3; with
    point = (x0, y0) every entry is first evaluated there, a constant term
    map, so the same recursion runs over exact rationals and yields the
    values W_r(x0, y0).
    """
    if point is None:
        at, read = dict, LaurentPoly3
    else:
        x0, y0 = Fraction(point[0]), Fraction(point[1])

        def at(terms):
            return {(0, 0, 0): LaurentPoly3(terms).eval_xy(x0, y0)}

        def read(terms):
            return Fraction(terms.get((0, 0, 0), 0))
    start = sys.spec.recursion_start
    for w in sys.spec.prefix_weps[:r_max + 1]:
        yield read(at(w.terms))
    if r_max < start:
        return
    columns = [[(i, at(e)) for i, e in column.items() if e]
               for column in sys.columns]
    vec = [at(e) for e in sys.vector]
    one = {(0, 0, 0): 1}
    for r in range(start, r_max + 1):
        if r > start:
            out = [{} for _ in vec]
            for s, column in enumerate(columns):
                for i, e in column:
                    _mul_into(out[i], e, vec[s])
            vec = out
        total = {}
        for value in vec:
            _mul_into(total, one, value)
        yield read(total)
