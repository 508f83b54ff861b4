"""Iteration of the unlumped step matrix: the test-only reference.

The package iterates the exactly lumped quotient of the step matrix. This
is the iteration of the full 4^k-state matrix T on the initial vector v that
it replaced, kept unchanged as the reference the lumped members are
compared against.
"""

from __future__ import annotations

from fractions import Fraction

from sldgf.algebra import LaurentPoly3


def unlumped_weps(sys, r_max: int, point=None):
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
    start = sys.spec.recursion_start
    for w in sys.spec.prefix_weps[:r_max + 1]:
        yield at(w)
    if r_max < start:
        return
    rows = [[(k, at(e)) for k, e in enumerate(row) if not e.is_zero()]
            for row in sys.t.data]
    vec = [at(e) for e in sys.v.column(0)]
    for r in range(start, r_max + 1):
        if r > start:
            vec = [sum((c * vec[k] for k, c in row), zero) for row in rows]
        yield sum(vec, zero)
