"""Exact-arithmetic layer: polynomials, rational functions, the reference
linear solve."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldgf import (AlgebraError, LaurentPoly3, NonConstantLeadingTermError,
                   PolyMatrix, RatFunc3, UniPolyZ, ZeroDenominatorError,
                   poly_from_terms, ratfunc_equal, ratfunc_normalize,
                   series_coefficients, uni_gcd, uni_reduce, uni_specialize)
from sldgf import to_rational
from sldgf.algebra import _berlekamp_massey, _integer, _rational

from fraction_free import (SingularMatrixError, divexact, identity,
                           solve_linear, solve_linear_raw)
from golden_forms import GOLDEN_GF

X = LaurentPoly3.var("x")
Y = LaurentPoly3.var("y")
Z = LaurentPoly3.var("z")
ONE = LaurentPoly3.const(1)


def coefficients():
    return st.fractions(min_value=-9, max_value=9, max_denominator=6)


def laurent_polys(max_terms=12):
    term = st.tuples(st.integers(-3, 4), st.integers(-3, 4),
                     st.integers(0, 4), coefficients())
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: poly_from_terms((ex, ey, ez, c) for ex, ey, ez, c in ts))


@st.composite
def cancelling_pairs(draw):
    """(a, b) with b holding the negation of some of a's terms, so that
    a + b cancels there; exponents range over negative x and y powers."""
    a = draw(laurent_polys())
    shared = draw(st.sets(st.sampled_from(sorted(a.terms)))) if a.terms \
        else set()
    terms = dict(draw(laurent_polys()).terms)
    for exp in shared:
        terms[exp] = terms.get(exp, 0) - a.terms[exp]
    return a, LaurentPoly3(terms)


def stores_no_zero(p):
    """p keeps the kernel's invariant: int exponent triples with e_z >= 0
    and nonzero Fraction coefficients."""
    return all(type(c) is F and c != 0 and exp[2] >= 0
               and all(type(e) is int for e in exp)
               for exp, c in p.terms.items())


class TestPolyOps:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X * X - Y * Y

    def test_formal_derivative(self):
        p = X * X + LaurentPoly3.const(3) * Y * Y
        assert p.partial("y") == LaurentPoly3.const(6) * Y

    def test_substitute_bell_point(self):
        p = X * X + LaurentPoly3.const(3) * Y * Y
        assert p.eval_xy(F(3, 4), F(1, 4)) == F(3, 4)
        # with z left over, each power of z collects its own coefficient
        f = ratfunc_normalize(p + p * Z * Z, ONE + X * Z)
        assert uni_specialize(f, F(3, 4), F(1, 4)) == \
            (UniPolyZ([3, 0, 3]), UniPolyZ([4, 3]))

    def test_substitute_zero_into_negative_exponent_rejected(self):
        p = LaurentPoly3.monomial(-1, 2, 0)
        with pytest.raises(AlgebraError, match="x = 0"):
            p.eval_xy(0, 1)
        f = RatFunc3(LaurentPoly3.monomial(-1, 2, 1) + ONE, ONE)
        with pytest.raises(AlgebraError, match="x = 0"):
            uni_specialize(f, 0, 1)

    def test_eval_zero_into_negative_exponent_rejected(self):
        # an AlgebraError naming the coordinate, not a bare ZeroDivisionError
        p = LaurentPoly3.monomial(-1, 2, 0) + X
        for point in ((0, 1), (F(0), F(2, 3))):
            with pytest.raises(AlgebraError, match="x = 0"):
                p.eval_xy(*point)
        assert p.eval_xy(2, 0) == 2
        with pytest.raises(AlgebraError, match="y = 0"):
            LaurentPoly3.monomial(2, -1, 0).eval_xy(1, 0)
        with pytest.raises(AlgebraError, match="involving z"):
            (X + Z).eval_xy(1, 1)

    def test_substitute_zero_drops_positive_powers(self):
        p = X * Y + Y
        assert p.eval_xy(0, F(2, 3)) == F(2, 3)
        # at x = 0 in z's presence: x y z and x z^3 vanish, y and z^2 stay
        f = ratfunc_normalize(p * Z + Y + Z * Z + X * Z ** 3, ONE + X * Z)
        assert uni_specialize(f, 0, 2) == (UniPolyZ([2, 2, 1]), UniPolyZ([1]))

    def test_laurent_derivative(self):
        p = LaurentPoly3.monomial(-1, 2, 0)
        assert p.partial("x") == LaurentPoly3.monomial(-2, 2, 0, -1)

    @settings(max_examples=60, deadline=None)
    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(max_terms=6), laurent_polys(max_terms=6))
    def test_exact_division_inverts_multiplication(self, a, b):
        if b.is_zero():
            return
        assert divexact(a * b, b) == a

    def test_json_round_trip(self):
        p = poly_from_terms([(-1, 2, 0, 1), (0, 0, 3, -2), (2, 0, 0, F(1, 3))])
        blob = p.to_json()
        assert blob["vars"] == ["x", "y", "z"]
        exponents = [tuple(t["e"]) for t in blob["terms"]]
        assert exponents == sorted(exponents)
        assert LaurentPoly3.from_json(blob) == p

    def test_float_coefficients_read_by_decimal_rendering(self):
        # the same float gives the same exact value at every entry point
        assert LaurentPoly3.const(0.4) == LaurentPoly3.const("2/5")
        tenth = LaurentPoly3.const(F(1, 10))
        assert poly_from_terms([(0, 0, 0, 0.1)]) == tenth
        blob = {"vars": ["x", "y", "z"], "terms": [{"e": [0, 0, 0], "c": 0.1}]}
        assert LaurentPoly3.from_json(blob) == tenth

    def test_scalar_operands_read_as_by_scale(self):
        assert X * 0.5 == 0.5 * X == X * F(1, 2) == X.scale(0.5)
        with pytest.raises(TypeError):
            X * None

    def test_json_exponents_are_not_truncated(self):
        blob = {"vars": ["x", "y", "z"], "terms": [{"e": [1.7, 0, 0], "c": "1"}]}
        with pytest.raises(AlgebraError, match="not an integer"):
            LaurentPoly3.from_json(blob)
        blob["terms"][0]["e"] = [1.0, "0", 0]
        assert LaurentPoly3.from_json(blob) == X

    def test_exponents_are_not_truncated(self):
        # int() read 1.2 and 1.7 as 1, one term overwriting the other, and
        # z^0.5 as z^0; an integral float or string is still its integer
        for terms in ({(1.2, 0, 0): 1, (1.7, 0, 0): 5, (0, 0, 0.5): 2},
                      {(0, 0, 0.5): 2}, {(0, "1/2", 0): 1}):
            with pytest.raises(AlgebraError, match="not an integer"):
                LaurentPoly3(terms)
        with pytest.raises(AlgebraError, match="not an integer"):
            poly_from_terms([(1.2, 0, 0, 1)])
        with pytest.raises(AlgebraError, match="not an integer"):
            LaurentPoly3.monomial(0, 0, 0.5)
        with pytest.raises(AlgebraError, match="negative z exponent"):
            LaurentPoly3({(0, 0, -1): 1})
        with pytest.raises(AlgebraError, match="negative z exponent"):
            LaurentPoly3.monomial(0, 0, -1.0)
        assert LaurentPoly3({(2.0, "2", 0): 3}).terms == {(2, 2, 0): 3}
        assert type(next(iter(LaurentPoly3({(2.0, 0, 0): 1}).terms))[0]) \
            is int
        assert poly_from_terms([(1.0, 0, "0", 1)]) == X

    def test_rendering(self):
        p = ONE - LaurentPoly3.const(2) * X * Y * Z * Z
        assert str(p) == "1 - 2*x*y*z^2"
        assert p.latex() == "1 - 2 x y z^{2}"

    @pytest.mark.parametrize("zero", ["0", "0/5", F(0), 0.0])
    def test_zero_coefficients_are_not_stored(self, zero):
        # each is read as an exact rational before the zero test, so none
        # is kept as a stored Fraction(0)
        p = LaurentPoly3({(0, 0, 0): zero, (1, -1, 2): zero})
        assert p.is_zero()
        assert p == LaurentPoly3()


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(cancelling_pairs())
    def test_sum_and_difference(self, pair):
        a, b = pair
        assert (a + b) - b == a
        assert a - b == a + (-b)
        assert (a - a).is_zero()
        for p in (a + b, a - b, b - a, -b, a - a, a * b, a.scale(F(-2, 3)),
                  a.shift((-1, 2, 1)), a.z_slice(1)):
            assert stores_no_zero(p)

    @settings(max_examples=40, deadline=None)
    @given(cancelling_pairs())
    def test_partial_obeys_leibniz(self, pair):
        a, b = pair
        for name in "xyz":
            assert (a * b).partial(name) == \
                a.partial(name) * b + a * b.partial(name)
            assert stores_no_zero(a.partial(name))


class TestNumberReader:
    @pytest.mark.parametrize("value, exact", [
        (3, F(3)), (F(-2, 7), F(-2, 7)), ("4/5", F(4, 5)), ("0.8", F(4, 5)),
        (0.8, F(4, 5)), (0.1, F(1, 10)), (-2.5, F(-5, 2))])
    def test_exact_forms(self, value, exact):
        assert _rational(value) == exact
        assert type(_rational(value)) is F

    # a bool is an int to Python, but not a number to the reader
    @pytest.mark.parametrize("value", [None, [1], 1j, b"1", True, False])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            _rational(value)

    def test_strings_and_floats_that_are_no_number_rejected(self):
        for value in ("x", "", float("nan"), float("inf")):
            with pytest.raises(ValueError):
                _rational(value)

    @pytest.mark.parametrize("value", ["1/0", "0/0", "-3/0"])
    def test_zero_denominator_rejected(self, value):
        # Fraction raises ZeroDivisionError here; the reader promises
        # ValueError for a string that is no number
        with pytest.raises(ValueError, match="zero denominator") as info:
            to_rational(value)
        assert not isinstance(info.value, ZeroDivisionError)

    def test_integers_refuse_fractions(self):
        assert [_integer(v) for v in (2, 2.0, "2", F(4, 2), "-3")] == \
            [2, 2, 2, 2, -3]
        for value in (1.9, -0.7, "1/2", F(3, 2)):
            with pytest.raises(AlgebraError, match="not an integer"):
                _integer(value)

    def test_public_name_is_the_reader(self):
        assert to_rational is _rational


class TestRatFunc:
    def test_monomial_clearing(self):
        f = ratfunc_normalize(LaurentPoly3.monomial(-1, 2, 0),
                              LaurentPoly3.monomial(-1, 0, 0))
        assert f.num == Y * Y
        assert f.den == ONE

    def test_content_removal(self):
        f = ratfunc_normalize(LaurentPoly3.const(2) * (X + Y),
                              LaurentPoly3.const(2))
        assert f.num == X + Y
        assert f.den == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            ratfunc_normalize(ONE, LaurentPoly3.zero())

    def test_sign_convention(self):
        f = ratfunc_normalize(X, -ONE + Z)
        assert f.den.z_slice(0).constant_value() > 0

    def test_equal_up_to_scalar(self):
        f = ratfunc_normalize(X + Y, ONE - Z)
        g = ratfunc_normalize(LaurentPoly3.const(2) * (X + Y),
                              LaurentPoly3.const(2) * (ONE - Z))
        assert ratfunc_equal(f, g)

    def test_path_and_star_differ(self):
        assert not ratfunc_equal(GOLDEN_GF["path"], GOLDEN_GF["star"])

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(max_terms=5), laurent_polys(max_terms=5),
           laurent_polys(max_terms=4))
    def test_equal_is_an_equivalence(self, p, q, scale):
        if q.is_zero():
            return
        f = ratfunc_normalize(p, q)
        assert ratfunc_equal(f, f)
        if not scale.is_zero():
            g = ratfunc_normalize(p * scale, q * scale)
            assert ratfunc_equal(f, g)
            assert ratfunc_equal(g, f)


class TestSolveLinear:
    def test_zeros_share_one_zero(self):
        # filling one cell replaces it and leaves the others zero
        m = PolyMatrix.zeros(3, 2)
        zero = m.data[0][0]
        assert zero.is_zero()
        assert all(e is zero for row in m.data for e in row)
        m.data[1][0] = m.data[1][0] + X
        assert m.data[1][0] == X and zero.is_zero()
        assert all(m.data[i][j] is zero for i in range(3) for j in range(2)
                   if (i, j) != (1, 0))

    def test_identity_system(self):
        b = PolyMatrix([[X], [LaurentPoly3.zero()], [Y], [LaurentPoly3.zero()]])
        u = solve_linear(identity(4), b)
        assert [f.num for f in u] == b.column(0)
        assert all(f.den == ONE for f in u)

    def test_singular_matrix_reported(self):
        m = PolyMatrix([[X, X], [X, X]])
        with pytest.raises(SingularMatrixError):
            solve_linear_raw(m, [ONE, ONE])

    def test_pivoting_handles_zero_leading_entry(self):
        m = PolyMatrix([[LaurentPoly3.zero(), ONE], [ONE, LaurentPoly3.zero()]])
        nums, den = solve_linear_raw(m, [X, Y])
        # u = (y, x) up to the shared denominator
        assert divexact(nums[0], den) == Y
        assert divexact(nums[1], den) == X

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 1), coefficients()),
                    min_size=9, max_size=9),
           st.lists(coefficients(), min_size=3, max_size=3))
    def test_solution_satisfies_system_exactly(self, entries, rhs):
        data = [[poly_from_terms([entries[3 * i + j]]) for j in range(3)]
                for i in range(3)]
        m = PolyMatrix(data)
        b = [LaurentPoly3.const(c) for c in rhs]
        try:
            nums, den = solve_linear_raw(m, b)
        except SingularMatrixError:
            return
        for i in range(3):
            acc = LaurentPoly3.zero()
            for j in range(3):
                acc = acc + m.data[i][j] * nums[j]
            # m @ u - b == 0 after clearing the common denominator
            assert acc == b[i] * den

    def test_multiterm_laurent_systems_solve_exactly(self):
        # drive the exact-division chains with dense 4x4 systems whose
        # entries mix several Laurent monomials
        import random
        rng = random.Random(404)

        def random_poly():
            terms = [(rng.randint(-2, 3), rng.randint(-2, 3),
                      rng.randint(0, 2), rng.choice([-3, -2, -1, 1, 2, 3]))
                     for _ in range(rng.randint(1, 2))]
            return poly_from_terms(terms)

        solved = 0
        for _ in range(12):
            m = PolyMatrix([[random_poly() for _ in range(4)]
                            for _ in range(4)])
            b = [random_poly() for _ in range(4)]
            try:
                nums, den = solve_linear_raw(m, b)
            except SingularMatrixError:
                continue
            solved += 1
            for i in range(4):
                acc = LaurentPoly3.zero()
                for j in range(4):
                    acc = acc + m.data[i][j] * nums[j]
                assert acc == b[i] * den
        assert solved >= 8


class TestRecurrenceTools:
    def test_berlekamp_massey_finds_fibonacci(self):
        seq = [F(1), F(1)]
        while len(seq) < 10:
            seq.append(seq[-1] + seq[-2])
        assert _berlekamp_massey(seq) == ([1, -1, -1], 2)

    def test_order_exceeds_degree_when_numerator_is_long(self):
        # 1/(1 - 2u) + u^3 = (1 + u^3 - 2u^4)/(1 - 2u): the recurrence is
        # c = 1 - 2u, but it only holds from n = 5 on
        seq = [F(2) ** k + (k == 3) for k in range(10)]
        assert _berlekamp_massey(seq) == ([1, -2], 5)


class TestSeriesCoefficients:
    def test_path_series_matches_small_members(self, systems):
        from sldgf import family_gf
        gf = family_gf(systems["path"])
        coeffs = series_coefficients(gf, 3)
        assert coeffs[0] == ONE
        assert coeffs[1] == X + Y
        assert coeffs[2] == X * X + LaurentPoly3.const(3) * Y * Y
        assert coeffs[3] == poly_from_terms([(3, 0, 0, 1), (1, 2, 0, 3),
                                             (0, 3, 0, 4)])

    def test_grid_first_member_is_bell_pair(self):
        coeffs = series_coefficients(GOLDEN_GF["grid_2"], 1)
        assert coeffs[1] == X * X + LaurentPoly3.const(3) * Y * Y

    def test_non_constant_leading_term_rejected(self):
        f = ratfunc_normalize(ONE, X + Z)
        with pytest.raises(NonConstantLeadingTermError):
            series_coefficients(f, 3)

    @pytest.mark.parametrize("name", sorted(GOLDEN_GF))
    def test_series_times_denominator_reproduces_numerator(self, name):
        f = GOLDEN_GF[name]
        order = 8
        coeffs = series_coefficients(f, order)
        acc = LaurentPoly3.zero()
        for r, w in enumerate(coeffs):
            acc = acc + w.shift((0, 0, r))
        product = acc * f.den
        for r in range(order + 1):
            assert product.z_slice(r) == f.num.z_slice(r)


class TestUnivariate:
    def expect_scalar_multiple(self, got, expected):
        gp, gq = got
        ep, eq = expected
        scale = gq.coeffs[-1] / eq.coeffs[-1]
        assert gq == eq.scale(scale)
        assert gp == ep.scale(scale)

    def test_path_specialisation(self):
        pair = uni_specialize(GOLDEN_GF["path"], F(3, 4), F(1, 4))
        self.expect_scalar_multiple(pair, (UniPolyZ([8, 0, -2]),
                                           UniPolyZ([8, -8, 0, 1])))

    def test_star_specialisation(self):
        pair = uni_specialize(GOLDEN_GF["star"], F(3, 4), F(1, 4))
        # common simple factor of the unreduced pair survives specialisation
        common = UniPolyZ([1, F(-1, 2)])
        p = UniPolyZ([4, -2, -1]) * common
        q = UniPolyZ([4, -6, 2]) * common
        self.expect_scalar_multiple(pair, (p, q))

    def test_cycle_specialisation(self):
        p, q = uni_specialize(GOLDEN_GF["cycle"], F(3, 4), F(1, 4))
        pr, qr = uni_reduce(p, q)
        self.expect_scalar_multiple((pr, qr), (UniPolyZ([8, 0, 0, -2]),
                                               UniPolyZ([8, -8, 0, 1])))

    def test_reduce_preserves_ratio(self):
        base_p = UniPolyZ([1, 2])
        base_q = UniPolyZ([3, 0, 1])
        common = UniPolyZ([-1, 1, 1])
        p, q = uni_reduce(base_p * common, base_q * common)
        assert (p * base_q - q * base_p).is_zero()

    def test_gcd(self):
        a = UniPolyZ([-1, 0, 1])      # (z-1)(z+1)
        b = UniPolyZ([1, 2, 1])       # (z+1)^2
        assert uni_gcd(a, b) == UniPolyZ([1, 1])

    @settings(max_examples=200, deadline=None)
    @given(*[st.lists(st.fractions(-4, 4, max_denominator=6), max_size=5)
             .map(UniPolyZ)] * 3)
    def test_gcd_matches_rational_euclid(self, a, b, common):
        # the primitive remainder sequence in integers gives the monic gcd
        # that Euclid over the rationals gives, zero and constants included
        a, b = a * common, b * common
        x, y = a, b
        while not y.is_zero():
            x, y = y, x.divmod(y)[1]
        assert uni_gcd(a, b) == (x.scale(1 / x.coeffs[-1]) if x.coeffs
                                 else x)

    def test_divmod(self):
        a = UniPolyZ([1, 0, 0, 2])
        b = UniPolyZ([1, 1])
        quot, rem = a.divmod(b)
        assert (quot * b - (a - rem)).is_zero()
        assert rem.degree() < b.degree()
