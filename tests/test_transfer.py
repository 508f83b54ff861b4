"""Transfer matrices, initial vectors, iteration, and generating functions."""

import dataclasses
import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldgf import (BUILTIN_FAMILIES, AlgebraError, CertificateError,
                   FamilyError, FamilySpec, Graph, LaurentPoly3, PolyMatrix,
                   RatFunc3, TransferSystem, build_transfer_system, builtin,
                   certify_family_gf, colouring_weight, decode_states,
                   encode_states, family_gf, fidelity_sweep, iter_weps,
                   parse_family_spec, poly_from_terms, ratfunc_equal,
                   ratfunc_normalize, series_coefficients, wep_by_iteration,
                   wep_values_by_iteration)
from sldgf import transfer
from sldgf.transfer import Quotient, _check_lumping, _lump, _min_cycle_mean

from conftest import brute_sectors, wep_terms_from_sectors
from fraction_free import resolvent_matrix, solve_linear_raw
from golden_forms import GOLDEN_GF
from test_custom_family import CATERPILLAR, LADDER_3
from unlumped import unlumped_weps

X = LaurentPoly3.var("x")
Y = LaurentPoly3.var("y")
Z = LaurentPoly3.var("z")
ONE = LaurentPoly3.const(1)
ZERO = LaurentPoly3.zero()

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
VERTEX = Graph.from_edges(1, [])


def mono(ex, ey, c=1):
    return LaurentPoly3.monomial(ex, ey, 0, c)


def fraction_free_gf(sys_):
    """Reference generating function: prefix plus z^start times the component
    sum of the fraction-free solution of (I - zT) u = v."""
    nums, den = solve_linear_raw(resolvent_matrix(sys_.t), sys_.v.column(0))
    total = ZERO
    for num in nums:
        total = total + num
    prefix = ZERO
    for r, w in enumerate(sys_.spec.prefix_weps):
        prefix = prefix + w.shift((0, 0, r))
    shift = (0, 0, sys_.spec.recursion_start)
    return ratfunc_normalize(prefix * den + total.shift(shift), den)


class TestStateIndexing:
    def test_composite_index_is_base_four_msb_first(self):
        states = [(1, 1), (0, 0), (1, 0)]  # bo, we, be
        index = encode_states(states)
        assert index == 3 * 16 + 0 * 4 + 2
        assert decode_states(index, 3) == states


class TestColouringWeight:
    def test_all_white_chain(self):
        assert colouring_weight(PATH3, [0, 0, 0], [0, 0, 0]) == 3

    def test_white_black_white_chain(self):
        assert colouring_weight(PATH3, [0, 1, 0], [0, 0, 0]) == 0

    def test_single_vertex_odd_external_parity(self):
        assert colouring_weight(VERTEX, [0], [1]) == 0

    def test_matches_independent_enumeration(self):
        # weight with all-even parity is the admissible count used by the oracle
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        counts = [0] * 5
        for mask in range(16):
            colours = [(mask >> v) & 1 for v in range(4)]
            counts[4 - colouring_weight(g, colours, [0, 0, 0, 0])] += 1
        assert tuple(counts) == brute_sectors(4, g.sorted_edges())


class TestStepMatrices:
    def test_path_step_matrix_display(self, systems):
        t = systems["path"].t
        expected = [
            [mono(1, 0), mono(1, 0), ZERO, ZERO],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
            [mono(-1, 2), mono(1, 0), ZERO, ZERO],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
        ]
        assert t.data == expected

    def test_star_step_matrix_display(self, systems):
        t = systems["star"].t
        expected = [
            [mono(1, 0), mono(1, 0), ZERO, ZERO],
            [mono(-1, 2), mono(1, 0), ZERO, ZERO],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
        ]
        assert t.data == expected

    def test_step_entries_are_homogeneous_of_fixed_degree(self, systems):
        # entries collect one monomial per extension branch; branches can
        # merge (joint_squares), so coefficients are positive integers and
        # every term has total degree |replacement| - |boundary|
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            growth = sys_.spec.qubit_step
            for row in sys_.t.data:
                for entry in row:
                    for (ex, ey, ez), coeff in entry.sorted_terms():
                        assert ez == 0
                        assert coeff >= 1 and coeff.denominator == 1
                        assert ex + ey == growth

    def test_displayed_families_have_monomial_entries(self, systems):
        for name in ("path", "star", "cycle"):
            for row in systems[name].t.data:
                for entry in row:
                    assert entry.is_zero() or entry.num_terms() == 1

    def test_step_columns_conserve_counting(self, systems):
        # each boundary state extends to exactly 2^(fresh vertices) colourings
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            growth = sys_.spec.qubit_step
            for col in range(sys_.t.cols):
                total = sum(sys_.t.data[row][col].eval_xy(1, 1)
                            for row in range(sys_.t.rows))
                assert total == 2 ** growth

    def test_path_initial_vector(self, systems):
        assert systems["path"].v.column(0) == [mono(2, 0), mono(0, 2),
                                               mono(0, 2), mono(0, 2)]

    def test_star_initial_vector_equals_paths(self, systems):
        assert systems["star"].v.column(0) == systems["path"].v.column(0)

    def test_cycle_initial_vector_matches_enumeration(self, systems):
        # classify all triangle colourings by (colour, external parity) of the
        # boundary pair: external parity of both boundary vertices is the
        # middle vertex's colour
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        acc = [LaurentPoly3.zero() for _ in range(16)]
        for mask in range(8):
            c0, c1, c2 = [(mask >> v) & 1 for v in range(3)]
            weight = colouring_weight(triangle, [c0, c1, c2], [0, 0, 0])
            state = encode_states([(c0, c1), (c2, c1)])
            acc[state] = acc[state] + mono(weight, 3 - weight)
        assert systems["cycle"].v.column(0) == acc

    def test_dimensions(self, systems):
        assert systems["path"].dimension == 4
        assert systems["cycle"].dimension == 16
        assert systems["grid_2"].dimension == 16
        assert systems["joint_squares"].dimension == 4

    @pytest.mark.parametrize("field, bad, message", [
        ("next_boundary_map", {0: 2, 1: 2}, "injective"),
        ("glue_map", {0: 0, 1: 4}, "outside the replacement"),
    ], ids=["non-injective-next-boundary", "glue-outside-replacement"])
    def test_build_rejects_bad_vertex_maps(self, field, bad, message):
        # built directly, not parsed, so the validate() call inside
        # build_transfer_system is the only check on the bad map
        spec = dataclasses.replace(builtin("grid_2"), **{field: bad})
        with pytest.raises(FamilyError, match=message):
            build_transfer_system(spec)


class TestIteration:
    def test_member_zero_is_one(self, systems):
        for name in BUILTIN_FAMILIES:
            assert wep_by_iteration(systems[name], 0) == ONE

    def test_star_member_three(self, systems):
        expected = poly_from_terms(
            (ex, ey, 0, c) for (ex, ey, _), c in
            wep_terms_from_sectors(brute_sectors(3, [(0, 1), (0, 2)])).items())
        assert wep_by_iteration(systems["star"], 3) == expected

    def test_cycle_member_four(self, systems):
        c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
        expected = LaurentPoly3(wep_terms_from_sectors(brute_sectors(4, c4)))
        assert wep_by_iteration(systems["cycle"], 4) == expected
        assert expected == poly_from_terms([(4, 0, 0, 1), (2, 2, 0, 2),
                                            (1, 3, 0, 8), (0, 4, 0, 5)])

    def test_counting_conservation(self, systems):
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            for r in range(0, 13):
                wep = wep_by_iteration(sys_, r)
                n = sys_.spec.qubit_count(r) if r >= 1 else 0
                assert wep.eval_xy(1, 1) == 2 ** n, (name, r)

    def test_homogeneity(self, systems):
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            for r in range(1, 13):
                n = sys_.spec.qubit_count(r)
                assert wep_by_iteration(sys_, r).is_homogeneous_xy(n), (name, r)

    def test_iter_weps_matches_single_member_calls(self, systems):
        sys_ = systems["cycle"]
        for r, wep in enumerate(iter_weps(sys_, 8)):
            assert wep == wep_by_iteration(sys_, r)

    def test_specialised_iteration_matches_substitution(self, systems):
        # every member, prefix ones below recursion_start included: the
        # values at a point agree with the symbolic members evaluated there
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            values = wep_values_by_iteration(sys_, F(3, 4), F(1, 4), 12)
            assert len(values) == 13
            for r, wep in enumerate(iter_weps(sys_, 12)):
                assert values[r] == wep.eval_xy(F(3, 4), F(1, 4)), (name, r)
                assert wep_values_by_iteration(sys_, F(3, 4), F(1, 4), r) \
                    == values[:r + 1], (name, r)


class TestGeneratingFunctions:
    @pytest.mark.parametrize("name", sorted(GOLDEN_GF))
    def test_golden_forms(self, systems, name):
        gf = family_gf(systems[name])
        assert ratfunc_equal(gf, GOLDEN_GF[name])
        # reduced by construction: the canonical pair is the published one
        assert gf == GOLDEN_GF[name]

    def test_path_pair_is_exactly_the_closed_form(self, systems):
        gf = family_gf(systems["path"])
        two = LaurentPoly3.const(2)
        assert gf.num == ONE - two * (X - Y) * Y * Z * Z
        assert gf.den == ONE - Z * (X + Y) * (ONE - (X - Y) * Y * Z * Z)

    def test_one_vertex_start_gives_same_series(self, systems):
        # starting the geometric series one step earlier, from the
        # single-vertex state vector, must produce the same function
        for name in ("path", "star"):
            sys_ = systems[name]
            v1 = PolyMatrix([[X], [ZERO], [Y], [ZERO]])
            nums, den = solve_linear_raw(resolvent_matrix(sys_.t),
                                         v1.column(0))
            total = ZERO
            for num in nums:
                total = total + num
            gf = ratfunc_normalize(den + total.shift((0, 0, 1)), den)
            assert ratfunc_equal(gf, GOLDEN_GF[name])

    def test_series_equals_iteration(self, systems):
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            coeffs = series_coefficients(family_gf(sys_), 12)
            for r, wep in enumerate(iter_weps(sys_, 12)):
                assert coeffs[r] == wep, (name, r)

    def test_cycle_gf_equals_golden_by_cross_multiplication(self, systems):
        gf = family_gf(systems["cycle"])
        assert ratfunc_equal(gf, GOLDEN_GF["cycle"])
        assert (gf.num, gf.den) == (GOLDEN_GF["cycle"].num,
                                    GOLDEN_GF["cycle"].den)

    @pytest.mark.parametrize("name", sorted(GOLDEN_GF))
    def test_certificate_rejects_a_perturbed_numerator(self, systems, name):
        gf = family_gf(systems[name])
        certify_family_gf(systems[name], gf)
        exp, _ = gf.num.sorted_terms()[-1]
        bumped = RatFunc3(gf.num + LaurentPoly3({exp: 1}), gf.den)
        with pytest.raises(CertificateError):
            certify_family_gf(systems[name], bumped)
        # a denominator without a constant z^0 slice has no power series
        with pytest.raises(CertificateError):
            certify_family_gf(systems[name], RatFunc3(gf.num, gf.den * X))

    @pytest.mark.parametrize("name", ["path", "star", "pusteblume",
                                      "joint_squares", "caterpillar"])
    def test_matches_fraction_free_reference(self, systems, name):
        # the 1-vertex-boundary families are small enough for the reference
        # solve of (I - zT) u = v; the caterpillar has Laurent step entries
        # and a negative qubit offset
        sys_ = (custom_system(name) if name == "caterpillar"
                else systems[name])
        assert ratfunc_equal(family_gf(sys_), fraction_free_gf(sys_))


def custom_system(name):
    doc = {"caterpillar": CATERPILLAR, "ladder_3": LADDER_3}[name]
    return build_transfer_system(parse_family_spec(json.dumps(doc)))


QUOTIENT_DIMENSIONS = {
    "path": 3, "star": 3, "pusteblume": 3, "joint_squares": 3,
    "caterpillar": 3, "cycle": 9, "complete_bipartite_2": 5, "grid_2": 6,
    "ladder_3": 18}


@st.composite
def family_specs(draw):
    """Valid families with a 1-2 vertex boundary, a base graph of up to 4
    vertices and a replacement of up to 5, the next boundary inducing the
    boundary's subgraph as validate() demands."""
    k = draw(st.integers(1, 2))
    n = draw(st.integers(k, 4))
    m = draw(st.integers(k, 5))

    def edges(size):
        pairs = list(itertools.combinations(range(size), 2))
        return set(draw(st.sets(st.sampled_from(pairs)))) if pairs else set()
    base, rep = edges(n), edges(m)
    boundary = draw(st.permutations(range(n)))[:k]
    glue = draw(st.permutations(range(m)))[:k]
    nxt = draw(st.permutations(range(m)))[:k]
    if k == 2:
        rep.discard(tuple(sorted(nxt)))
        if tuple(sorted(boundary)) in base:
            rep.add(tuple(sorted(nxt)))
    spec = FamilySpec(
        name="generated", base_graph=Graph.from_edges(n, sorted(base)),
        boundary=tuple(boundary), replacement=Graph.from_edges(m, sorted(rep)),
        glue_map=dict(zip(boundary, glue)),
        next_boundary_map=dict(zip(boundary, nxt)),
        prefix_weps=(ONE,), recursion_start=1, qubit_offset=n - (m - k),
        qubit_step=m - k)
    spec.validate()
    return spec


def weighted_digraphs():
    """Rows of (target, weight) edges on 1-5 vertices, at most one edge
    per ordered pair."""
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 5)),
                 max_size=n, unique_by=lambda edge: edge[0]),
        min_size=n, max_size=n))


class TestLumping:
    @pytest.mark.parametrize("name", sorted(QUOTIENT_DIMENSIONS))
    def test_quotient_dimensions(self, systems, name):
        sys_ = systems.get(name) or custom_system(name)
        assert sys_.quotient.dimension == QUOTIENT_DIMENSIONS[name]
        assert sys_.dimension == 4 ** len(sys_.spec.boundary)

    @pytest.mark.parametrize("name", sorted(QUOTIENT_DIMENSIONS))
    def test_lumped_members_equal_unlumped(self, systems, name):
        sys_ = systems.get(name) or custom_system(name)
        assert list(iter_weps(sys_, 40)) == list(unlumped_weps(sys_, 40))

    def test_lumped_values_equal_unlumped(self, systems):
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            assert wep_values_by_iteration(sys_, F(1, 2), F(2, 5), 60) == \
                list(unlumped_weps(sys_, 60, (F(1, 2), F(2, 5)))), name

    @pytest.mark.parametrize("tamper", ["entry", "dropped-entry",
                                        "repeated-entry", "foreign-block",
                                        "start", "block"])
    def test_tampered_quotient_raises(self, systems, tamper):
        sys_ = systems["grid_2"]
        q = sys_.quotient
        rows, start, block_of = list(q.rows), list(q.v), list(q.block_of)
        if tamper == "entry":
            (d, e), *rest = rows[0]
            rows[0] = ((d, e + X * Y),) + tuple(rest)
        elif tamper == "dropped-entry":
            rows[-1] = rows[-1][:-1]
        elif tamper == "repeated-entry":
            # the iteration adds both copies
            rows[0] = rows[0] + rows[0][-1:]
        elif tamper == "foreign-block":
            rows[0] = rows[0] + ((len(rows), ONE),)
        elif tamper == "start":
            start[0] = start[0] + ONE
        else:
            block_of[block_of.index(1)] = 0
        bad = Quotient(tuple(block_of), tuple(rows), tuple(start))
        with pytest.raises(CertificateError, match="lump"):
            _check_lumping(sys_.t, sys_.v, bad)

    def test_untampered_quotient_is_accepted(self, systems):
        sys_ = systems["cycle"]
        _check_lumping(sys_.t, sys_.v, sys_.quotient)
        assert _lump(sys_.t, sys_.v) == sys_.quotient

    def test_system_is_frozen(self, systems):
        # the quotient and the cached generating function are derived from
        # t and v, so neither may be swapped after the system is made
        path, star = systems["path"], systems["star"]
        for name, value in (("t", star.t), ("quotient", star.quotient)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(path, name, value)

    def test_replaced_system_derives_its_own_gf(self, systems):
        # the cached generating function belongs to the system it was
        # derived from, not to a copy made with another operator
        path, star = systems["path"], systems["star"]
        family_gf(path)
        swapped = dataclasses.replace(path, t=star.t, v=star.v)
        assert family_gf(swapped) == GOLDEN_GF["star"]

    def test_sampling_window_from_cycle_means(self, systems, monkeypatch):
        # the window [ceil(k m_min), floor(k m_max)] needs 13 sample sweeps
        # on grid_2 and 4 on cycle
        real, calls = transfer.wep_values_by_iteration, []
        monkeypatch.setattr(transfer, "wep_values_by_iteration",
                            lambda *a: calls.append(a) or real(*a))
        for name, sweeps in (("grid_2", 13), ("cycle", 4)):
            calls.clear()
            den, order = transfer._minimal_denominator(systems[name])
            assert den == GOLDEN_GF[name].den or -den == GOLDEN_GF[name].den
            assert len(calls) == sweeps, name

    @settings(max_examples=150, deadline=None)
    @given(weighted_digraphs())
    def test_cycle_means_match_enumeration(self, rows):
        # Karp's least cycle mean against every simple cycle
        weight = {(c, d): w for c, row in enumerate(rows) for d, w in row}
        means = []
        for size in range(1, len(rows) + 1):
            for cyc in itertools.permutations(range(len(rows)), size):
                edges = list(zip(cyc, cyc[1:] + cyc[:1]))
                if all(edge in weight for edge in edges):
                    means.append(F(sum(weight[e] for e in edges), size))
        assert _min_cycle_mean(rows, lambda w: w) == min(means, default=None)

    def test_nilpotent_quotient_has_denominator_one(self):
        # one edge from state 0 to state 1 and no cycle: members stop after
        # two steps, and the generating function is their polynomial
        t = PolyMatrix.zeros(4, 4)
        t.data[1][0] = X
        v = PolyMatrix([[ONE], [ZERO], [ZERO], [ZERO]])
        spec = builtin("path")
        sys_ = TransferSystem(t=t, v=v, spec=spec)
        gf = family_gf(sys_)
        assert gf.den == ONE
        assert gf == ratfunc_normalize(ONE + (X + Y) * Z + Z * Z + X * Z ** 3,
                                       ONE)

    @settings(max_examples=30, deadline=None)
    @given(family_specs())
    def test_generated_families_lump_and_certify(self, spec):
        # the series of family_gf equals the unlumped iteration up to the
        # Cayley-Hamilton bound of the unlumped T, which proves the pair
        # without relying on the lumping
        sys_ = build_transfer_system(spec)
        gf = family_gf(sys_)
        n = sys_.dimension
        bound = max(gf.num.max_degree_z() + n,
                    gf.den.max_degree_z() + spec.recursion_start + n - 1)
        reference = list(unlumped_weps(sys_, bound))
        assert list(iter_weps(sys_, bound)) == reference
        assert series_coefficients(gf, bound) == reference


def rational_points():
    """Points whose coordinates include zero, negative and non-dyadic
    rationals."""
    coordinate = st.builds(F, st.integers(-6, 6),
                           st.sampled_from([1, 2, 3, 5, 7, 12]))
    return st.tuples(coordinate, coordinate)


class TestIntegerKernel:
    @settings(max_examples=30, deadline=None)
    @given(family_specs(), st.lists(rational_points(), min_size=1,
                                    max_size=3))
    def test_generated_members_and_values_equal_unlumped(self, spec, points):
        # the reference evaluates the unlumped members, which stays defined
        # at a zero coordinate where the kernel's homogenised division is not
        sys_ = build_transfer_system(spec)
        reference = list(unlumped_weps(sys_, 12))
        assert list(iter_weps(sys_, 12)) == reference
        for x0, y0 in points:
            assert wep_values_by_iteration(sys_, x0, y0, 12) == \
                [w.eval_xy(x0, y0) for w in reference], (x0, y0)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_zero_coordinates(self, systems, name):
        sys_ = systems[name]
        reference = list(unlumped_weps(sys_, 20))
        for point in ((0, F(1, 3)), (F(-1, 2), 0), (0, 0)):
            assert wep_values_by_iteration(sys_, *point, 20) == \
                [w.eval_xy(*point) for w in reference], point

    def test_float_point_read_as_at_every_entry_point(self, systems):
        # y0 = 0.4 is 2/5 here as in fidelity_sweep at lambda = 0.8, not
        # the binary float nearest it
        path = systems["path"]
        assert wep_values_by_iteration(path, F(1, 2), 0.4, 12) == \
            fidelity_sweep(path, 0.8, 12) == \
            wep_values_by_iteration(path, F(1, 2), F(2, 5), 12)

    def test_narrow_digits_raise(self, systems, monkeypatch):
        # one-byte digits still hold member 3, but carry once a coefficient
        # passes 255; the digit sums then fall short of the values at (1, 1)
        sys_ = systems["grid_2"]
        monkeypatch.setattr(transfer, "_digit_bytes", lambda bound: 1)
        assert wep_by_iteration(sys_, 3) == list(unlumped_weps(sys_, 3))[3]
        with pytest.raises(CertificateError, match="carry"):
            list(iter_weps(sys_, 12))
        with pytest.raises(CertificateError, match="carry"):
            wep_values_by_iteration(sys_, 0, F(1, 3), 12)

    def test_non_integer_entries_rejected(self, systems):
        # the members of a family count colourings; a step matrix that
        # does not is refused rather than decoded
        path = systems["path"]
        for t_entry in (X * F(1, 2), X - Y, X + ONE):
            t = PolyMatrix.zeros(4, 4)
            t.data[1][0] = t_entry
            v = PolyMatrix([[ONE], [ZERO], [ZERO], [ZERO]])
            sys_ = TransferSystem(t=t, v=v, spec=path.spec)
            with pytest.raises(AlgebraError, match="nonnegative integer"):
                wep_by_iteration(sys_, 4)
            with pytest.raises(AlgebraError, match="nonnegative integer"):
                wep_values_by_iteration(sys_, 1, 2, 4)
