"""Transfer matrices, initial vectors, iteration, and generating functions."""

import dataclasses
import itertools
import json
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldgf import (BUILTIN_FAMILIES, AlgebraError, CertificateError,
                   FamilyError, FamilySpec, Graph, LaurentPoly3, PolyMatrix,
                   TransferSystem, build_transfer_system, builtin,
                   critical_lambda_sweep, family_gf, fidelity_sweep,
                   iter_weps, parse_family_spec,
                   poly_from_terms, ratfunc_equal, ratfunc_normalize, realize,
                   series_coefficients, sld_bruteforce_colouring,
                   sld_bruteforce_stabilizer, sld_from_wep, wep_by_iteration,
                   wep_values_by_iteration)
from sldgf import analysis, transfer
from sldgf.transfer import (Quotient, _admissible, _check_lumping, _lump,
                            _gather, _state_masks)

from conftest import brute_sectors, wep_terms_from_sectors
from fraction_free import resolvent_matrix, solve_linear_raw
from golden_forms import GOLDEN_GF, LADDER_3_GF
from pairwise_build import (colouring_weight, encode_states, merge_state,
                            pairwise_matrices, pairwise_terms)
from test_custom_family import CATERPILLAR, LADDER_3, LADDER_4
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
    def test_state_index_is_base_three_msb_first(self):
        # positions black, white-even, white-odd: letters 2, 0, 1, so
        # colour bit 0 and parity bit 2
        assert _state_masks(2 * 9 + 0 * 3 + 1, range(3)) == (0b001, 0b100)
        # position p reads the bit of vertex vertices[p]
        assert _state_masks(1 * 3 + 2, [3, 2]) == (0b0100, 0b1000)
        assert _gather(0b0100, [3, 2]) == 0b01
        assert _gather(0b1000, [3, 2]) == 0b10
        # every state decodes to the masks whose pair list the reference
        # merges back to it; a black vertex has parity 0
        for state in range(27):
            colours, parities = _state_masks(state, range(3))
            assert not colours & parities
            pairs = [(colours >> v & 1, parities >> v & 1) for v in range(3)]
            assert merge_state(encode_states(pairs), 3) == state


class TestColouringWeight:
    # colourings are colour and parity masks, bit v for vertex v
    def test_all_white_chain(self):
        assert _admissible(PATH3, 0b000, 0b000) == 3

    def test_white_black_white_chain(self):
        assert _admissible(PATH3, 0b010, 0b000) == 0

    def test_single_vertex_odd_external_parity(self):
        assert _admissible(VERTEX, 0b0, 0b1) == 0

    def test_matches_independent_enumeration(self):
        # weight with all-even parity is the admissible count used by the oracle
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        counts = [0] * 5
        for colours in range(16):
            counts[4 - _admissible(g, colours, 0)] += 1
        assert tuple(counts) == brute_sectors(4, g.sorted_edges())

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1))),
        st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
    def test_matches_pair_lists(self, case):
        # the masks count as the pair-list reference does, on any graph,
        # colouring and external parities
        n, edges, colours, parities = case
        g = Graph.from_edges(n, [e for e in edges if e[0] != e[1]])
        assert _admissible(g, colours, parities) == colouring_weight(
            g, [colours >> v & 1 for v in range(n)],
            [parities >> v & 1 for v in range(n)])


class TestStepMatrices:
    # the paper displays the 4-state matrices (white-even, white-odd,
    # black-even, black-odd), which the reference builds; the package's
    # 3-state matrices (white-even, white-odd, black) merge the black rows
    # and the equal black columns
    def test_path_step_matrix_display(self, systems):
        t = pairwise_matrices(builtin("path"))[0]
        assert t.data == [
            [mono(1, 0), mono(1, 0), ZERO, ZERO],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
            [mono(-1, 2), mono(1, 0), ZERO, ZERO],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
        ]
        assert systems["path"].t.data == [
            [mono(1, 0), mono(1, 0), ZERO],
            [ZERO, ZERO, mono(0, 1)],
            [mono(-1, 2), mono(1, 0), mono(0, 1)],
        ]

    def test_star_step_matrix_display(self, systems):
        t = pairwise_matrices(builtin("star"))[0]
        assert t.data == [
            [mono(1, 0), mono(1, 0), ZERO, ZERO],
            [mono(-1, 2), mono(1, 0), ZERO, ZERO],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
            [ZERO, ZERO, mono(0, 1), mono(0, 1)],
        ]
        assert systems["star"].t.data == [
            [mono(1, 0), mono(1, 0), ZERO],
            [mono(-1, 2), mono(1, 0), ZERO],
            [ZERO, ZERO, mono(0, 1, 2)],
        ]

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
                    assert entry.is_zero() or len(entry.terms) == 1

    def test_step_columns_conserve_counting(self, systems):
        # each boundary state extends to exactly 2^(fresh vertices) colourings
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            growth = sys_.spec.qubit_step
            t = sys_.t
            for col in range(t.cols):
                total = sum(t.data[row][col].eval_xy(1, 1)
                            for row in range(t.rows))
                assert total == 2 ** growth

    def test_path_initial_vector(self, systems):
        assert pairwise_matrices(builtin("path"))[1].column(0) == [
            mono(2, 0), mono(0, 2), mono(0, 2), mono(0, 2)]
        assert systems["path"].v.column(0) == [mono(2, 0), mono(0, 2),
                                               mono(0, 2, 2)]

    def test_star_initial_vector_equals_paths(self, systems):
        assert systems["star"].v.column(0) == systems["path"].v.column(0)

    def test_cycle_initial_vector_matches_enumeration(self, systems):
        # classify all triangle colourings by (colour, external parity) of the
        # boundary pair: external parity of both boundary vertices is the
        # middle vertex's colour
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        acc = [LaurentPoly3.zero() for _ in range(16)]
        merged = [LaurentPoly3.zero() for _ in range(9)]
        for mask in range(8):
            c0, c1, c2 = [(mask >> v) & 1 for v in range(3)]
            weight = colouring_weight(triangle, [c0, c1, c2], [0, 0, 0])
            state = encode_states([(c0, c1), (c2, c1)])
            acc[state] = acc[state] + mono(weight, 3 - weight)
            merged[merge_state(state, 2)] += mono(weight, 3 - weight)
        assert pairwise_matrices(builtin("cycle"))[1].column(0) == acc
        assert systems["cycle"].v.column(0) == merged

    def test_build_makes_no_dense_matrix(self, monkeypatch):
        # T and v are counted straight into integer term maps; the dense
        # PolyMatrix of LaurentPoly3 entries is made only when t or v is read
        class Refused:
            def __getattr__(self, name):
                raise AssertionError(f"the build read .{name}")

            def __call__(self, *args, **kwargs):
                raise AssertionError("the build made a dense object")
        specs = [builtin(name) for name in BUILTIN_FAMILIES]
        specs.append(parse_family_spec(json.dumps(LADDER_3)))
        monkeypatch.setattr(transfer, "LaurentPoly3", Refused())
        monkeypatch.setattr(transfer, "PolyMatrix", Refused())
        for spec in specs:
            sys_ = build_transfer_system(spec)
            assert sys_.quotient.dimension == QUOTIENT_DIMENSIONS[spec.name]

    def test_dimensions(self, systems):
        assert systems["path"].dimension == 3
        assert systems["cycle"].dimension == 9
        assert systems["grid_2"].dimension == 9
        assert systems["joint_squares"].dimension == 3
        for name in BUILTIN_FAMILIES:
            sys_ = systems[name]
            assert sys_.dimension == 3 ** len(sys_.spec.boundary), name

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
                # sld_from_wep refuses a non-homogeneous enumerator
                assert sld_from_wep(wep_by_iteration(sys_, r)).n == n, (name, r)

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
        # single-vertex state vector, must produce the same function, with
        # the paper's 4-state step matrix and with the package's 3-state one
        for name in ("path", "star"):
            for t, v1 in ((pairwise_matrices(builtin(name))[0],
                           PolyMatrix([[X], [ZERO], [Y], [ZERO]])),
                          (systems[name].t, PolyMatrix([[X], [ZERO], [Y]]))):
                nums, den = solve_linear_raw(resolvent_matrix(t),
                                             v1.column(0))
                total = ZERO
                for num in nums:
                    total = total + num
                gf = ratfunc_normalize(den + total.shift((0, 0, 1)), den)
                assert ratfunc_equal(gf, GOLDEN_GF[name]), (name, t.rows)

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

    @pytest.mark.parametrize("name", ["path", "star", "pusteblume",
                                      "joint_squares", "caterpillar"])
    def test_matches_fraction_free_reference(self, systems, name):
        # the 1-vertex-boundary families are small enough for the reference
        # solve of (I - zT) u = v; the caterpillar has Laurent step entries
        # and a negative qubit offset
        sys_ = (custom_system(name) if name == "caterpillar"
                else systems[name])
        assert ratfunc_equal(family_gf(sys_), fraction_free_gf(sys_))


# the recurrence order of each family's members, from the recursion start
ORDERS = {"path": 3, "star": 3, "cycle": 3, "pusteblume": 3,
          "complete_bipartite_2": 3, "joint_squares": 2, "grid_2": 6,
          "caterpillar": 3, "ladder_3": 16}


def custom_system(name):
    doc = {"caterpillar": CATERPILLAR, "ladder_3": LADDER_3}[name]
    return build_transfer_system(parse_family_spec(json.dumps(doc)))


QUOTIENT_DIMENSIONS = {
    "path": 3, "star": 3, "pusteblume": 3, "joint_squares": 3,
    "caterpillar": 3, "cycle": 9, "complete_bipartite_2": 5, "grid_2": 6,
    "ladder_3": 18}


@st.composite
def family_specs(draw):
    """Valid families with a 0-2 vertex boundary, a base graph of up to 6
    vertices and a replacement of up to 5, the next boundary inducing the
    boundary's subgraph as validate() demands. An empty boundary grows the
    family by disjoint copies of the replacement: product-state or
    disconnected growth."""
    k = draw(st.integers(0, 2))
    n = draw(st.integers(k, 6))
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
        next_boundary_map=dict(zip(boundary, nxt)), prefix_weps=(ONE,))
    spec.validate()
    return spec


def assert_black_parity_merge(sys_):
    """The system's 3^k-state T3 and v3 are the paper's 4^k-state T4 and
    v4, built by the pair-list reference, with black-even and black-odd
    merged: P^T T4 = T3 P^T and v3 = P^T v4 term by term, P the indicator
    matrix of merge_state."""
    columns, vector = pairwise_terms(sys_.spec)
    k = len(sys_.spec.boundary)
    assert (len(columns), sys_.dimension) == (4 ** k, 3 ** k)
    merge = [merge_state(s, k) for s in range(4 ** k)]

    def merged(pairs):
        # P^T of the (4-letter row, terms) pairs of one column or vector
        out = {}
        for i, terms in pairs:
            out.setdefault(merge[i], Counter()).update(terms)
        return {i: terms for i, terms in out.items() if terms}
    for s, column in enumerate(columns):
        assert merged(column.items()) == sys_.columns[merge[s]], s
    assert merged(enumerate(vector)) == {
        i: terms for i, terms in enumerate(sys_.vector) if terms}


class TestPairwiseReference:
    @pytest.mark.parametrize("doc", [CATERPILLAR, LADDER_3, LADDER_4],
                             ids=["caterpillar", "ladder_3", "ladder_4"])
    def test_custom_terms_equal_pair_lists(self, doc):
        assert_black_parity_merge(
            build_transfer_system(parse_family_spec(json.dumps(doc))))

    def test_builtin_terms_equal_pair_lists(self, systems):
        for name in BUILTIN_FAMILIES:
            assert_black_parity_merge(systems[name])

    @settings(max_examples=40, deadline=None)
    @given(family_specs())
    def test_generated_terms_equal_pair_lists(self, spec):
        assert_black_parity_merge(build_transfer_system(spec))


def assert_least_shifts(sys_):
    """The quotient's shifts are the least x and y shifts that clear the
    negative exponents of T and of v, read off their term maps."""
    def least(entries):
        exps = [exp for e in entries for exp in e]
        return (max([0] + [-ex for ex, _, _ in exps]),
                max([0] + [-ey for _, ey, _ in exps]))
    q = sys_.quotient
    assert q.step[:2] == least(e for c in sys_.columns for e in c.values())
    assert q.start[:2] == least(sys_.vector)


class TestLumping:
    @pytest.mark.parametrize("name", sorted(QUOTIENT_DIMENSIONS))
    def test_quotient_dimensions(self, systems, name):
        sys_ = systems.get(name) or custom_system(name)
        q, k = sys_.quotient, len(sys_.spec.boundary)
        assert q.dimension == QUOTIENT_DIMENSIONS[name]
        assert sys_.dimension == 3 ** k
        # the paper's 4^k-state matrix lumps to the same quotient: merging
        # black parity keeps the order of the states, so the blocks are
        # numbered alike and each 4-letter state joins its merged state's
        q4 = _lump(*pairwise_terms(sys_.spec))
        assert (q4.rows, q4.v, q4.step, q4.start) == (q.rows, q.v, q.step,
                                                      q.start)
        assert q4.block_of == tuple(q.block_of[merge_state(s, k)]
                                    for s in range(4 ** k))

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
                                        "start", "block", "shift",
                                        "start-shift", "step-degree",
                                        "negative-exponent", "long-start"])
    def test_tampered_quotient_raises(self, systems, tamper):
        # the quotient holds integer terms (i, j, c) standing for c x^i y^j
        sys_ = systems["grid_2"]
        q = sys_.quotient
        rows, vec, block_of = list(q.rows), list(q.v), list(q.block_of)
        step, start = q.step, q.start
        if tamper == "entry":
            (d, terms), *rest = rows[0]
            rows[0] = ((d, terms + ((1, 1, 1),)),) + tuple(rest)
        elif tamper == "dropped-entry":
            rows[-1] = rows[-1][:-1]
        elif tamper == "repeated-entry":
            # the iteration adds both copies
            rows[0] = rows[0] + rows[0][-1:]
        elif tamper == "foreign-block":
            rows[0] = rows[0] + ((len(rows), ((0, 0, 1),)),)
        elif tamper == "start":
            vec[0] = vec[0] + ((0, 0, 1),)
        elif tamper == "shift":
            # one more x per step, with the terms left as they were
            step = (step[0] + 1,) + step[1:]
        elif tamper == "start-shift":
            start = start[:2] + (start[2] + 1,)
        elif tamper == "step-degree":
            # one more qubit per step, with the terms left as they were
            step = step[:2] + (step[2] + 1,)
        elif tamper == "long-start":
            # one block more than the step matrix has, holding nothing
            vec.append(())
        elif tamper == "negative-exponent":
            # one x fewer per step and in every term: the same T', but the
            # iteration's integer points cannot take x^-1
            step = (step[0] - 1,) + step[1:]
            rows = [tuple((d, tuple((i - 1, j, c) for i, j, c in terms))
                          for d, terms in row) for row in rows]
        else:
            block_of[block_of.index(1)] = 0
        bad = Quotient(tuple(block_of), tuple(rows), tuple(vec), step, start)
        with pytest.raises(CertificateError, match="lump"):
            _check_lumping(sys_.columns, sys_.vector, bad)

    def test_untampered_quotient_is_accepted(self, systems):
        sys_ = systems["cycle"]
        _check_lumping(sys_.columns, sys_.vector, sys_.quotient)
        assert _lump(sys_.columns, sys_.vector) == sys_.quotient

    @pytest.mark.parametrize("name", sorted(QUOTIENT_DIMENSIONS))
    def test_quotient_shifts_are_the_least_shifts_of_t_and_v(self, systems,
                                                              name):
        # lumping sums nonnegative counts, so no exponent of T or v cancels
        # and the quotient's own least shifts are those of T and v
        sys_ = systems.get(name) or custom_system(name)
        assert_least_shifts(sys_)

    def test_least_shifts_include_negative_exponents(self, systems):
        # path's step holds x^-1 and cycle's x^-2 and y^-1, so the shifts
        # checked above are not all zero
        assert systems["path"].quotient.step[:2] == (1, 0)
        assert systems["cycle"].quotient.step[:2] == (2, 1)

    @settings(max_examples=30, deadline=None)
    @given(family_specs())
    def test_generated_quotient_shifts_are_the_least_shifts(self, spec):
        assert_least_shifts(build_transfer_system(spec))

    def test_system_is_frozen(self, systems):
        # the quotient and the cached generating function are derived from
        # columns and vector, so neither may be swapped after the system is
        # made
        path, star = systems["path"], systems["star"]
        for name, value in (("columns", star.columns),
                            ("quotient", star.quotient)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(path, name, value)

    def test_replaced_system_derives_its_own_gf(self, systems):
        # the cached generating function belongs to the system it was
        # derived from, not to a copy made with another operator
        path, star = systems["path"], systems["star"]
        family_gf(path)
        swapped = dataclasses.replace(path, columns=star.columns,
                                      vector=star.vector)
        assert family_gf(swapped) == GOLDEN_GF["star"]

    def test_narrow_first_digits_double_to_the_same_denominator(
            self, systems, monkeypatch):
        # 2-bit digits are too narrow for most of these denominators, so
        # the check on the sums must reject the decoded polynomial and the
        # width double until it gives the reduced denominator and order
        monkeypatch.setattr(transfer, "_FIRST_DIGIT_BITS", 2)
        real, points = transfer._at, []
        monkeypatch.setattr(transfer, "_at", lambda h, a, b: points.append(
            (a, b)) or real(h, a, b))
        dens = {name: GOLDEN_GF[name].den for name in BUILTIN_FAMILIES}
        dens["caterpillar"] = (ONE - X ** 2 * Z - 3 * Y ** 2 * Z
                               + 2 * Y ** 6 * Z ** 3
                               - 4 * X ** 2 * Y ** 4 * Z ** 3
                               + 2 * X ** 4 * Y ** 2 * Z ** 3)
        dens["ladder_3"] = LADDER_3_GF.den
        for name, order in ORDERS.items():
            points.clear()
            den, found = transfer._minimal_denominator(
                systems.get(name) or custom_system(name))
            assert found == order and dens[name] in (den, -den), name
        # ladder_3 swept once at t = 1 for the bound, then once per width
        # (2, 4, 8 and 16 bits), each width's decode checked by one sweep
        # at t = 2^B* with B* from that bound: every decode has integer
        # coefficients, and only the 16-bit one passes
        assert {a for a, _ in points} == {1}
        assert [b.bit_length() - 1 for _, b in points] == [
            0, 2, 104, 4, 105, 8, 105, 16, 105]

    @pytest.mark.parametrize("name", sorted(GOLDEN_GF) + ["ladder_3"])
    def test_perturbed_connection_coefficient_is_refused(
            self, systems, monkeypatch, name):
        # at the first width, Berlekamp-Massey returns the true connection
        # integers with c_1 off by one. They still decode, so only the
        # check on the sums can refuse them; the width must then double,
        # and the true integers at 32 bits give the reduced denominator
        real_at, real_bm = transfer._at, transfer._berlekamp_massey
        points, widths = [], []
        monkeypatch.setattr(transfer, "_at", lambda h, a, b: points.append(
            b) or real_at(h, a, b))

        def perturbed(seq):
            widths.append(points[-1].bit_length() - 1)
            c, order = real_bm(seq)
            return ([c[0], c[1] + 1, *c[2:]] if len(widths) == 1 else c,
                    order)
        monkeypatch.setattr(transfer, "_berlekamp_massey", perturbed)
        assert transfer._minimal_denominator(
            systems.get(name) or custom_system(name)) == (
            GOLDEN_GF.get(name, LADDER_3_GF).den, ORDERS[name])
        assert widths == [16, 32]

    def test_order_above_denominator_degree_passes_the_check(
            self, monkeypatch):
        # the recurrence holds only from member start + 2 on, past the
        # denominator's degree 1, so the check on the sums must start at
        # the order; started at the degree it rejects every digit width
        real, calls = transfer._berlekamp_massey, []

        def one_width(seq):
            calls.append(seq)
            assert len(calls) == 1, "the correct denominator was rejected"
            return real(seq)
        monkeypatch.setattr(transfer, "_berlekamp_massey", one_width)
        spec = FamilySpec(
            name="pendant", base_graph=Graph.from_edges(2, [(0, 1)]),
            boundary=(0,), replacement=Graph.from_edges(3, [(0, 1)]),
            glue_map={0: 0}, next_boundary_map={0: 2}, prefix_weps=(ONE,))
        sys_ = build_transfer_system(spec)
        assert transfer._minimal_denominator(sys_) == (
            ONE - X ** 2 * Z - 3 * Y ** 2 * Z, 2)

    def test_nilpotent_quotient_has_denominator_one(self):
        # one edge from state 0 to state 1 and no cycle: members stop after
        # two steps, and the generating function is their polynomial
        spec = builtin("path")
        sys_ = TransferSystem(columns=[{1: X.terms}, {}, {}, {}],
                              vector=[ONE.terms, {}, {}, {}], spec=spec)
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

    @settings(max_examples=25, deadline=None)
    @given(family_specs().filter(lambda spec: len(spec.boundary) <= 1))
    def test_generated_gf_matches_fraction_free_reference(self, spec):
        # the GF derived on the quotient equals the fraction-free solve of
        # (I - zT) u = v on the unlumped T; with at most 3 states it is
        # cheap, and it covers families that do not grow
        sys_ = build_transfer_system(spec)
        assert ratfunc_equal(family_gf(sys_), fraction_free_gf(sys_))

    @settings(max_examples=30, deadline=None)
    @given(family_specs())
    def test_generated_members_equal_both_oracles(self, spec):
        # every member up to 14 qubits, or up to r = 8 in a family that
        # does not grow, against the graph the rule builds for it
        step = spec.qubit_step
        r_max = 8 if step == 0 else (14 - spec.qubit_offset) // step
        weps = list(iter_weps(build_transfer_system(spec), r_max))
        for r in range(spec.recursion_start, r_max + 1):
            graph = realize(spec, r)
            assert graph.vertex_count == spec.qubit_count(r)
            assert sld_from_wep(weps[r]) == sld_bruteforce_colouring(graph) \
                == sld_bruteforce_stabilizer(graph), r


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

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_zero_coordinate_reads_the_surviving_term(self, systems, name):
        # the values equal the decoded members, evaluated whole. At lam = 0
        # and at x0 = 0 a family with x^-1 and y^-1 step entries (cycle,
        # complete_bipartite_2) reads each value as one coefficient off the
        # member's digits. Elsewhere the values strip the power of 2 they
        # share with their divisor before Fraction reduces them: at
        # (1/2, k/64) it comes from d, a and b alike; at (1/2, -1/2) half
        # or more of the values are 0 over an even divisor; at (-1/2, 1/4)
        # a family with an odd x-shift has divisors of both signs, and
        # (3/4, 1/4) has an odd numerator
        sys_ = systems[name]
        members = list(transfer._members(sys_, 60))
        for point in ((F(1, 2), 0), (0, F(2, 5)), (F(1, 2), F(17, 64)),
                      (F(1, 2), F(29, 64)), (F(1, 2), F(-1, 2)),
                      (F(-1, 2), F(1, 4)), (F(3, 4), F(1, 4))):
            values = wep_values_by_iteration(sys_, *point, 60)
            assert values == [w.eval_xy(*point) for w in members], point
            if point == (F(1, 2), F(-1, 2)):
                assert values.count(0) >= 30

    @pytest.mark.parametrize("start", [
        X + 3 * mono(-1, 2), X ** 2 + 3 * Y ** 2 + mono(3, -1),
        mono(-1, 3) + Y * Y], ids=["negative_x", "negative_y", "both"])
    def test_zero_coordinate_with_negative_exponents(self, systems, start):
        # a hand-built member with a negative exponent is evaluated whole,
        # and raises where 0 meets that exponent, as eval_xy does
        sys_ = TransferSystem(columns=[{0: ONE.terms}, {}, {}, {}],
                              vector=[start.terms, {}, {}, {}],
                              spec=systems["path"].spec)
        members = list(iter_weps(sys_, 6))

        def read(value):
            try:
                return value()
            except AlgebraError as exc:
                return str(exc)
        for point in ((0, F(1, 3)), (F(1, 2), 0), (0, 0)):
            assert read(lambda: wep_values_by_iteration(sys_, *point, 6)) \
                == read(lambda: [w.eval_xy(*point) for w in members]), point

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
        # the members of a family count colourings; a step matrix or an
        # initial vector that does not is refused when the system is made
        path = systems["path"]
        entries = [(t.terms, v.terms) for t, v in (
            (X * F(1, 2), ONE), (X - Y, ONE), (X + ONE, ONE), (X, Z))]
        # term maps are read as given, so a float or bool exponent or
        # coefficient is refused too, in T and in v, not read as the int
        # it equals
        x, one = {(1, 0, 0): 1}, {(0, 0, 0): 1}
        for bad in ({(1, 0, 0): 1.0}, {(1.0, 0, 0): 1}, {(1, 0.0, 0): 1},
                    {(1, 0, 0.0): 1}, {(1, 0, 0): True}, {(True, 0, 0): 1},
                    {(1, 0, False): 1}, {(1, 0, 0): F(3, 2)}):
            entries += [(bad, one), (x, bad)]
        for t_terms, v_terms in entries:
            with pytest.raises(AlgebraError, match="nonnegative integer"):
                TransferSystem(columns=[{1: t_terms}, {}, {}, {}],
                               vector=[v_terms, {}, {}, {}],
                               spec=path.spec)
        # an integral Fraction or int coefficient is an integer
        for c in (F(1), 1):
            TransferSystem(columns=[{1: {(1, 0, 0): c}}, {}, {}, {}],
                           vector=[{(0, 0, 0): c}, {}, {}, {}],
                           spec=path.spec)
        # the term maps are sparse, so a row outside the states or a vector
        # of another length is refused too, not wrapped or truncated
        # a non-int row (a bool included, as _rational reads it) is refused
        # too, not read as the row it equals
        for row, size in ((-1, 4), (4, 4), (1, 3), (1, 5), (1.0, 4),
                          (True, 4)):
            with pytest.raises(AlgebraError, match="4-state system"):
                TransferSystem(columns=[{row: X.terms}, {}, {}, {}],
                               vector=[ONE.terms] + [{}] * (size - 1),
                               spec=path.spec)


def decoded_slds(sys_, r_max):
    """The SLDs of members 0 .. r_max as the threshold sweep reads them,
    from the integer member stream with no LaurentPoly3."""
    return [analysis._sld(*member)
            for member in transfer._sector_lengths(sys_, r_max)]


def refusal(read):
    """The class of the error that read() raises, or its value."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc)


class TestSectorLengths:
    @pytest.mark.parametrize("name", [*BUILTIN_FAMILIES, "caterpillar",
                                      "ladder_3"])
    def test_sectors_equal_the_decoded_members(self, systems, name):
        # the quotient steps of cycle and complete_bipartite_2 hold y^-1,
        # so their sector lengths start at a digit above the first
        sys_ = (custom_system(name) if name in ("caterpillar", "ladder_3")
                else systems[name])
        slds = [sld_from_wep(w) for w in iter_weps(sys_, 60)]
        assert decoded_slds(sys_, 60) == slds
        assert critical_lambda_sweep(sys_, range(1, 61), 1e-6) == [
            (r, analysis._critical_lambda_from_sld(sld, 1e-6))
            for r, sld in enumerate(slds) if r]

    @settings(max_examples=30, deadline=None)
    @given(family_specs())
    def test_generated_sectors_equal_the_decoded_members(self, spec):
        sys_ = build_transfer_system(spec)
        slds = [sld_from_wep(w) for w in iter_weps(sys_, 12)]
        assert decoded_slds(sys_, 12) == slds

    def test_narrow_digits_raise(self, systems, monkeypatch):
        # the sweep decodes the digits itself, and keeps the carry check
        sys_ = systems["grid_2"]
        expected = critical_lambda_sweep(sys_, [3])
        monkeypatch.setattr(transfer, "_digit_bytes", lambda bound: 1)
        assert critical_lambda_sweep(sys_, [3]) == expected
        with pytest.raises(CertificateError, match="carry"):
            critical_lambda_sweep(sys_, range(1, 13))

    @pytest.mark.parametrize("column, start", [
        ({1: X.terms}, ONE), ({0: ONE.terms}, X + 3 * mono(-1, 2)),
        ({0: ONE.terms}, X ** 2 + 3 * Y ** 2 + mono(3, -1))],
        ids=["nilpotent", "negative_x", "negative_y"])
    def test_members_refused_as_sld_from_wep_refuses(self, systems, column,
                                                     start):
        # a system made from term maps may have members that are not
        # weight enumerators: zero, or with a negative exponent beside
        # sector lengths that would pass for an SLD; the sweep refuses
        # each with the error class that sld_from_wep raises
        sys_ = TransferSystem(columns=[column, {}, {}, {}],
                              vector=[start.terms, {}, {}, {}],
                              spec=systems["path"].spec)
        outcomes = []
        for r, wep in enumerate(iter_weps(sys_, 6)):
            if r:
                found = refusal(lambda: critical_lambda_sweep(sys_, [r])[0][1])
                expected = refusal(lambda: analysis._critical_lambda_from_sld(
                    sld_from_wep(wep), 1e-10))
                assert found == expected, r
                outcomes.append(found)
        assert FamilyError in outcomes
