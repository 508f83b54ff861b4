"""End-to-end pipeline on families that are not in the catalog.

The caterpillar family replaces its growth vertex by a three-vertex star
whose centre inherits the old edges and one of whose leaves grows next;
member sizes follow n(r) = 2r - 1. The 3-wide ladder extrudes its last
3-vertex rung by a fresh one, so its boundary has three vertices, 27
states (64 in the paper's 4-letter alphabet); the 4-wide ladder does the
same with 4-vertex rungs and 81 states (256). The spider grows two-vertex
legs from one centre, so its members have 2r - 1 qubits too. Nothing here
is pinned to the catalog: agreement of series extraction, iteration, and
both oracles on a family the code has never seen is the whole point.
"""

import json
from fractions import Fraction as F
from unittest import mock

import pytest

from sldgf import (build_transfer_system,
                   critical_lambda_asymptotic, critical_lambda_sweep,
                   family_gf, iter_weps, parse_family_spec, realize,
                   series_coefficients, sld_bruteforce_colouring,
                   sld_bruteforce_stabilizer, sld_from_wep, wep_by_iteration)
from sldgf import analysis
from sldgf.transfer import _lump

from conftest import brute_sectors
from golden_forms import LADDER_3_GF
from pairwise_build import merge_state, pairwise_matrices, pairwise_terms
import threshold_reference
from unlumped import unlumped_weps
from wide_ladder import ladder, quotient_digest

CATERPILLAR = {
    "name": "caterpillar",
    "base_graph": {"n": 1, "edges": []},
    "boundary": [0],
    "replacement": {"n": 3, "edges": [[0, 1], [0, 2]]},
    "glue_map": {"0": 0},
    "next_boundary_map": {"0": 1},
    "prefix_weps": [{"vars": ["x", "y", "z"],
                     "terms": [{"e": [0, 0, 0], "c": "1"}]}],
    "recursion_start": 1,
    "qubit_count": {"offset": -1, "step": 2},
}

LADDER_3 = {
    "name": "ladder_3",
    "base_graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "boundary": [0, 1, 2],
    "replacement": {"n": 6, "edges": [[0, 1], [1, 2], [3, 4], [4, 5],
                                      [0, 3], [1, 4], [2, 5]]},
    "glue_map": {"0": 0, "1": 1, "2": 2},
    "next_boundary_map": {"0": 3, "1": 4, "2": 5},
    "prefix_weps": [{"vars": ["x", "y", "z"],
                     "terms": [{"e": [0, 0, 0], "c": "1"}]}],
    "recursion_start": 1,
    "qubit_count": {"offset": 0, "step": 3},
}

LADDER_4 = {
    "name": "ladder_4",
    "base_graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
    "boundary": [0, 1, 2, 3],
    "replacement": {"n": 8, "edges": [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6],
                                      [6, 7], [0, 4], [1, 5], [2, 6], [3, 7]]},
    "glue_map": {"0": 0, "1": 1, "2": 2, "3": 3},
    "next_boundary_map": {"0": 4, "1": 5, "2": 6, "3": 7},
    "prefix_weps": [{"vars": ["x", "y", "z"],
                     "terms": [{"e": [0, 0, 0], "c": "1"}]}],
    "recursion_start": 1,
    "qubit_count": {"offset": 0, "step": 4},
}

SPIDER = {
    "name": "spider",
    "base_graph": {"n": 1, "edges": []},
    "boundary": [0],
    "replacement": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "glue_map": {"0": 0},
    "next_boundary_map": {"0": 0},
    "prefix_weps": [{"vars": ["x", "y", "z"],
                     "terms": [{"e": [0, 0, 0], "c": "1"}]}],
    "recursion_start": 1,
    "qubit_count": {"offset": -1, "step": 2},
}

# families 16, 174 and 181 of tests/family_sweep.py's draw (seed 1, counted
# from 0): at the edge probe lam = 1 - 2^-20 the float pole kernel reported a
# unique simple pole near 1/4 and a negative criterion there, without an
# error. Exactly, the criterion is positive there, so each limit is the
# boundary 1.0
WRONG_POLE_FAMILIES = {index: dict(
    doc, name=f"generated_{index}", recursion_start=1,
    prefix_weps=SPIDER["prefix_weps"]) for index, doc in {
    16: {"base_graph": {"n": 5, "edges": [[0, 1], [0, 3], [0, 4], [1, 3],
                                          [2, 3], [2, 4], [3, 4]]},
         "boundary": [4, 3],
         "replacement": {"n": 4, "edges": [[1, 2], [1, 3]]},
         "glue_map": {"3": 1, "4": 2}, "next_boundary_map": {"3": 2, "4": 1},
         "qubit_count": {"offset": 3, "step": 2}},
    174: {"base_graph": {"n": 3, "edges": [[0, 2]]},
          "boundary": [1, 2],
          "replacement": {"n": 4, "edges": [[0, 3], [1, 2]]},
          "glue_map": {"1": 3, "2": 2}, "next_boundary_map": {"1": 3, "2": 2},
          "qubit_count": {"offset": 1, "step": 2}},
    181: {"base_graph": {"n": 2, "edges": []},
          "boundary": [0, 1],
          "replacement": {"n": 4, "edges": [[0, 3], [1, 2]]},
          "glue_map": {"0": 3, "1": 1}, "next_boundary_map": {"0": 3, "1": 1},
          "qubit_count": {"offset": 0, "step": 2}},
}.items()}

# family 99 of the same draw: at the edge probe both partials of the
# denominator are about 1e-30 at a simple pole, which the criterion ratio's
# former 1e-25 rule refused as indeterminate; within their error bound they
# are not 0, and the limit is interior
VANISHING_PARTIALS_FAMILY = dict(
    SPIDER, name="generated_99",
    base_graph={"n": 3, "edges": [[0, 1], [1, 2]]}, boundary=[1, 2],
    replacement={"n": 5, "edges": [[0, 3], [1, 2], [2, 3], [2, 4], [3, 4]]},
    glue_map={"1": 4, "2": 2}, next_boundary_map={"1": 4, "2": 3},
    qubit_count={"offset": 0, "step": 3})


def test_caterpillar_pipeline_end_to_end():
    spec = parse_family_spec(json.dumps(CATERPILLAR))
    sys_ = build_transfer_system(spec)
    assert sys_.dimension == 3
    assert pairwise_matrices(spec)[0].rows == 4

    # realized members: r=2 is the 3-star, r=3 a five-vertex caterpillar
    g2 = realize(spec, 2)
    assert g2.vertex_count == 3 and sorted(g2.degrees()) == [1, 1, 2]
    g3 = realize(spec, 3)
    assert g3.vertex_count == 5 and sorted(g3.degrees()) == [1, 1, 1, 2, 3]

    series = series_coefficients(family_gf(sys_), 7)
    for r, wep in enumerate(iter_weps(sys_, 7)):
        assert series[r] == wep
        if r < 1:
            continue
        graph = realize(spec, r)
        assert graph.vertex_count == spec.qubit_count(r)
        colouring = sld_bruteforce_colouring(graph)
        assert colouring == sld_bruteforce_stabilizer(graph)
        assert sld_from_wep(wep) == colouring
        assert colouring.sectors == brute_sectors(graph.vertex_count,
                                                  graph.sorted_edges())


def test_caterpillar_entanglement_values_are_exact():
    from sldgf import concentratable_entanglement, fidelity_exact
    spec = parse_family_spec(json.dumps(CATERPILLAR))
    sys_ = build_transfer_system(spec)
    cbar, c = concentratable_entanglement(sys_, 3)
    assert cbar + c == 1
    wep = wep_by_iteration(sys_, 3)
    assert cbar == wep.eval_xy(F(3, 4), F(1, 4))
    lam = F(2, 3)
    sld = sld_from_wep(wep)
    expected = sum(a * lam ** k for k, a in enumerate(sld)) / 2 ** sld.n
    assert fidelity_exact(sys_, lam, 3) == expected


def test_three_vertex_boundary_ladder():
    # the 27 states (64 in the paper's matrix) lump exactly to 18, on
    # which the order-16 recurrence is derived and certified in seconds
    spec = parse_family_spec(json.dumps(LADDER_3))
    sys_ = build_transfer_system(spec)
    for t, size, nonzeros in ((pairwise_matrices(spec)[0], 64, 512),
                              (sys_.t, 27, 216)):
        assert (t.rows, t.cols) == (size, size)
        assert sum(not e.is_zero() for row in t.data for e in row) == nonzeros
        for col in range(size):
            assert sum(row[col].eval_xy(1, 1) for row in t.data) == 2 ** 3
    assert sys_.quotient.dimension == 18

    gf = family_gf(sys_)
    assert gf == LADDER_3_GF
    assert (len(gf.num.terms), len(gf.den.terms)) == (208, 213)
    assert gf.den.max_degree_z() == 16

    series = series_coefficients(gf, 6)
    for r, wep in enumerate(iter_weps(sys_, 6)):
        assert series[r] == wep
        if r < 1:
            continue
        graph = realize(spec, r)
        assert graph.vertex_count == spec.qubit_count(r) == 3 * r
        colouring = sld_bruteforce_colouring(graph)
        assert colouring == sld_bruteforce_stabilizer(graph)
        assert sld_from_wep(wep) == colouring
        if r <= 5:
            # the plain-Python count takes seconds at 18 qubits
            assert colouring.sectors == brute_sectors(graph.vertex_count,
                                                      graph.sorted_edges())


def test_four_vertex_boundary_ladder():
    # the 81 states (256 in the paper's matrix) lump exactly to 45; the
    # members up to 24 qubits agree with the unlumped iteration and with
    # both oracles
    spec = parse_family_spec(json.dumps(LADDER_4))
    sys_ = build_transfer_system(spec)
    assert (sys_.dimension, sys_.quotient.dimension) == (81, 45)
    # the quotient of the paper's 256 states, as the dense build gave it,
    # and of the 81: the same rows, vector and shifts, each 4-letter state
    # in its merged state's block; the 5- to 7-wide checks in
    # wide_ladder.py widen this same document
    q, q4 = sys_.quotient, _lump(*pairwise_terms(spec))
    assert quotient_digest(q4) == (
        "6882ce81fe40f30bb8633c6345c3f356b127ad91fdb5e24ca16b8f1eff3a4662")
    assert quotient_digest(q) == (
        "c9225798b071f4626ae4b4c784d426f3826f215222ce5c8f3584ba480fe62758")
    assert (q4.rows, q4.v, q4.step, q4.start) == (q.rows, q.v, q.step,
                                                  q.start)
    assert q4.block_of == tuple(q.block_of[merge_state(s, 4)]
                                for s in range(256))
    assert ladder(4) == LADDER_4
    weps = list(iter_weps(sys_, 6))
    assert weps == list(unlumped_weps(sys_, 6))
    for r, wep in enumerate(weps[1:], 1):
        graph = realize(spec, r)
        assert graph.vertex_count == spec.qubit_count(r) == 4 * r
        colouring = sld_bruteforce_colouring(graph)
        assert colouring == sld_bruteforce_stabilizer(graph)
        assert sld_from_wep(wep) == colouring


def test_spider_member_thresholds():
    # the centre keeps every leg, so member r is a spider with r - 1 legs
    # of two vertices; its member thresholds approach an interior limit
    spec = parse_family_spec(json.dumps(SPIDER))
    g3 = realize(spec, 3)
    assert g3.vertex_count == 5 and sorted(g3.degrees()) == [1, 1, 2, 2, 2]
    sys_ = build_transfer_system(spec)
    assert critical_lambda_sweep(sys_, [60, 200]) == [
        (60, 0.7602685966814963), (200, 0.7600912054081947)]


def test_spider_asymptotic_threshold():
    # two distinct poles lie 5e-10 apart at the edge probe, which the float
    # kernel took for one double pole; the exact kernel separates them
    sys_ = build_transfer_system(parse_family_spec(json.dumps(SPIDER)))
    limit = critical_lambda_asymptotic(sys_)
    # the Richardson extrapolant of the 1/r law; members 400 and 800 give
    # the same value to 4e-7
    members = dict(critical_lambda_sweep(sys_, [200, 400]))
    assert abs(limit - (2 * members[400] - members[200])) < 2e-6


def test_vanishing_partials_limit():
    sys_ = build_transfer_system(
        parse_family_spec(json.dumps(VANISHING_PARTIALS_FAMILY)))
    # float Horner cancels both partials to 0.0 near lam = 0, where the
    # float search never probes; its guess lands in the bisection's cell,
    # so the edge and the cell's two ends are the only pole searches
    assert analysis._limit_guess(sys_) is not None
    real, calls = analysis.dominant_singularity, []

    def counted(q):
        calls.append(q)
        return real(q)
    with mock.patch.object(analysis, "dominant_singularity", counted):
        limit = critical_lambda_asymptotic(sys_)
    assert len(calls) == 3
    assert limit == threshold_reference.critical_lambda_asymptotic_bisection(
        sys_)
    assert 0.73 < limit < 0.74


@pytest.mark.parametrize("index", sorted(WRONG_POLE_FAMILIES))
def test_generated_boundary_limit(index):
    # the float kernel reported a wrong simple pole at the edge probe, so a
    # negative ratio - 1 there, and the search went on inside; the exact
    # pole gives a positive one, and the boundary limit
    doc = WRONG_POLE_FAMILIES[index]
    sys_ = build_transfer_system(parse_family_spec(json.dumps(doc)))
    assert critical_lambda_asymptotic(sys_) == 1.0
