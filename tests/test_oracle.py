"""Brute-force oracle pair: mutual agreement and pinned small cases."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldgf import (BUILTIN_FAMILIES, FamilyError, Graph, VertexCapExceeded,
                   builtin, oracle, realize, sld_bruteforce_colouring,
                   sld_bruteforce_stabilizer)

import oracle_reference as reference
from conftest import brute_sectors

EDGE = Graph.from_edges(2, [(0, 1)])
CHAIN3 = Graph.from_edges(3, [(0, 1), (1, 2)])
STAR3 = Graph.from_edges(3, [(0, 1), (0, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_bell_pair_both_oracles():
    assert sld_bruteforce_colouring(EDGE).sectors == (1, 0, 3)
    assert sld_bruteforce_stabilizer(EDGE).sectors == (1, 0, 3)


def test_empty_graph():
    empty = Graph(0, frozenset())
    assert sld_bruteforce_colouring(empty).sectors == (1,)
    assert sld_bruteforce_stabilizer(empty).sectors == (1,)


def test_three_chain():
    expected = brute_sectors(3, CHAIN3.sorted_edges())
    assert expected == (1, 0, 3, 4)
    assert sld_bruteforce_colouring(CHAIN3).sectors == expected
    assert sld_bruteforce_stabilizer(CHAIN3).sectors == expected


def test_three_star_stabilizer_group():
    # 8 group elements: {III, XZZ, ZXI, ZIX, YYZ, YZY, IXX, XYY} up to phase
    assert sld_bruteforce_stabilizer(STAR3).sectors == (1, 0, 3, 4)


def test_triangle_matches_star():
    # local complementation relates the two graphs; sector lengths agree
    assert sld_bruteforce_colouring(TRIANGLE) == sld_bruteforce_colouring(STAR3)
    assert sld_bruteforce_stabilizer(TRIANGLE) == sld_bruteforce_stabilizer(STAR3)


def test_oracles_agree_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        a = sld_bruteforce_colouring(g)
        b = sld_bruteforce_stabilizer(g)
        assert a == b
        assert a.sectors == brute_sectors(n, edges)
        assert a.sectors[0] == 1
        assert sum(a.sectors) == 2 ** n


def _assert_matches_reference(g: Graph) -> None:
    expected = reference.sld_bruteforce_colouring(g)
    assert expected == reference.sld_bruteforce_stabilizer(g)
    assert sld_bruteforce_colouring(g) == expected
    assert sld_bruteforce_stabilizer(g) == expected


def _random_graph(rng: random.Random, n: int) -> Graph:
    density = rng.random()
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if rng.random() < density])


def test_split_tables_match_reference_on_random_graphs():
    # every size from 0 to 16, each swept as one chunk
    rng = random.Random(20261018)
    for n in range(17):
        for _ in range(3 if n < 14 else 1):
            _assert_matches_reference(_random_graph(rng, n))


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_split_tables_match_reference_on_empty_and_complete(n):
    _assert_matches_reference(Graph(n, frozenset()))
    _assert_matches_reference(Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]))


def test_oracles_agree_on_family_members():
    for name in BUILTIN_FAMILIES:
        spec = builtin(name)
        for r in range(0, 20):
            if r >= 1 and spec.qubit_count(r) > 16:
                break
            try:
                g = realize(spec, r)
            except FamilyError:
                continue
            _assert_matches_reference(g)


def test_many_small_chunks_match_reference(monkeypatch):
    # at 0 to 3 vertices a plane is at most one byte of the pattern, with a
    # chunk width of 3 and with one above n; at 9 to 12 vertices 2^3-mask
    # chunks make the high vertices walk many chunks
    rng = random.Random(7)
    for width in (3, 5):
        monkeypatch.setattr(oracle, "_CHUNK_BITS", width)
        for n in range(4):
            _assert_matches_reference(Graph(n, frozenset()))
            _assert_matches_reference(_random_graph(rng, n))
            _assert_matches_reference(Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 3)
    for n in range(9, 13):
        _assert_matches_reference(_random_graph(rng, n))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_small_chunks_match_reference_on_random_graphs(data):
    n = data.draw(st.integers(0, 14), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                max_size=len(pairs)), label="edges")
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])
    width = data.draw(st.integers(1, 5), label="chunk bits")
    with mock.patch.object(oracle, "_CHUNK_BITS", width):
        _assert_matches_reference(g)


def test_chunked_sweep_matches_iteration():
    # 21 vertices span several sweep chunks; 24 is the cap
    from fractions import Fraction

    from sldgf import build_transfer_system, wep_values_by_iteration

    values = wep_values_by_iteration(build_transfer_system(builtin("path")),
                                     1, 2, 24)
    for n in (21, 24):
        chain = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        colouring = sld_bruteforce_colouring(chain)
        assert colouring == sld_bruteforce_stabilizer(chain)
        counted = sum(a * Fraction(2) ** k for k, a in enumerate(colouring))
        assert counted == values[n]


def test_cap_exceeded():
    big = Graph(30, frozenset())
    with pytest.raises(VertexCapExceeded):
        sld_bruteforce_colouring(big)
    with pytest.raises(VertexCapExceeded):
        sld_bruteforce_stabilizer(big)
